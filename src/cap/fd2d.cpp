#include "cap/fd2d.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cap/extractor.h"
#include "diag/error.h"
#include "numeric/sparse_lu.h"
#include "numeric/units.h"
#include "run/control.h"

namespace rlcx::cap {

namespace {

constexpr double kNoPlane = -1e18;

struct Grid {
  int nx = 0, nz = 0;
  double x0 = 0.0, z0 = 0.0, h = 0.0;
  bool plane_bottom = false;
  std::vector<int> owner;       // conductor index per node, -1 = free

  int idx(int ix, int iz) const { return iz * nx + ix; }
};

Grid build_grid(const std::vector<FdConductor>& conductors, double plane_z,
                const Fd2dOptions& opt) {
  if (conductors.empty())
    throw diag::GeometryError("fd2d", "no conductors in cross-section");
  if (opt.cell <= 0.0)
    throw diag::UsageError("fd2d", "cell size must be positive, got " +
                                       std::to_string(opt.cell));
  if (opt.margin < opt.cell)
    throw diag::UsageError("fd2d", "margin must be >= cell size");

  double x_lo = conductors[0].x_min, x_hi = conductors[0].x_max;
  double z_lo = conductors[0].z_min, z_hi = conductors[0].z_max;
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    const FdConductor& k = conductors[c];
    if (k.x_max <= k.x_min || k.z_max <= k.z_min) {
      std::ostringstream msg;
      msg << "degenerate conductor " << c << ": x [" << k.x_min << ", "
          << k.x_max << "], z [" << k.z_min << ", " << k.z_max << "]";
      throw diag::GeometryError("fd2d", msg.str());
    }
    x_lo = std::min(x_lo, k.x_min);
    x_hi = std::max(x_hi, k.x_max);
    z_lo = std::min(z_lo, k.z_min);
    z_hi = std::max(z_hi, k.z_max);
  }

  Grid g;
  g.h = opt.cell;
  g.plane_bottom = plane_z > kNoPlane;
  if (g.plane_bottom && plane_z > z_lo)
    throw diag::GeometryError(
        "fd2d", "ground plane at z=" + std::to_string(plane_z) +
                    " lies above the lowest conductor (z=" +
                    std::to_string(z_lo) + ")");
  g.x0 = x_lo - opt.margin;
  g.z0 = g.plane_bottom ? plane_z : z_lo - opt.margin;
  g.nx = static_cast<int>(std::ceil((x_hi + opt.margin - g.x0) / g.h)) + 1;
  g.nz = static_cast<int>(std::ceil((z_hi + opt.margin - g.z0) / g.h)) + 1;
  if (static_cast<long long>(g.nx) * g.nz > kFdMaxGridNodes)
    throw diag::UsageError("fd2d", "grid " + std::to_string(g.nx) + "x" +
                                       std::to_string(g.nz) + " exceeds " +
                                       std::to_string(kFdMaxGridNodes) +
                                       " nodes; coarsen the cell");

  g.owner.assign(static_cast<std::size_t>(g.nx) * g.nz, -1);
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    const FdConductor& k = conductors[c];
    int ix0 = static_cast<int>(std::lround((k.x_min - g.x0) / g.h));
    int ix1 = static_cast<int>(std::lround((k.x_max - g.x0) / g.h));
    int iz0 = static_cast<int>(std::lround((k.z_min - g.z0) / g.h));
    int iz1 = static_cast<int>(std::lround((k.z_max - g.z0) / g.h));
    if (ix1 <= ix0) ix1 = ix0 + 1;  // at least one cell across
    if (iz1 <= iz0) iz1 = iz0 + 1;
    for (int iz = iz0; iz <= iz1; ++iz)
      for (int ix = ix0; ix <= ix1; ++ix) {
        if (ix < 0 || ix >= g.nx || iz < 0 || iz >= g.nz)
          throw std::logic_error("fd2d: conductor outside grid");
        if (g.owner[static_cast<std::size_t>(g.idx(ix, iz))] >= 0) {
          std::ostringstream msg;
          msg << "conductors " << g.owner[static_cast<std::size_t>(
                     g.idx(ix, iz))] << " and " << c
              << " overlap on the grid near x=" << g.x0 + ix * g.h
              << ", z=" << g.z0 + iz * g.h;
          throw diag::GeometryError("fd2d", msg.str());
        }
        g.owner[static_cast<std::size_t>(g.idx(ix, iz))] =
            static_cast<int>(c);
      }
  }
  return g;
}

/// The 5-point Laplacian over the grid's unknowns, factored once and
/// solved once per driven conductor.
///
/// Conductor nodes are fixed at their drive potential and the bottom row
/// (plane or far box) at 0 V.  Without a plane every box edge is the far
/// ground (Dirichlet 0); with one the sides and top are Neumann: an
/// out-of-range neighbour is mirrored back onto the grid.  Every other node
/// is an unknown with 4 phi_c - (phi_w + phi_e + phi_s + phi_n) = 0, fixed
/// neighbours moved to the right-hand side.
class Laplacian {
 public:
  explicit Laplacian(const Grid& g) : g_(g), unknown_(g.owner.size(), -1) {
    for (int iz = 0; iz < g.nz; ++iz)
      for (int ix = 0; ix < g.nx; ++ix)
        if (is_unknown(ix, iz)) unknown_[at(ix, iz)] = static_cast<long>(n_++);
    std::vector<numeric::Triplet> entries;
    entries.reserve(5 * n_);
    for (int iz = 0; iz < g.nz; ++iz)
      for (int ix = 0; ix < g.nx; ++ix) {
        const long row = unknown_[at(ix, iz)];
        if (row < 0) continue;
        const auto r = static_cast<std::size_t>(row);
        entries.push_back({r, r, 4.0});
        for (const std::size_t nb : neighbours(ix, iz))
          if (unknown_[nb] >= 0)
            entries.push_back(
                {r, static_cast<std::size_t>(unknown_[nb]), -1.0});
      }
    run::checkpoint("fd2d");
    lu_.emplace(numeric::CscMatrix::from_triplets(n_, entries));
  }

  /// Potential of every grid node with conductor `drive` at 1 V and the
  /// rest at 0 V.
  std::vector<double> field(int drive) {
    std::vector<double> b(n_, 0.0);
    for (int iz = 0; iz < g_.nz; ++iz)
      for (int ix = 0; ix < g_.nx; ++ix) {
        const long row = unknown_[at(ix, iz)];
        if (row < 0) continue;
        for (const std::size_t nb : neighbours(ix, iz))
          if (g_.owner[nb] == drive) b[static_cast<std::size_t>(row)] += 1.0;
      }
    lu_->solve(b);
    std::vector<double> phi(unknown_.size());
    for (std::size_t i = 0; i < phi.size(); ++i)
      phi[i] = unknown_[i] >= 0 ? b[static_cast<std::size_t>(unknown_[i])]
                                : (g_.owner[i] == drive ? 1.0 : 0.0);
    return phi;
  }

 private:
  std::size_t at(int ix, int iz) const {
    return static_cast<std::size_t>(g_.idx(ix, iz));
  }

  bool is_unknown(int ix, int iz) const {
    if (g_.owner[at(ix, iz)] >= 0 || iz == 0) return false;
    if (g_.plane_bottom) return true;
    return ix > 0 && ix < g_.nx - 1 && iz < g_.nz - 1;
  }

  /// West, east, south and north neighbours of unknown (ix, iz), mirrored
  /// at a Neumann side (an unknown sits on the box edge only then).
  std::array<std::size_t, 4> neighbours(int ix, int iz) const {
    return {at(ix == 0 ? ix + 1 : ix - 1, iz),
            at(ix == g_.nx - 1 ? ix - 1 : ix + 1, iz), at(ix, iz - 1),
            at(ix, iz == g_.nz - 1 ? iz - 1 : iz + 1)};
  }

  const Grid& g_;
  std::vector<long> unknown_;  // grid node -> unknown index, -1 when fixed
  std::size_t n_ = 0;          // unknowns
  std::optional<numeric::SparseLu> lu_;
};

/// Boundary charge of every conductor for the potential field `phi`.
std::vector<double> charges(const Grid& g, const std::vector<double>& phi,
                            std::size_t n, double eps_r) {
  std::vector<double> q(n, 0.0);
  const double eps = kEps0 * eps_r;
  auto phi_at = [&](int ix, int iz) {
    return phi[static_cast<std::size_t>(g.idx(ix, iz))];
  };
  for (int iz = 0; iz < g.nz; ++iz)
    for (int ix = 0; ix < g.nx; ++ix) {
      const int o = g.owner[static_cast<std::size_t>(g.idx(ix, iz))];
      if (o < 0) continue;
      const double pc = phi_at(ix, iz);
      const int nb[4][2] = {
          {ix - 1, iz}, {ix + 1, iz}, {ix, iz - 1}, {ix, iz + 1}};
      for (const auto& [jx, jz] : nb) {
        if (jx < 0 || jx >= g.nx || jz < 0 || jz >= g.nz) continue;
        if (g.owner[static_cast<std::size_t>(g.idx(jx, jz))] >= 0) continue;
        // Flux through the face toward the free node: eps * (phi_nb - phi_c)
        // (face length h over node distance h cancels).
        q[static_cast<std::size_t>(o)] += eps * (phi_at(jx, jz) - pc);
      }
    }
  for (double& v : q) v = -v;  // charge = -eps * dphi/dn outward
  return q;
}

}  // namespace

RealMatrix fd_capacitance_matrix(const std::vector<FdConductor>& conductors,
                                 double eps_r, double ground_plane_z,
                                 const Fd2dOptions& opt) {
  if (eps_r <= 0.0)
    throw diag::UsageError("fd2d", "eps_r must be positive, got " +
                                       std::to_string(eps_r));
  const Grid g = build_grid(conductors, ground_plane_z, opt);
  const std::size_t n = conductors.size();
  Laplacian laplacian(g);
  RealMatrix c(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    run::checkpoint("fd2d");
    const std::vector<double> q =
        charges(g, laplacian.field(static_cast<int>(j)), n, eps_r);
    for (std::size_t i = 0; i < n; ++i) c(i, j) = q[i];
  }
  // The exact discrete solution is symmetric to round-off; the mean makes
  // it exactly so.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double m = 0.5 * (c(i, j) + c(j, i));
      c(i, j) = m;
      c(j, i) = m;
    }
  return c;
}

namespace {

std::vector<FdConductor> block_conductors(const geom::Block& block) {
  std::vector<FdConductor> out;
  const geom::Layer& layer = block.layer();
  for (std::size_t i = 0; i < block.size(); ++i) {
    const geom::Trace& t = block.trace(i);
    out.push_back({t.x_left(), t.x_right(), layer.z_bottom, layer.z_top()});
  }
  return out;
}

}  // namespace

RealMatrix fd_block_capacitance(const geom::Block& block,
                                const Fd2dOptions& opt) {
  const double h = ground_height(block);
  const double plane_z = block.layer().z_bottom - h;
  return fd_capacitance_matrix(block_conductors(block),
                               block.tech().eps_r(), plane_z, opt);
}

FdCapResult extract_cap_fd(const geom::Block& block,
                           const Fd2dOptions& opt) {
  const std::size_t n = block.size();
  FdCapResult res;
  res.cg.assign(n, 0.0);
  res.cc.assign(n > 0 ? n - 1 : 0, 0.0);

  // The paper's short-range reduction: each trace with its two adjacent
  // neighbours forms a 3-trace subproblem.
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> keep;
    if (i > 0) keep.push_back(i - 1);
    keep.push_back(i);
    if (i + 1 < n) keep.push_back(i + 1);
    const geom::Block sub = block.subproblem(keep);
    const RealMatrix c = fd_block_capacitance(sub, opt);
    // Position of trace i within the subproblem.
    std::size_t mid = 0;
    while (keep[mid] != i) ++mid;
    double row_sum = 0.0;
    for (std::size_t j = 0; j < keep.size(); ++j) row_sum += c(mid, j);
    res.cg[i] = row_sum;
    // Coupling to the right-hand neighbour, from this subproblem.
    if (i + 1 < n) {
      const std::size_t right = mid + 1;
      res.cc[i] = -c(mid, right);
    }
  }
  return res;
}

}  // namespace rlcx::cap
