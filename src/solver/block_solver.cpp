#include "solver/block_solver.h"

#include "diag/error.h"

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstdint>
#include <numbers>
#include <string>

#include "numeric/ldlt.h"
#include "peec/assembly.h"
#include "peec/mesh.h"
#include "res/budget.h"
#include "run/control.h"

namespace rlcx::solver {

namespace {

using Complex = std::complex<double>;

std::atomic<std::size_t> g_dense_solves{0};
std::atomic<std::size_t> g_max_filaments{0};

void record_solve(std::size_t filaments) {
  g_dense_solves.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_max_filaments.load(std::memory_order_relaxed);
  while (seen < filaments &&
         !g_max_filaments.compare_exchange_weak(seen, filaments,
                                                std::memory_order_relaxed)) {
  }
}

peec::Bar trace_bar(const geom::Block& block, std::size_t i) {
  const geom::Trace& t = block.trace(i);
  const geom::Layer& layer = block.layer();
  peec::Bar bar;
  bar.axis = peec::Axis::kY;
  bar.a_min = 0.0;
  bar.length = block.length();
  bar.t_min = t.x_left();
  bar.t_width = t.width;
  bar.z_min = layer.z_bottom;
  bar.z_thick = layer.thickness;
  return bar;
}

peec::MeshOptions mesh_for(const peec::Bar& bar, double rho,
                           const SolveOptions& opt) {
  if (!opt.auto_mesh) return opt.mesh;
  const double depth = peec::skin_depth(rho, opt.frequency);
  return peec::mesh_for_skin_depth(bar, depth, opt.max_filaments_per_dim);
}

std::vector<peec::Filament> mesh_conductor(const peec::Bar& envelope,
                                           double rho,
                                           const SolveOptions& opt) {
  const peec::MeshOptions mopt = mesh_for(envelope, rho, opt);
  std::vector<peec::Filament> out;
  for (const peec::Bar& b : peec::mesh_cross_section(envelope, mopt)) {
    out.push_back({b, 1.0, peec::bar_resistance(b, rho)});
  }
  return out;
}

std::vector<Conductor> trace_conductors(const geom::Block& block,
                                        const SolveOptions& opt) {
  std::vector<Conductor> conductors;
  const double rho = block.layer().rho;
  for (std::size_t i = 0; i < block.size(); ++i) {
    Conductor c;
    c.filaments = mesh_conductor(trace_bar(block, i), rho, opt);
    c.is_ground = block.trace(i).role == geom::TraceRole::kGround;
    c.block_trace = i;
    conductors.push_back(std::move(c));
  }
  return conductors;
}

/// Port admittance of conductor groups: the filaments filled in conductor
/// order whatever the ports are, so the fill does not depend on how
/// conductors are grouped, and P the 0/1 incidence of each conductor's
/// filaments on port `port_of[c]`.  Filaments on one port are strictly
/// parallel: they share its voltage drop and their currents sum to its
/// current, so Y is exact for any terminal conditions.
ComplexMatrix conductor_admittance(const std::vector<Conductor>& conductors,
                                   const std::vector<std::size_t>& port_of,
                                   std::size_t nports,
                                   const SolveOptions& opt) {
  std::vector<peec::Filament> all;
  std::vector<std::size_t> port;
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    for (const peec::Filament& f : conductors[c].filaments) {
      all.push_back(f);
      port.push_back(port_of[c]);
    }
  }
  ComplexMatrix p(all.size(), nports);
  for (std::size_t i = 0; i < all.size(); ++i) p(i, port[i]) = 1.0;
  return port_admittance(all, std::move(p), opt);
}

/// Port impedance Y⁻¹ of a port admittance.  Y = PᵀZ⁻¹P inherits Z's
/// complex symmetry and definite real and imaginary parts, so the same
/// unpivoted LDLᵀ inverts it, as the reduction of the identity.
ComplexMatrix port_impedance(ComplexMatrix y) {
  const std::size_t m = y.rows();
  return ComplexSymmetricLdlt(std::move(y)).reduce(ComplexMatrix::identity(m));
}

}  // namespace

ComplexMatrix port_admittance(const std::vector<peec::Filament>& filaments,
                              ComplexMatrix incidence,
                              const SolveOptions& opt) {
  const std::size_t nf = filaments.size();
  if (incidence.rows() != nf)
    throw diag::UsageError(
        "solver", "port_admittance: incidence has " +
                      std::to_string(incidence.rows()) + " rows for " +
                      std::to_string(nf) + " filaments");
  // The whole solve is charged once, here on the serial spine before any
  // pool fan-out, so the outcome is identical at every pool width.  A
  // solve the budget cannot fit is refused with ResourceExhaustedError
  // (exit code 7; docs/robustness.md "Resource governance").
  const res::ScopedReservation reservation(
      "solver-dense", estimate_dense_solve_bytes(nf, incidence.cols()));

  // Cooperative cancellation before each phase — fill, factor, reduction
  // (docs/robustness.md): a stop never interrupts one mid-write.
  run::checkpoint("solver");
  // Z = diag(R) + jωLp, lower triangle only: the LDLᵀ reads nothing else.
  // Z is allocated after the fill has released its temporaries, and the
  // real fill is released as soon as Z is built.
  ComplexMatrix z = [&] {
    const RealMatrix lp = peec::partial_inductance_matrix(filaments,
                                                          opt.partial);
    const double omega = 2.0 * std::numbers::pi * opt.frequency;
    ComplexMatrix zf(nf, nf);
    for (std::size_t i = 0; i < nf; ++i) {
      for (std::size_t j = 0; j <= i; ++j)
        zf(i, j) = Complex(0.0, omega * lp(i, j));
      zf(i, i) += filaments[i].resistance;
    }
    return zf;
  }();
  run::checkpoint("solver");
  const ComplexSymmetricLdlt ldlt = [&] {
    try {
      return ComplexSymmetricLdlt(std::move(z));
    } catch (const diag::SingularSystem& e) {
      throw diag::SingularSystem(
          "solver", "filament impedance matrix: " + e.message(), e.column(),
          e.dimension(), e.condition_estimate());
    }
  }();
  run::checkpoint("solver");
  ComplexMatrix y = ldlt.reduce(std::move(incidence));
  record_solve(nf);
  return y;
}

std::vector<Conductor> block_conductors(const geom::Block& block,
                                        const SolveOptions& opt) {
  std::vector<Conductor> conductors = trace_conductors(block, opt);
  auto add_plane = [&](int plane_layer) {
    const double prho = block.tech().layer(plane_layer).rho;
    for (const peec::Bar& strip : plane_strips(block, plane_layer, opt.plane)) {
      Conductor c;
      c.filaments = mesh_conductor(strip, prho, opt);
      c.is_ground = true;
      conductors.push_back(std::move(c));
    }
  };
  const geom::PlaneConfig pc = block.planes();
  if (pc == geom::PlaneConfig::kBelow || pc == geom::PlaneConfig::kBothSides)
    add_plane(block.plane_layer_below());
  if (pc == geom::PlaneConfig::kAbove || pc == geom::PlaneConfig::kBothSides)
    add_plane(block.plane_layer_above());
  return conductors;
}

SolveStats solve_stats_total() {
  SolveStats s;
  s.dense_solves = g_dense_solves.load(std::memory_order_relaxed);
  s.max_filaments = g_max_filaments.load(std::memory_order_relaxed);
  return s;
}

std::size_t estimate_dense_solve_bytes(std::size_t filaments,
                                       std::size_t ports) {
  const std::size_t nf = filaments;
  // The real fill (released once Z is built), the complex Z factored in
  // place into its LDLᵀ, and the incidence block swept into L⁻¹P.
  return std::max<std::size_t>(peec::estimate_fill_bytes(nf) +
                                   nf * nf * sizeof(Complex) +
                                   nf * ports * sizeof(Complex),
                               1024);
}

std::size_t estimate_extract_bytes(const geom::Block& block,
                                   const SolveOptions& opt) {
  const std::vector<Conductor> conductors = block_conductors(block, opt);
  std::size_t nf = 0;
  for (const Conductor& c : conductors) nf += c.filaments.size();
  // extract_partial has a port per trace; extract_loop one per signal plus
  // the merged return, which only a plane can make the larger count.
  const std::size_t ports =
      block.size() + (block.planes() == geom::PlaneConfig::kNone ? 0 : 1);
  return estimate_dense_solve_bytes(nf, ports);
}

std::vector<peec::Bar> plane_strips(const geom::Block& block, int plane_layer,
                                    const PlaneOptions& opt) {
  if (opt.strips < 1)
    throw diag::UsageError("solver", "plane_strips: strip count must be >= 1, got " +
                                         std::to_string(opt.strips));
  const geom::Layer& player = block.tech().layer(plane_layer);
  const double h = block.tech().dielectric_gap(
      std::min(plane_layer, block.layer_index()),
      std::max(plane_layer, block.layer_index()));
  const double margin = std::max(opt.margin_factor * h, opt.min_margin);

  double x_lo = block.trace(0).x_left();
  double x_hi = block.trace(block.size() - 1).x_right();
  x_lo -= margin;
  x_hi += margin;

  const double pitch = (x_hi - x_lo) / opt.strips;
  std::vector<peec::Bar> strips;
  strips.reserve(static_cast<std::size_t>(opt.strips));
  for (int i = 0; i < opt.strips; ++i) {
    peec::Bar s;
    s.axis = peec::Axis::kY;
    s.a_min = 0.0;
    s.length = block.length();
    s.t_min = x_lo + i * pitch;
    s.t_width = pitch;
    s.z_min = player.z_bottom;
    s.z_thick = player.thickness;
    strips.push_back(s);
  }
  return strips;
}

PartialResult extract_partial(const geom::Block& block,
                              const SolveOptions& opt) {
  if (opt.frequency <= 0.0)
    throw diag::UsageError(
        "solver", "extract_partial: frequency must be positive, got " +
                      std::to_string(opt.frequency) + " Hz");
  // Partial-inductance extraction ignores planes by definition: the return
  // path is decided later by the circuit simulator (paper Section II.A).
  // Every trace is its own port.
  const std::vector<Conductor> conductors = trace_conductors(block, opt);
  std::vector<std::size_t> port(conductors.size());
  for (std::size_t c = 0; c < port.size(); ++c) port[c] = c;
  const ComplexMatrix z = port_impedance(
      conductor_admittance(conductors, port, port.size(), opt));
  const double omega = 2.0 * std::numbers::pi * opt.frequency;

  const std::size_t n = block.size();
  PartialResult res;
  res.inductance = RealMatrix(n, n);
  res.resistance.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.resistance[i] = z(i, i).real();
    for (std::size_t j = 0; j < n; ++j)
      res.inductance(i, j) = z(i, j).imag() / omega;
  }
  return res;
}

LoopResult extract_loop(const geom::Block& block, const SolveOptions& opt) {
  if (opt.frequency <= 0.0)
    throw diag::UsageError(
        "solver", "extract_loop: frequency must be positive, got " +
                      std::to_string(opt.frequency) + " Hz");
  const std::vector<Conductor> conductors = block_conductors(block, opt);

  std::vector<std::size_t> sig;
  std::size_t grounds = 0;
  for (std::size_t c = 0; c < conductors.size(); ++c) {
    if (conductors[c].is_ground)
      ++grounds;
    else
      sig.push_back(c);
  }
  if (sig.empty())
    throw diag::GeometryError(
        "solver", "extract_loop: the block has no signal traces (all " +
                      std::to_string(conductors.size()) +
                      " conductors are grounds/planes)");
  if (grounds == 0)
    throw diag::GeometryError(
        "solver",
        "extract_loop: no return path — the block needs ground traces or a "
        "plane (use extract_partial for bare coplanar signals)");

  // Every ground conductor (ground traces and plane strips) shares the
  // return drop V_G at the far-end sink node, which is exactly one merged
  // port: its incidence column is the union of theirs.  With I_G = -sum I_S
  // the loop impedance of the (ns+1)-port Z is z_ij - z_iG - z_Gj + z_GG
  // (DESIGN.md "Loop solver").
  const std::size_t ns = sig.size();
  std::vector<std::size_t> port(conductors.size(), ns);
  for (std::size_t i = 0; i < ns; ++i) port[sig[i]] = i;
  const ComplexMatrix zp =
      port_impedance(conductor_admittance(conductors, port, ns + 1, opt));
  ComplexMatrix zloop(ns, ns);
  for (std::size_t i = 0; i < ns; ++i)
    for (std::size_t j = 0; j < ns; ++j)
      zloop(i, j) = zp(i, j) - zp(i, ns) - zp(ns, j) + zp(ns, ns);

  const double omega = 2.0 * std::numbers::pi * opt.frequency;
  LoopResult res;
  res.inductance = RealMatrix(ns, ns);
  res.resistance = RealMatrix(ns, ns);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      res.inductance(i, j) = zloop(i, j).imag() / omega;
      res.resistance(i, j) = zloop(i, j).real();
    }
    res.signal_traces.push_back(conductors[sig[i]].block_trace);
  }
  return res;
}

}  // namespace rlcx::solver
