#include "solver/network.h"

#include <numbers>
#include <stdexcept>

#include "diag/error.h"
#include "numeric/ldlt.h"
#include "solver/block_solver.h"

namespace rlcx::solver {

using Complex = std::complex<double>;

int Network::add_node() {
  merged_into_.push_back(node_count_);
  return node_count_++;
}

int Network::canonical(int node) const {
  if (node < 0 || node >= node_count_)
    throw std::out_of_range("network: bad node id");
  while (merged_into_[static_cast<std::size_t>(node)] != node)
    node = merged_into_[static_cast<std::size_t>(node)];
  return node;
}

void Network::tie(int a, int b) {
  const int ca = canonical(a);
  const int cb = canonical(b);
  if (ca != cb) merged_into_[static_cast<std::size_t>(std::max(ca, cb))] =
      std::min(ca, cb);
}

void Network::add_segment(int from, int to, const peec::Bar& bar, double rho,
                          const peec::MeshOptions& mesh, bool from_is_min) {
  canonical(from);  // validate ids
  canonical(to);
  if (from == to) throw std::invalid_argument("network: segment self-loop");
  Segment seg;
  seg.from = from;
  seg.to = to;
  const double sign = from_is_min ? 1.0 : -1.0;
  for (const peec::Bar& f : peec::mesh_cross_section(bar, mesh))
    seg.filaments.push_back({f, sign, peec::bar_resistance(f, rho)});
  segments_.push_back(std::move(seg));
}

std::size_t Network::filament_count() const {
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.filaments.size();
  return n;
}

std::vector<Network::Branch> Network::branches() const {
  if (segments_.empty()) throw std::logic_error("network: no segments");
  std::vector<Branch> out;
  for (const Segment& s : segments_) {
    const int cf = canonical(s.from);
    const int ct = canonical(s.to);
    if (cf == ct)
      throw std::logic_error("network: segment endpoints were tied together");
    for (const peec::Filament& f : s.filaments) out.push_back({f, cf, ct});
  }
  return out;
}

ComplexMatrix Network::port_impedance(
    const std::vector<std::pair<int, int>>& ports, double frequency,
    const peec::PartialOptions& popt) const {
  if (ports.empty()) throw std::invalid_argument("network: no ports");
  if (frequency <= 0.0) throw std::invalid_argument("network: frequency");
  for (const auto& p : ports)
    if (canonical(p.first) == canonical(p.second))
      throw std::invalid_argument("network: degenerate port");
  const std::vector<Branch> bs = branches();

  // Row of each canonical node in Y; the first port's negative terminal
  // is the reference and has none.
  const int ref = canonical(ports[0].second);
  std::vector<int> row(static_cast<std::size_t>(node_count_), -1);
  std::size_t nv = 0;
  for (int n = 0; n < node_count_; ++n)
    if (canonical(n) == n && n != ref)
      row[static_cast<std::size_t>(n)] = static_cast<int>(nv++);
  // Signed incidence of a current from `from` to `to`: +1 on the row of
  // the node it leaves, -1 on the row of the node it enters.
  const auto stamp = [&](int from, int to, auto&& put) {
    if (const int r = row[static_cast<std::size_t>(from)]; r >= 0)
      put(static_cast<std::size_t>(r), 1.0);
    if (const int r = row[static_cast<std::size_t>(to)]; r >= 0)
      put(static_cast<std::size_t>(r), -1.0);
  };

  // Y = A Z⁻¹ Aᵀ, with Aᵀ (filaments x nodes) as the reduction's incidence.
  std::vector<peec::Filament> fils;
  ComplexMatrix at(bs.size(), nv);
  for (std::size_t f = 0; f < bs.size(); ++f) {
    fils.push_back(bs[f].filament);
    stamp(bs[f].from, bs[f].to,
          [&](std::size_t r, double v) { at(f, r) = v; });
  }
  SolveOptions opt;
  opt.frequency = frequency;
  opt.partial = popt;
  ComplexMatrix y = port_admittance(fils, std::move(at), opt);

  // Z_ports = Qᵀ Y⁻¹ Q.
  ComplexMatrix q(nv, ports.size());
  for (std::size_t k = 0; k < ports.size(); ++k)
    stamp(canonical(ports[k].first), canonical(ports[k].second),
          [&](std::size_t r, double v) { q(r, k) = v; });
  try {
    return ComplexSymmetricLdlt(std::move(y)).reduce(std::move(q));
  } catch (const diag::SingularSystem& e) {
    throw diag::SingularSystem(
        "network", "node admittance matrix (is every node connected to "
                   "the reference?): " + e.message(),
        e.column(), e.dimension(), e.condition_estimate());
  }
}

Network::LoopZ Network::loop_impedance(int positive, int negative,
                                       double frequency,
                                       const peec::PartialOptions& popt) const {
  const ComplexMatrix z = port_impedance({{positive, negative}}, frequency,
                                         popt);
  const double omega = 2.0 * std::numbers::pi * frequency;
  return {z(0, 0).imag() / omega, z(0, 0).real()};
}

}  // namespace rlcx::solver
