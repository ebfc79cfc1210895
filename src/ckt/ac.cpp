#include "ckt/ac.h"

#include <numbers>
#include <stdexcept>

#include "ckt/mna.h"
#include "numeric/sparse_lu.h"

namespace rlcx::ckt {

namespace {

using Complex = std::complex<double>;

/// Assemble and solve the complex MNA system (G + jwC) x = b for one
/// excitation.  `vsource_amplitudes` has one entry per voltage source;
/// `inject` adds a 1 A current source between two nodes (pass {-1,-1} for
/// none).  The system goes through the transient's sparse factor as its
/// real 2n-equivalent
///
///   [ G  -wC ] [x_r]   [b_r]
///   [ wC   G ] [x_i] = [b_i],
///
/// whose work and memory follow the nonzeros of G and C, not n^2.  Every
/// excitation here is real, so b_i = 0.
std::vector<Complex> solve_mna(const Netlist& nl, double frequency,
                               const std::vector<double>& vsource_amplitudes,
                               std::pair<NodeId, NodeId> inject) {
  if (frequency <= 0.0) throw std::invalid_argument("ac: frequency");
  const Mna mna(nl);
  const std::size_t dim = mna.dim();
  if (dim == 0) throw std::invalid_argument("ac: empty netlist");

  std::vector<numeric::Triplet> g, c;
  mna.stamp_g(g);
  mna.stamp_c(2.0 * std::numbers::pi * frequency, c);
  std::vector<numeric::Triplet> a;
  a.reserve(2 * (g.size() + c.size()));
  for (const numeric::Triplet& t : g) {
    a.push_back(t);
    a.push_back({dim + t.row, dim + t.col, t.value});
  }
  for (const numeric::Triplet& t : c) {
    a.push_back({t.row, dim + t.col, -t.value});
    a.push_back({dim + t.row, t.col, t.value});
  }
  numeric::SparseLu lu(numeric::CscMatrix::from_triplets(2 * dim, a));

  std::vector<double> x(2 * dim, 0.0);
  for (std::size_t k = 0;
       k < nl.vsources().size() && k < vsource_amplitudes.size(); ++k)
    x[mna.vsource_row(k)] = vsource_amplitudes[k];
  if (inject.first >= 0) {
    if (inject.first != kGround) x[mna.node_row(inject.first)] += 1.0;
    if (inject.second != kGround) x[mna.node_row(inject.second)] -= 1.0;
  }
  lu.solve(x);

  std::vector<Complex> node_v(static_cast<std::size_t>(nl.node_count()),
                              Complex(0.0, 0.0));
  for (NodeId n = 1; n < nl.node_count(); ++n)
    node_v[static_cast<std::size_t>(n)] =
        Complex(x[mna.node_row(n)], x[dim + mna.node_row(n)]);
  return node_v;
}

}  // namespace

std::vector<Complex> ac_solve(const Netlist& nl, double frequency,
                              std::size_t active_source) {
  if (active_source >= nl.vsources().size())
    throw std::out_of_range("ac_solve: source index");
  std::vector<double> amps(nl.vsources().size(), 0.0);
  amps[active_source] = 1.0;
  return solve_mna(nl, frequency, amps, {-1, -1});
}

Complex ac_transfer(const Netlist& nl, double frequency, NodeId out,
                    std::size_t active_source) {
  const auto v = ac_solve(nl, frequency, active_source);
  return v.at(static_cast<std::size_t>(out));
}

Complex ac_input_impedance(const Netlist& nl, double frequency,
                           NodeId positive, NodeId negative) {
  const std::vector<double> amps(nl.vsources().size(), 0.0);
  const auto v = solve_mna(nl, frequency, amps, {positive, negative});
  return v.at(static_cast<std::size_t>(positive)) -
         v.at(static_cast<std::size_t>(negative));
}

}  // namespace rlcx::ckt
