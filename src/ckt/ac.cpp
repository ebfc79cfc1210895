#include "ckt/ac.h"

#include <numbers>
#include <stdexcept>

#include "ckt/mna.h"
#include "numeric/lu.h"
#include "numeric/matrix.h"

namespace rlcx::ckt {

namespace {

using Complex = std::complex<double>;

/// Assemble and solve the complex MNA system A = G + jwC for one
/// excitation.  `vsource_amplitudes` has one entry per voltage source;
/// `inject` adds a 1 A current source between two nodes (pass {-1,-1} for
/// none).
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
  ComplexMatrix a(dim, dim);
  for (const numeric::Triplet& t : g) a(t.row, t.col) += t.value;
  for (const numeric::Triplet& t : c)
    a(t.row, t.col) += Complex(0.0, t.value);

  std::vector<Complex> rhs(dim, Complex(0.0, 0.0));
  for (std::size_t k = 0;
       k < nl.vsources().size() && k < vsource_amplitudes.size(); ++k)
    rhs[mna.vsource_row(k)] = vsource_amplitudes[k];
  if (inject.first >= 0) {
    if (inject.first != kGround) rhs[mna.node_row(inject.first)] += 1.0;
    if (inject.second != kGround) rhs[mna.node_row(inject.second)] -= 1.0;
  }

  LuDecomposition<Complex> lu(std::move(a));
  const std::vector<Complex> x = lu.solve(rhs);

  std::vector<Complex> node_v(static_cast<std::size_t>(nl.node_count()),
                              Complex(0.0, 0.0));
  for (NodeId n = 1; n < nl.node_count(); ++n)
    node_v[static_cast<std::size_t>(n)] = x[mna.node_row(n)];
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
