#include "ckt/moments.h"

#include <cmath>
#include <stdexcept>

#include "ckt/mna.h"
#include "numeric/sparse_lu.h"

namespace rlcx::ckt {

std::vector<std::vector<double>> transfer_moments(const Netlist& nl,
                                                  int order,
                                                  std::size_t active_source) {
  if (order < 0) throw std::invalid_argument("transfer_moments: order");
  if (active_source >= nl.vsources().size())
    throw std::out_of_range("transfer_moments: source index");

  // G (inductors shorted at DC) is factored once; C carries the
  // capacitances and -L.
  const Mna mna(nl);
  numeric::SparseLu lu(mna.g_matrix());
  std::vector<numeric::Triplet> c;
  mna.stamp_c(1.0, c);
  const numeric::CscMatrix cm =
      numeric::CscMatrix::from_triplets(mna.dim(), c);

  std::vector<double> x(mna.dim(), 0.0);
  x[mna.vsource_row(active_source)] = 1.0;
  lu.solve(x);

  std::vector<std::vector<double>> moments;
  auto collect = [&](const std::vector<double>& xs) {
    std::vector<double> row(static_cast<std::size_t>(nl.node_count()), 0.0);
    for (NodeId n = 1; n < nl.node_count(); ++n)
      row[static_cast<std::size_t>(n)] = xs[mna.node_row(n)];
    return row;
  };
  moments.push_back(collect(x));
  for (int k = 1; k <= order; ++k) {
    x = cm.multiply(x);
    for (double& v : x) v = -v;
    lu.solve(x);
    moments.push_back(collect(x));
  }
  return moments;
}

double elmore_delay(const Netlist& nl, NodeId node,
                    std::size_t active_source) {
  const auto m = transfer_moments(nl, 1, active_source);
  const double m0 = m[0][static_cast<std::size_t>(node)];
  if (std::abs(m0 - 1.0) > 1e-6)
    throw std::runtime_error(
        "elmore_delay: node is not DC-connected to the source (m0 != 1)");
  return -m[1][static_cast<std::size_t>(node)];
}

double d2m_delay(const Netlist& nl, NodeId node, std::size_t active_source) {
  const auto m = transfer_moments(nl, 2, active_source);
  const double m1 = m[1][static_cast<std::size_t>(node)];
  const double m2 = m[2][static_cast<std::size_t>(node)];
  if (m2 <= 0.0)
    throw std::runtime_error(
        "d2m_delay: m2 <= 0 (response too inductive for the metric)");
  return std::log(2.0) * m1 * m1 / std::sqrt(m2);
}

}  // namespace rlcx::ckt
