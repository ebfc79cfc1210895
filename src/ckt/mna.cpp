#include "ckt/mna.h"

#include <utility>

namespace rlcx::ckt {

Mna::Mna(const Netlist& netlist)
    : nl_(netlist),
      vsrc0_(static_cast<std::size_t>(netlist.node_count() - 1)),
      ind0_(vsrc0_ + netlist.vsources().size()),
      dim_(ind0_ + netlist.inductors().size()) {}

void Mna::stamp_pair(NodeId a, NodeId b, double g,
                     std::vector<numeric::Triplet>& out) const {
  if (a != kGround) out.push_back({node_row(a), node_row(a), g});
  if (b != kGround) out.push_back({node_row(b), node_row(b), g});
  if (a != kGround && b != kGround) {
    out.push_back({node_row(a), node_row(b), -g});
    out.push_back({node_row(b), node_row(a), -g});
  }
}

void Mna::stamp_branch(NodeId a, NodeId b, std::size_t row,
                       std::vector<numeric::Triplet>& out) const {
  if (a != kGround) {
    out.push_back({node_row(a), row, 1.0});  // KCL: current leaves node a
    out.push_back({row, node_row(a), 1.0});  // branch voltage v_a - v_b
  }
  if (b != kGround) {
    out.push_back({node_row(b), row, -1.0});
    out.push_back({row, node_row(b), -1.0});
  }
}

void Mna::stamp_g(std::vector<numeric::Triplet>& out) const {
  for (NodeId n = 1; n < nl_.node_count(); ++n)
    out.push_back({node_row(n), node_row(n), kGmin});
  for (const Resistor& r : nl_.resistors())
    stamp_pair(r.a, r.b, 1.0 / r.ohms, out);
  for (std::size_t k = 0; k < nl_.vsources().size(); ++k)
    stamp_branch(nl_.vsources()[k].a, nl_.vsources()[k].b, vsource_row(k),
                 out);
  for (std::size_t j = 0; j < nl_.inductors().size(); ++j)
    stamp_branch(nl_.inductors()[j].a, nl_.inductors()[j].b, inductor_row(j),
                 out);
}

void Mna::stamp_c(double scale, std::vector<numeric::Triplet>& out) const {
  for (const Capacitor& c : nl_.capacitors())
    stamp_pair(c.a, c.b, scale * c.farads, out);
  const numeric::CscMatrix l = inductance();
  for (std::size_t j = 0; j < l.dim(); ++j)
    for (std::size_t p = l.col_ptr()[j]; p < l.col_ptr()[j + 1]; ++p)
      out.push_back({inductor_row(l.row_idx()[p]), inductor_row(j),
                     -scale * l.values()[p]});
}

numeric::CscMatrix Mna::inductance() const {
  std::vector<numeric::Triplet> t;
  for (std::size_t j = 0; j < nl_.inductors().size(); ++j)
    t.push_back({j, j, nl_.inductors()[j].henries});
  for (const MutualInductance& m : nl_.mutuals()) {
    t.push_back({m.l1, m.l2, m.henries});
    t.push_back({m.l2, m.l1, m.henries});
  }
  return numeric::CscMatrix::from_triplets(nl_.inductors().size(), t);
}

numeric::CscMatrix Mna::g_matrix() const {
  std::vector<numeric::Triplet> t;
  stamp_g(t);
  return numeric::CscMatrix::from_triplets(dim_, t);
}

std::vector<std::vector<double>> Mna::dc_points(
    std::span<const double> times) const {
  std::vector<numeric::Triplet> t;
  stamp_g(t);
  for (std::size_t j = 0; j < nl_.inductors().size(); ++j)
    t.push_back({inductor_row(j), inductor_row(j), -1e-9});
  numeric::SparseLu lu(numeric::CscMatrix::from_triplets(dim_, t));
  std::vector<std::vector<double>> out;
  for (const double time : times) {
    std::vector<double> x(dim_, 0.0);
    for (std::size_t k = 0; k < nl_.vsources().size(); ++k)
      x[vsource_row(k)] = nl_.vsources()[k].waveform.eval(time);
    lu.solve(x);
    out.push_back(std::move(x));
  }
  return out;
}

}  // namespace rlcx::ckt
