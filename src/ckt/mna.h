// Modified nodal analysis of a linear RLC(K) netlist, as triplets.
//
// Unknowns: node voltages 1..N-1 (ground is eliminated), then one branch
// current per voltage source, then one per inductor.  The DC operating
// point and the moment recursion factor some  A = G + s C  over this layout
// (AC analysis densifies it at s = jw, ckt/ac.cpp):
//   G — Gmin from every node to ground, resistor conductances, and the
//       +-1 incidence of voltage-source and inductor branches (an inductor
//       row reads v_a - v_b, a short at DC);
//   C — capacitances into node rows and -L (self and mutual) into the
//       inductor rows, so that an inductor row reads v_a - v_b - s L i.
// The DC operating point uses s = 0, the moment recursion G and C
// separately.  The transient marches the same system at s = 2/dt with
// every inductor row and private R-L mid node condensed out
// (ckt/companion.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ckt/netlist.h"
#include "numeric/sparse_lu.h"

namespace rlcx::ckt {

/// Tiny conductance from every node to ground, so nodes that connect only
/// through capacitors (sink loads) keep G regular.
inline constexpr double kGmin = 1e-12;

class Mna {
 public:
  explicit Mna(const Netlist& netlist);

  std::size_t dim() const { return dim_; }
  std::size_t node_row(NodeId n) const {
    return static_cast<std::size_t>(n - 1);
  }
  std::size_t vsource_row(std::size_t k) const { return vsrc0_ + k; }
  std::size_t inductor_row(std::size_t j) const { return ind0_ + j; }

  /// Appends G.
  void stamp_g(std::vector<numeric::Triplet>& out) const;
  /// Appends scale * C.
  void stamp_c(double scale, std::vector<numeric::Triplet>& out) const;

  /// Inductance matrix over the inductor branches: self L on the diagonal,
  /// summed mutual M off it.  Symmetric, so column j lists inductor j's
  /// couplings.
  numeric::CscMatrix inductance() const;

  /// The assembled G.
  numeric::CscMatrix g_matrix() const;

  /// DC operating points in this layout — capacitors open, inductors
  /// shorted, every source at its value at each of `times` — from one
  /// factorisation of G.  A -1e-9 ohm series term on every inductor row
  /// keeps G regular when inductors close a loop (a short circuit at DC).
  std::vector<std::vector<double>> dc_points(
      std::span<const double> times) const;

 private:
  void stamp_pair(NodeId a, NodeId b, double g,
                  std::vector<numeric::Triplet>& out) const;
  void stamp_branch(NodeId a, NodeId b, std::size_t row,
                    std::vector<numeric::Triplet>& out) const;

  const Netlist& nl_;
  std::size_t vsrc0_, ind0_, dim_;
};

}  // namespace rlcx::ckt
