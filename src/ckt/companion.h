// The condensed nodal trapezoidal system that ckt::simulate factors and
// marches.
//
// The MNA layout (ckt/mna.h) gives every ladder section three unknowns per
// trace: a chain node, a private R-L mid node and an inductor-current row.
// Here the internal unknowns of every inductor group — a connected
// component of the mutual graph, 3 coupled branches on a CPW section — are
// eliminated once per simulate by block Gaussian elimination:
//
//   * every inductor-current row goes;
//   * the inductor's `a` node goes too when it is private: exactly one
//     resistor and this inductor touch it, and the resistor's far end is
//     not itself such a node (core::stamp_segment builds its sections this
//     way).  Call that far end the branch's drive node p; an inductor
//     without a private resistor drives from its own `a` with R = 0.
//
// With alpha = 1 / (1 + R Gmin) the Gmin shunt of the eliminated mid node
// is kept exactly, so the condensed system is algebraically identical to
// the MNA one:
//
//   Y   = (diag(alpha R) + (2/dt) L)^-1     per group, k x k
//   i   = Y (alpha v_p - v_b - hist)        the group's branch currents
//   v_m = alpha (v_p - R i)                 the eliminated mid voltage
//
// and the drive node's row gets alpha Gmin (= (1 - alpha) / R) on its
// diagonal.  The group stamps B^T Y B with B = diag(alpha) A_p - A_b (A_p,
// A_b: the branches' incidence on their drive and b nodes), a dense block
// over its terminals.  Voltage sources keep their MNA rows.
// Unknowns: the kept nodes in node order, then one current per voltage
// source — so an RC netlist is exactly its MNA system.
#pragma once

#include <cstddef>
#include <vector>

#include "ckt/mna.h"
#include "ckt/netlist.h"
#include "numeric/sparse_lu.h"

namespace rlcx::ckt {

class CompanionSystem {
 public:
  /// Classifies and condenses the netlist of `mna` for the fixed step `dt`,
  /// keeping that netlist's address (the Mna itself is not kept).  Throws
  /// diag::SingularSystem, naming an inductor, when a group's
  /// diag(alpha R) + (2/dt) L block has an exactly zero or non-finite pivot
  /// (a singular L with no series R).
  CompanionSystem(const Mna& mna, double dt);

  /// Unknowns of the condensed system.
  std::size_t dim() const { return dim_; }
  /// The system matrix: constant for the fixed dt, factored once.
  const numeric::CscMatrix& matrix() const { return matrix_; }

  /// Loads the companion state from the DC operating point `x0`, laid out
  /// as `mna` (the one the system was built from).
  void start(const Mna& mna, const std::vector<double>& x0);

  /// Right-hand side of the step ending at time t into `rhs`, which has
  /// dim() + 1 entries: the last one absorbs stamps on ground.  `prev` is
  /// the previous step's node row.
  void load(double t, const double* prev, double* rhs);

  /// From the solved unknowns `x`, writes every node voltage of the step
  /// into `row` — reconstructed mid nodes included — and advances the
  /// inductor history.  False when some node voltage is not finite or
  /// |v| > bound: the divergence guard, over every node in the same pass.
  /// With `keep_currents` the step's branch currents are kept for
  /// deviation_energy().
  bool advance(const double* x, double* row, double bound,
               bool keep_currents);

  /// Whether every coupled group's inductance block is positive definite.
  /// R and C are positive by construction, so then every term of
  /// deviation_energy() is non-negative; an indefinite L (legal pairwise
  /// couplings that sum to a non-physical matrix) breaks that.
  bool passive() const;

  /// Sets the DC point, laid out as `mna`, that deviation_energy()
  /// measures from.
  void set_reference(const Mna& mna, const std::vector<double>& xdc);

  /// Energy stored in the deviation from the reference point at the step
  /// whose node row is `row`, which advance() wrote with keep_currents:
  /// 1/2 sum C (dv)^2 over the capacitors plus 1/2 di^T L di over the
  /// inductor currents of every coupled group [J].
  double deviation_energy(const double* row) const;

 private:
  struct CapCompanion {
    NodeId a, b;
    std::size_t ra, rb;  // rhs rows (dim_ for ground)
    double geq;          // 2 C / dt
    double ieq;          // trapezoidal history source
  };
  struct Branch {
    std::size_t inductor;  // netlist index
    NodeId p, b, m;        // drive node, b node, condensed mid (kGround: none)
    std::size_t rp, rb;    // rhs rows of p and b
    double alpha, ohms;
  };

  const Netlist& nl_;
  double dt_;
  std::size_t dim_ = 0;
  numeric::CscMatrix matrix_;

  // Kept nodes: node kept_[k] is unknown k.
  std::vector<NodeId> kept_;
  std::vector<CapCompanion> caps_;
  // Voltage sources: their rows follow the kept nodes.
  std::size_t vsrc0_ = 0;
  // Inductor branches, grouped: group g owns branches
  // [group_ptr_[g], group_ptr_[g + 1]) and its k x k row-major Y and Q
  // blocks start at block_ptr_[g].
  std::vector<std::size_t> group_ptr_, block_ptr_;
  std::vector<Branch> branches_;
  // Per group: Y, Q and the inductance L [H].
  std::vector<double> y_, q_, l_;
  // State per branch: the history current J = Y * hist; scratch for the
  // step's u and i.
  std::vector<double> yh_, scratch_;
  // The energy certificate's view: branch currents of the last step
  // advanced with keep_currents, and the reference point's branch
  // currents and capacitor voltages.
  std::vector<double> cur_, ref_cur_, ref_cap_;
};

}  // namespace rlcx::ckt
