// Transient simulation of linear RLC(K) netlists with trapezoidal
// integration, the same numerical core SPICE applies to this circuit class.
//
// simulate() factors and marches the condensed nodal system of
// ckt/companion.h: every coupled R-L section's inductor currents and private
// mid nodes are eliminated once, so the march solves for the ladder's chain
// nodes and the voltage-source currents only — algebraically the MNA system
// of ckt/mna.h, which still gives the DC operating point.  The system is
// constant for a fixed timestep, so it is factored once (sparse LU in a
// minimum-degree order, numeric/sparse_lu.h) and every step is one
// O(nnz(L+U)) solve plus an O(k^2) history update per k-branch group.
// BENCH_transient.json has the sizes and times on CPW H-trees.
#pragma once

#include <span>
#include <vector>

#include "ckt/netlist.h"
#include "ckt/waveform.h"

namespace rlcx::ckt {

struct TransientOptions {
  double t_stop = 0.0;  ///< [s]
  double dt = 0.0;      ///< fixed timestep [s]

  /// Divergence guard: any node voltage that leaves [-limit, +limit] — or
  /// goes NaN/Inf — halts the march with a `numeric` error naming the step
  /// and node.  On-chip signals live within a few supply rails; 1 kV is far
  /// beyond any legitimate transient of this circuit class while still
  /// leaving room for ringing overshoot.  Set to 0 to disable the guard.
  double divergence_limit = 1e3;  ///< [V]
};

class TransientResult {
 public:
  TransientResult(double dt, std::size_t steps, int nodes);

  double dt() const { return dt_; }
  std::size_t steps() const { return steps_; }

  /// Voltage waveform of a node (node 0 returns the all-zero ground).
  Waveform waveform(NodeId n) const;
  double voltage(NodeId n, std::size_t step) const;

  void set_voltage(NodeId n, std::size_t step, double v);
  /// Every node's voltage at one step, indexed by NodeId (entry 0 is
  /// ground): the march writes a step in one pass through it.
  std::span<double> row(std::size_t step);

 private:
  std::size_t index(NodeId n, std::size_t step) const;

  double dt_;
  std::size_t steps_;
  std::size_t nodes_;
  // Step-major, so the march writes each step's node voltages contiguously.
  // One block rather than one row per step: glibc trimmed the thousands of
  // freed rows back to the OS after every simulate, and the next one (a
  // daemon request, a skew pass) faulted them all in again.
  std::vector<double> samples_;  // [step * nodes_ + node]
};

/// Run a transient analysis.  The initial state is the DC operating point at
/// t = 0 (capacitors open, inductors shorted, sources at their t=0 value).
/// The result block (steps x nodes doubles) is reserved against the memory
/// budget first: one it cannot fit is refused with
/// diag::ResourceExhaustedError at stage "transient".
TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options);

}  // namespace rlcx::ckt
