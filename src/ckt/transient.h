// Transient simulation of linear RLC netlists: MNA with trapezoidal
// integration, the same numerical core SPICE applies to this circuit class.
//
// The system matrix G + (2/dt) C (ckt/mna.h) is constant for a fixed
// timestep, so it is factored once — sparse LU in a minimum-degree order
// (numeric/sparse_lu.h) — and every step is one O(nnz(L+U)) solve plus an
// O(couplings) inductor-history update.  On one Intel Xeon core with CPW
// H-trees and 4-section ladders (BENCH_transient.json, ~1170 steps), a
// 16-sink RLC tree (MNA dim 1057) simulates in ~35 ms, 128 sinks (dim
// 8673) in ~0.3 s and 512 sinks (dim 34785) in ~1.3 s.
#pragma once

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
TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options);

}  // namespace rlcx::ckt
