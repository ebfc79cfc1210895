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
// BENCH_transient.json has the sizes and times on CPW H-trees.  A caller
// that registers the measures it reads (MeasureSet) lets the march stop
// once they are provably final.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "ckt/netlist.h"
#include "ckt/waveform.h"

namespace rlcx::ckt {

/// What a caller reads from a transient.  Registered in
/// TransientOptions::measures, it lets simulate() stop the march at the
/// first checked step where an energy certificate proves that no later
/// step can move any of them (docs/performance.md, "Stopping the march
/// once the measures are final"); the waveforms then end at that step.
struct MeasureSet {
  /// Waveform::first_rise_through(level) of `node`.
  struct Crossing {
    NodeId node;
    double level;  ///< [V]
  };
  /// max(floor, Waveform::max()) and min(cap, Waveform::min()) of `node`.
  struct Extremes {
    NodeId node;
    double floor;  ///< [V]
    double cap;    ///< [V]
  };
  std::vector<Crossing> crossings;
  std::vector<Extremes> extremes;

  bool empty() const { return crossings.empty() && extremes.empty(); }
};

/// Slack the certificate adds to the energy bound on a watched node's
/// future excursion, per volt of the largest DC node voltage (at least
/// 1 V).  It is absolute, not relative to the energy: it covers the
/// rounding of the rest of the march, where the deviation energy sits at
/// its floating-point floor and no longer falls monotonically
/// (docs/performance.md).
inline constexpr double kCertificateSlack = 1e-12;

/// A registered march is checked every this many steps.
inline constexpr std::size_t kCertificateInterval = 32;

struct TransientOptions {
  double t_stop = 0.0;  ///< [s]
  double dt = 0.0;      ///< fixed timestep [s]

  /// Divergence guard: any node voltage that leaves [-limit, +limit] — or
  /// goes NaN/Inf — halts the march with a `numeric` error naming the step
  /// and node.  On-chip signals live within a few supply rails; 1 kV is far
  /// beyond any legitimate transient of this circuit class while still
  /// leaving room for ringing overshoot.  Set to 0 to disable the guard.
  double divergence_limit = 1e3;  ///< [V]

  /// Empty: march to t_stop.  Otherwise the march may stop as soon as
  /// these measures are certified final; a periodic source always marches
  /// to t_stop.
  MeasureSet measures;
};

class TransientResult {
 public:
  /// An empty result with room for `capacity` steps of `nodes` voltages,
  /// allocated but not written: append_row() grows it one step at a time.
  TransientResult(double dt, std::size_t capacity, int nodes);

  double dt() const { return dt_; }
  /// Steps written: t_stop / dt + 1 for a full march, fewer when a
  /// registered measure set stopped it.
  std::size_t steps() const { return steps_; }

  /// Voltage waveform of a node (node 0 returns the all-zero ground).
  Waveform waveform(NodeId n) const;
  double voltage(NodeId n, std::size_t step) const;

  /// Appends the next step, zeroed, and returns its voltages indexed by
  /// NodeId (entry 0 is ground): the march writes a step in one pass.
  std::span<double> append_row();
  /// One written step's voltages, indexed by NodeId.
  std::span<const double> row(std::size_t step) const;

 private:
  std::size_t index(NodeId n, std::size_t step) const;

  double dt_;
  std::size_t nodes_, capacity_, steps_ = 0;
  // Step-major, so the march writes each step's node voltages contiguously.
  // One block rather than one row per step: glibc trimmed the thousands of
  // freed rows back to the OS after every simulate, and the next one (a
  // daemon request, a skew pass) faulted them all in again.  Allocated
  // for the whole march but left unwritten until append_row() zeroes a
  // row, so a march that stops early never touches the rest.
  std::unique_ptr<double[]> samples_;  // [step * nodes_ + node]
};

/// Run a transient analysis.  The initial state is the DC operating point at
/// t = 0 (capacitors open, inductors shorted, sources at their t=0 value).
/// The result block of the full march (steps x nodes doubles) is reserved
/// against the memory budget first, registered measures or not: one it
/// cannot fit is refused with diag::ResourceExhaustedError at stage
/// "transient".
TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options);

}  // namespace rlcx::ckt
