// Clock skew analysis: simulate the tree and measure per-sink 50% delays,
// with and without inductance (the paper's Section V experiment: ignoring L
// changes the skew picture by more than 10% and misses ringing entirely).
#pragma once

#include <vector>

#include "ckt/transient.h"
#include "clocktree/tree_netlist.h"

namespace rlcx::clocktree {

struct SkewResult {
  std::vector<double> sink_delays;  ///< buffer output -> sink, 50% [s]
  /// Absolute 50% arrival time per sink [s] — the clock latency metric;
  /// unlike the buffer-relative delay it stays meaningful when the buffer
  /// output itself rings around the threshold.
  std::vector<double> sink_arrivals;
  double skew = 0.0;                ///< max - min sink delay [s]
  double min_delay = 0.0;
  double max_delay = 0.0;
  double max_arrival = 0.0;         ///< worst-case clock latency [s]
  double max_overshoot = 0.0;       ///< worst overshoot across sinks [V]
  double max_undershoot = 0.0;      ///< worst undershoot across sinks [V]

  bool operator==(const SkewResult&) const = default;
};

struct AnalysisOptions {
  core::LadderOptions ladder;
  double t_stop = 0.0;  ///< 0 -> auto (a few flight+RC times)
  double dt = 0.0;      ///< 0 -> auto (rise time / 50)
};

/// What analyze_skew reads from the tree's transient: the 50 % crossing
/// of the driver output and of every sink, and every sink's max (floored
/// at vdd: the overshoot) and min (capped at 0: the undershoot).
/// Registered with the transient, it lets the march stop once they are
/// final.
ckt::MeasureSet skew_measures(const TreeNetlist& tree, double vdd);

/// Skew of the tree whose segments are already extracted
/// (extract_tree_segments of the same spec).
SkewResult analyze_skew(const HTreeSpec& spec, const TreeSegments& segments,
                        const AnalysisOptions& options);

/// Extract, then analyze.
SkewResult analyze_skew(const geom::Technology& tech, const HTreeSpec& spec,
                        const core::InductanceLibrary& inductance,
                        const AnalysisOptions& options);

/// Convenience: the same tree analyzed with the full RLC netlist and with
/// the RC-only netlist, for side-by-side comparison.  The tree is extracted
/// once; both netlists are built from that one extraction.
struct RcVsRlc {
  SkewResult rlc;
  SkewResult rc;

  bool operator==(const RcVsRlc&) const = default;
};

RcVsRlc compare_rc_rlc(const geom::Technology& tech, const HTreeSpec& spec,
                       const core::InductanceLibrary& inductance,
                       AnalysisOptions options);

}  // namespace rlcx::clocktree
