#include "clocktree/skew.h"

#include <algorithm>
#include <stdexcept>

namespace rlcx::clocktree {

ckt::MeasureSet skew_measures(const TreeNetlist& tree, double vdd) {
  ckt::MeasureSet m;
  m.crossings.push_back({tree.driver_out, 0.5 * vdd});
  for (const ckt::NodeId sink : tree.sinks) {
    m.crossings.push_back({sink, 0.5 * vdd});
    m.extremes.push_back({sink, vdd, 0.0});
  }
  return m;
}

SkewResult analyze_skew(const HTreeSpec& spec, const TreeSegments& segments,
                        const AnalysisOptions& options) {
  const TreeNetlist tree = build_tree_netlist(spec, segments, options.ladder);

  ckt::TransientOptions topt;
  topt.measures = skew_measures(tree, spec.driver.vdd);
  topt.dt = options.dt > 0.0 ? options.dt : spec.driver.t_rise / 50.0;
  if (options.t_stop > 0.0) {
    topt.t_stop = options.t_stop;
  } else {
    // Heuristic horizon: rise time plus several times the total wire RC and
    // time of flight.
    topt.t_stop = spec.driver.t_rise * 10.0 + 2e-9;
  }

  const ckt::TransientResult res = ckt::simulate(tree.netlist, topt);
  const ckt::Waveform ref = res.waveform(tree.driver_out);

  SkewResult out;
  for (const ckt::NodeId sink : tree.sinks) {
    const ckt::Waveform w = res.waveform(sink);
    out.sink_delays.push_back(ckt::delay_50(ref, w, spec.driver.vdd));
    const auto arrival = w.first_rise_through(0.5 * spec.driver.vdd);
    if (!arrival)
      throw std::runtime_error("analyze_skew: sink never reaches 50%");
    out.sink_arrivals.push_back(*arrival);
    out.max_arrival = std::max(out.max_arrival, *arrival);
    out.max_overshoot = std::max(out.max_overshoot,
                                 w.max() - spec.driver.vdd);
    out.max_undershoot = std::max(out.max_undershoot, w.undershoot());
  }
  out.max_overshoot = std::max(out.max_overshoot, 0.0);
  const auto [lo, hi] =
      std::minmax_element(out.sink_delays.begin(), out.sink_delays.end());
  out.min_delay = *lo;
  out.max_delay = *hi;
  out.skew = *hi - *lo;
  return out;
}

SkewResult analyze_skew(const geom::Technology& tech, const HTreeSpec& spec,
                        const core::InductanceLibrary& inductance,
                        const AnalysisOptions& options) {
  return analyze_skew(spec, extract_tree_segments(tech, spec, inductance),
                      options);
}

RcVsRlc compare_rc_rlc(const geom::Technology& tech, const HTreeSpec& spec,
                       const core::InductanceLibrary& inductance,
                       AnalysisOptions options) {
  const TreeSegments segments = extract_tree_segments(tech, spec, inductance);
  RcVsRlc out;
  options.ladder.include_inductance = true;
  out.rlc = analyze_skew(spec, segments, options);
  options.ladder.include_inductance = false;
  out.rc = analyze_skew(spec, segments, options);
  return out;
}

}  // namespace rlcx::clocktree
