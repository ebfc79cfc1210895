#include "clocktree/tree_netlist.h"

#include <stdexcept>

#include "core/batch_extractor.h"

namespace rlcx::clocktree {

namespace {

struct Builder {
  const HTreeSpec& spec;
  const TreeSegments& segments;
  const core::LadderOptions& ladder;
  TreeNetlist& out;

  void grow(ckt::NodeId from, std::size_t level) {
    // A layer change from the parent costs a via (stacked array R).
    if (level > 0 &&
        spec.level_layer(level) != spec.level_layer(level - 1) &&
        spec.via.resistance > 0.0) {
      const ckt::NodeId landed = out.netlist.add_node();
      out.netlist.add_resistor(from, landed, spec.via.resistance);
      from = landed;
    }
    const std::vector<ckt::NodeId> outs = core::stamp_segment(
        out.netlist, segments.blocks[level], segments.rlc[level], {from},
        ladder);
    const ckt::NodeId tip = outs[0];
    if (level + 1 < spec.levels.size()) {
      grow(tip, level + 1);
      grow(tip, level + 1);
    } else {
      out.sinks.push_back(tip);
    }
  }
};

}  // namespace

TreeSegments extract_tree_segments(const geom::Technology& tech,
                                   const HTreeSpec& spec,
                                   const core::InductanceLibrary& inductance,
                                   const core::ExtractOptions& options,
                                   rt::Pool* pool) {
  TreeSegments segs;
  segs.blocks.reserve(spec.levels.size());
  for (std::size_t lv = 0; lv < spec.levels.size(); ++lv)
    segs.blocks.push_back(level_block(tech, spec, lv));
  segs.rlc =
      core::extract_segments_batch(segs.blocks, inductance, options, pool);
  return segs;
}

TreeNetlist build_tree_netlist(const HTreeSpec& spec,
                               const TreeSegments& segments,
                               const core::LadderOptions& ladder) {
  if (spec.levels.empty())
    throw std::invalid_argument("build_tree_netlist: no levels");
  if (segments.blocks.size() != spec.levels.size() ||
      segments.rlc.size() != spec.levels.size())
    throw std::invalid_argument(
        "build_tree_netlist: segments do not match the tree's levels");

  TreeNetlist result;
  ckt::Netlist& nl = result.netlist;

  const ckt::NodeId vsrc = nl.add_node("clk_in");
  result.driver_out = nl.add_node("buf_out");
  nl.add_vsource(vsrc, ckt::kGround,
                 ckt::SourceWaveform::ramp(spec.driver.vdd,
                                           spec.driver.t_rise));
  nl.add_resistor(vsrc, result.driver_out, spec.driver.r_source);

  Builder b{spec, segments, ladder, result};
  b.grow(result.driver_out, 0);

  // Sink loads, with the linear mismatch gradient that creates skew.
  const std::size_t n = result.sinks.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double grade =
        n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0;
    const double c = spec.sink_cap * (1.0 + spec.sink_cap_mismatch * grade);
    result.netlist.add_capacitor(result.sinks[i], ckt::kGround, c);
  }
  return result;
}

TreeNetlist build_tree_netlist(const geom::Technology& tech,
                               const HTreeSpec& spec,
                               const core::InductanceLibrary& inductance,
                               const core::LadderOptions& ladder) {
  return build_tree_netlist(
      spec, extract_tree_segments(tech, spec, inductance), ladder);
}

}  // namespace rlcx::clocktree
