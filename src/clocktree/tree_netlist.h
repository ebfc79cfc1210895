// Whole-tree RLC netlist formulation via cascaded segments (Section V).
//
// Every H-tree segment is extracted as its own block (inductance from the
// per-segment tables, mutual couplings only within a segment — the
// experimentally-validated linear cascading of Section IV) and stamped as a
// pi-ladder; segments chain at junction nodes; the driver is a ramp source
// behind its output resistance; each leaf carries a sink capacitance.
#pragma once

#include <vector>

#include "ckt/netlist.h"
#include "clocktree/htree.h"
#include "core/inductance_model.h"
#include "core/netlist_builder.h"
#include "core/rlc_extractor.h"

namespace rlcx::clocktree {

struct TreeNetlist {
  ckt::Netlist netlist;
  ckt::NodeId driver_out = 0;         ///< buffer output (after r_source)
  std::vector<ckt::NodeId> sinks;     ///< leaf nodes, left to right
};

/// Per-level geometry and extracted RLC for one tree (index = level; all
/// branches of a level share the same segment, Section V's symmetry).
struct TreeSegments {
  std::vector<geom::Block> blocks;
  std::vector<core::SegmentRlc> rlc;
};

/// Extracts every level's segment, one table lookup per level.  The
/// library must hold a provider for every (layer, plane-config) the levels
/// use — checked before any work runs.
TreeSegments extract_tree_segments(const geom::Technology& tech,
                                   const HTreeSpec& spec,
                                   const core::InductanceLibrary& inductance,
                                   const core::ExtractOptions& options = {});

/// Build the full netlist from the tree's extracted segments
/// (extract_tree_segments of the same spec).  The extraction does not
/// depend on the ladder options, so one extraction serves the RLC and the
/// RC netlist of a tree.
TreeNetlist build_tree_netlist(const HTreeSpec& spec,
                               const TreeSegments& segments,
                               const core::LadderOptions& ladder);

/// Extract, then build the full netlist.  The library must hold a provider
/// for every (layer, plane-config) the tree's levels use.
TreeNetlist build_tree_netlist(const geom::Technology& tech,
                               const HTreeSpec& spec,
                               const core::InductanceLibrary& inductance,
                               const core::LadderOptions& ladder);

}  // namespace rlcx::clocktree
