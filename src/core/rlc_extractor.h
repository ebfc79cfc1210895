// Per-segment RLC extraction (paper Section V).
//
// "Basically we extract the resistance, capacitance, and inductance
// respectively for each segment ... given the geometry parameters via the
// pre-characterised capacitance and inductance table look-up ... Resistance
// is calculated analytically."
#pragma once

#include <vector>

#include "cap/extractor.h"
#include "core/inductance_model.h"
#include "geom/block.h"
#include "numeric/matrix.h"

namespace rlcx::core {

/// Lumped RLC of one wire segment (whole-segment values, not per unit
/// length).
struct SegmentRlc {
  double length = 0.0;
  TableKind kind = TableKind::kPartial;

  /// Analytic series resistance per trace [ohm] (all block traces).
  std::vector<double> resistance;

  /// Inductance matrix [H].  Loop mode: over the signal traces only (the
  /// plane return is folded in).  Partial mode: over all traces — ground
  /// shields get explicit branches and the simulator finds the return path.
  RealMatrix inductance;
  /// Block trace indices the inductance matrix rows refer to.
  std::vector<std::size_t> l_traces;

  /// Whole-segment ground capacitance per trace [F].
  std::vector<double> cap_ground;
  /// Whole-segment coupling capacitance between adjacent traces [F]
  /// (entry i couples block traces i and i+1).
  std::vector<double> cap_coupling;
};

struct ExtractOptions {
  /// When true and the provider characterised resistance tables, use the
  /// frequency-dependent (skin/proximity) series resistance instead of the
  /// paper's analytic DC value.
  bool ac_resistance = false;
};

/// Extract a segment: R analytically (or from the provider's AC-resistance
/// table), C from the closed-form models, L from the provider (tables or
/// direct solver).  The provider must describe the block's
/// (layer, plane-config) structure class.
SegmentRlc extract_segment_rlc(const geom::Block& block,
                               const InductanceProvider& inductance,
                               const ExtractOptions& options = {});

}  // namespace rlcx::core
