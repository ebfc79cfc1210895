// CPW H-tree netlists of any size for the transient's differential tests
// and bench/bench_transient, extracted through a direct (no-table) field
// solver with a coarse filament mesh: the circuit has the shape and the
// element magnitudes of a real clocktree at a fraction of the set-up cost.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "clocktree/tree_netlist.h"
#include "numeric/units.h"
#include "solver/frequency.h"

namespace rlcx::testing {

inline const geom::Technology& htree_tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

/// A coplanar-waveguide H-tree with `sinks` leaves (a power of two >= 2):
/// segment lengths halve per level from 3000 um (floor 150 um), widths
/// taper from 10 um (floor 2 um).  `alternate` routes odd levels on
/// layer 5 with a via at every turn.
inline clocktree::HTreeSpec cpw_htree(std::size_t sinks, bool alternate) {
  clocktree::HTreeSpec spec = clocktree::example_cpw_tree();
  spec.levels.clear();
  double length = 3000.0, width = 10.0;
  for (std::size_t n = 1; n <= sinks; n *= 2) {
    clocktree::LevelSpec l;
    l.length = units::um(std::max(150.0, length));
    l.signal_width = units::um(width);
    l.ground_width = units::um(width);
    l.spacing = units::um(1.0);
    l.layer = alternate && spec.levels.size() % 2 == 1 ? 5 : 0;
    spec.levels.push_back(l);
    length *= 0.5;
    width = std::max(2.0, 0.75 * width);
  }
  if (alternate) spec.via.resistance = 0.8;
  return spec;
}

/// Direct-solve inductance providers for every (layer, planes) of `spec`.
inline core::InductanceLibrary htree_library(const clocktree::HTreeSpec& spec) {
  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(spec.driver.t_rise);
  sopt.max_filaments_per_dim = 2;
  sopt.plane.strips = 9;
  core::InductanceLibrary lib;
  for (std::size_t i = 0; i < spec.levels.size(); ++i) {
    const int layer = spec.level_layer(i);
    if (lib.has(layer, spec.levels[i].planes)) continue;
    lib.add(layer, spec.levels[i].planes,
            std::make_shared<core::DirectInductanceModel>(
                &htree_tech(), layer, spec.levels[i].planes, sopt));
  }
  return lib;
}

/// The tree's netlist with 4-section ladders, RLC(K) or RC.
inline clocktree::TreeNetlist htree_netlist(const clocktree::HTreeSpec& spec,
                                            bool inductance) {
  core::LadderOptions ladder;
  ladder.sections = 4;
  ladder.include_inductance = inductance;
  return clocktree::build_tree_netlist(htree_tech(), spec,
                                       htree_library(spec), ladder);
}

}  // namespace rlcx::testing
