// Tests for the H-tree generator, whole-tree netlist and skew analysis.
#include <gtest/gtest.h>

#include <atomic>

#include "clocktree/skew.h"
#include "numeric/units.h"
#include "solver/frequency.h"

namespace rlcx::clocktree {
namespace {

using geom::PlaneConfig;
using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

core::InductanceLibrary library_for(const HTreeSpec& spec) {
  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(spec.driver.t_rise);
  sopt.max_filaments_per_dim = 2;
  sopt.plane.strips = 9;
  core::InductanceLibrary lib;
  for (std::size_t i = 0; i < spec.levels.size(); ++i) {
    const int layer = spec.level_layer(i);
    const geom::PlaneConfig planes = spec.levels[i].planes;
    if (lib.has(layer, planes)) continue;
    lib.add(layer, planes,
            std::make_shared<core::DirectInductanceModel>(&tech(), layer,
                                                          planes, sopt));
  }
  return lib;
}

HTreeSpec small_tree() {
  HTreeSpec spec = example_cpw_tree();
  spec.levels.resize(2);  // 2 levels -> 2 sinks, fast tests
  return spec;
}

TEST(HTreeSpec, Bookkeeping) {
  const HTreeSpec spec = example_cpw_tree();
  EXPECT_EQ(spec.levels.size(), 3u);
  EXPECT_EQ(spec.sink_count(), 4u);
  EXPECT_NEAR(spec.root_to_leaf_length(), um(3000 + 1500 + 800), 1e-12);
  // Shields satisfy the cascading precondition at every level.
  for (const LevelSpec& lv : spec.levels)
    EXPECT_GE(lv.ground_width, lv.signal_width);
}

TEST(HTreeSpec, MicrostripVariantHasPlanes) {
  const HTreeSpec spec = example_microstrip_tree();
  for (const LevelSpec& lv : spec.levels)
    EXPECT_EQ(lv.planes, PlaneConfig::kBelow);
}

TEST(HTreeSpec, LevelBlockGeometry) {
  const HTreeSpec spec = example_cpw_tree();
  const geom::Block blk = level_block(tech(), spec, 0);
  ASSERT_EQ(blk.size(), 3u);
  EXPECT_EQ(blk.trace(1).role, geom::TraceRole::kSignal);
  EXPECT_NEAR(blk.length(), spec.levels[0].length, 1e-12);
  EXPECT_NEAR(blk.spacing(0, 1), spec.levels[0].spacing, 1e-12);
  EXPECT_THROW(level_block(tech(), spec, 9), std::out_of_range);
}

TEST(TreeNetlist, TopologyMatchesSpec) {
  const HTreeSpec spec = small_tree();
  const core::InductanceLibrary lib = library_for(spec);
  core::LadderOptions lopt;
  lopt.sections = 2;
  const TreeNetlist tree = build_tree_netlist(tech(), spec, lib, lopt);
  EXPECT_EQ(tree.sinks.size(), spec.sink_count());
  EXPECT_GT(tree.netlist.node_count(), 4);
  EXPECT_EQ(tree.netlist.vsources().size(), 1u);
  // One sink cap per leaf plus the wire capacitance.
  EXPECT_GE(tree.netlist.capacitors().size(), spec.sink_count());
}

TEST(TreeNetlist, EmptySpecThrows) {
  HTreeSpec spec = small_tree();
  spec.levels.clear();
  const core::InductanceLibrary lib;
  EXPECT_THROW(build_tree_netlist(tech(), spec, lib, {}),
               std::invalid_argument);
}

TEST(TreeNetlist, MissingProviderThrows) {
  const HTreeSpec spec = small_tree();
  const core::InductanceLibrary empty;
  EXPECT_THROW(build_tree_netlist(tech(), spec, empty, {}),
               std::out_of_range);
}

TEST(Skew, BalancedTreeHasPositiveDelaysAndSmallSkew) {
  HTreeSpec spec = small_tree();
  spec.sink_cap_mismatch = 0.0;  // perfectly balanced
  const core::InductanceLibrary lib = library_for(spec);
  AnalysisOptions aopt;
  aopt.ladder.sections = 3;
  const SkewResult r = analyze_skew(tech(), spec, lib, aopt);
  ASSERT_EQ(r.sink_delays.size(), spec.sink_count());
  for (double d : r.sink_delays) EXPECT_GT(d, 0.0);
  // Identical branches: skew is numerically zero.
  EXPECT_LT(r.skew, 0.01e-12);
}

TEST(Skew, LoadMismatchCreatesSkew) {
  HTreeSpec spec = small_tree();
  spec.sink_cap_mismatch = 1.0;
  const core::InductanceLibrary lib = library_for(spec);
  AnalysisOptions aopt;
  aopt.ladder.sections = 3;
  const SkewResult r = analyze_skew(tech(), spec, lib, aopt);
  EXPECT_GT(r.skew, 0.1e-12);
  EXPECT_NEAR(r.skew, r.max_delay - r.min_delay, 1e-18);
}

TEST(TwoLayerTree, LayersResolveAndViasStamped) {
  HTreeSpec spec = example_two_layer_tree();
  spec.levels.resize(2);
  EXPECT_EQ(spec.level_layer(0), 6);
  EXPECT_EQ(spec.level_layer(1), 5);
  EXPECT_THROW(spec.level_layer(9), std::out_of_range);

  const core::InductanceLibrary lib = library_for(spec);
  core::LadderOptions lopt;
  lopt.sections = 2;
  const TreeNetlist with_via = build_tree_netlist(tech(), spec, lib, lopt);

  HTreeSpec no_via = spec;
  no_via.via.resistance = 0.0;
  const TreeNetlist without = build_tree_netlist(tech(), no_via, lib, lopt);
  // One extra resistor per level-1 branch (2 branches).
  EXPECT_EQ(with_via.netlist.resistors().size(),
            without.netlist.resistors().size() + 2);
}

TEST(TwoLayerTree, ViaResistanceSlowsTheClock) {
  HTreeSpec spec = example_two_layer_tree();
  spec.levels.resize(2);
  const core::InductanceLibrary lib = library_for(spec);
  AnalysisOptions aopt;
  aopt.ladder.sections = 3;
  spec.via.resistance = 0.0;
  const SkewResult fast = analyze_skew(tech(), spec, lib, aopt);
  spec.via.resistance = 25.0;  // pathological single via
  const SkewResult slow = analyze_skew(tech(), spec, lib, aopt);
  EXPECT_GT(slow.max_arrival, fast.max_arrival);
}

TEST(TwoLayerTree, LevelBlocksLiveOnTheirLayers) {
  const HTreeSpec spec = example_two_layer_tree();
  EXPECT_EQ(level_block(tech(), spec, 0).layer_index(), 6);
  EXPECT_EQ(level_block(tech(), spec, 1).layer_index(), 5);
}

TEST(Skew, RcVsRlcShapesMatchPaper) {
  const HTreeSpec spec = small_tree();
  const core::InductanceLibrary lib = library_for(spec);
  AnalysisOptions aopt;
  aopt.ladder.sections = 3;
  const RcVsRlc cmp = compare_rc_rlc(tech(), spec, lib, aopt);
  // Inductance delays the sinks and creates overshoot the RC netlist
  // cannot produce (Section V / Figures 2-3).
  EXPECT_GT(cmp.rlc.max_delay, cmp.rc.max_delay);
  EXPECT_GT(cmp.rlc.max_overshoot, cmp.rc.max_overshoot);
  EXPECT_LT(cmp.rc.max_overshoot, 1e-3);
  // The paper's >10% claim, on the max delay.
  const double diff =
      (cmp.rlc.max_delay - cmp.rc.max_delay) / cmp.rlc.max_delay;
  EXPECT_GT(diff, 0.10);
}

/// A direct-solve provider that counts the lookups made through it (the
/// extraction sweep runs on the rt pool, hence the atomic).
class CountingProvider : public core::InductanceProvider {
 public:
  CountingProvider(int layer, geom::PlaneConfig planes,
                   const solver::SolveOptions& sopt)
      : direct_(&tech(), layer, planes, sopt) {}
  double self(double w, double l) const override {
    ++lookups;
    return direct_.self(w, l);
  }
  double mutual(double w1, double w2, double s, double l) const override {
    ++lookups;
    return direct_.mutual(w1, w2, s, l);
  }
  double series_resistance(double w, double l) const override {
    ++lookups;
    return direct_.series_resistance(w, l);
  }
  mutable std::atomic<std::size_t> lookups{0};

 private:
  core::DirectInductanceModel direct_;
};

TEST(Skew, CompareRcRlcExtractsTheTreeOnce) {
  const HTreeSpec spec = small_tree();
  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(spec.driver.t_rise);
  sopt.max_filaments_per_dim = 2;
  const int layer = spec.level_layer(0);
  ASSERT_EQ(spec.level_layer(1), layer);
  const auto counter =
      std::make_shared<CountingProvider>(layer, spec.levels[0].planes, sopt);
  core::InductanceLibrary lib;
  lib.add(layer, spec.levels[0].planes, counter);
  AnalysisOptions aopt;
  aopt.ladder.sections = 3;

  aopt.ladder.include_inductance = true;
  const SkewResult rlc = analyze_skew(tech(), spec, lib, aopt);
  aopt.ladder.include_inductance = false;
  const SkewResult rc = analyze_skew(tech(), spec, lib, aopt);
  const std::size_t separate = counter->lookups.exchange(0);
  const RcVsRlc cmp = compare_rc_rlc(tech(), spec, lib, aopt);
  EXPECT_GT(separate, 0u);
  EXPECT_EQ(2 * counter->lookups.load(), separate);
  EXPECT_EQ(cmp, (RcVsRlc{rlc, rc}));
}

}  // namespace
}  // namespace rlcx::clocktree
