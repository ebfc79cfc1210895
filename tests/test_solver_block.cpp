// Tests for the block-level field solver: partial and loop extraction.
//
// These pin the two "Foundations" of the paper (Section II) numerically and
// check the loop reduction against hand-derivable symmetric cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/partial_inductance.h"
#include "diag/error.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "solver/block_solver.h"
#include "solver/frequency.h"
#include "support/loop_reference.h"
#include "support/partial_reference.h"

namespace rlcx::solver {
namespace {

using geom::Block;
using geom::PlaneConfig;
using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

SolveOptions low_freq() {
  SolveOptions o;
  o.frequency = 1e6;  // skin depth >> conductor: uniform current
  return o;
}

TEST(Frequency, SignificantFrequencyDefinition) {
  EXPECT_NEAR(significant_frequency(100e-12), 3.2e9, 1e-3);
  EXPECT_NEAR(rise_time_for_frequency(3.2e9), 100e-12, 1e-18);
  EXPECT_THROW(significant_frequency(0.0), std::invalid_argument);
  EXPECT_THROW(rise_time_for_frequency(-1.0), std::invalid_argument);
}

TEST(ExtractPartial, SingleTraceMatchesDirectSelfPartial) {
  const Block blk = geom::single_trace(tech(), 6, um(1000), um(10));
  const PartialResult r = extract_partial(blk, low_freq());
  ASSERT_EQ(r.inductance.rows(), 1u);

  peec::Bar bar;
  bar.length = um(1000);
  bar.t_min = -um(5);
  bar.t_width = um(10);
  bar.z_min = tech().layer(6).z_bottom;
  bar.z_thick = tech().layer(6).thickness;
  const double direct = peec::self_partial(bar);
  EXPECT_NEAR(r.inductance(0, 0), direct, 1e-6 * direct);

  // DC resistance: rho l / (w t).
  const double rdc = tech().layer(6).rho * um(1000) / (um(10) * um(2));
  EXPECT_NEAR(r.resistance[0], rdc, 1e-6 * rdc);
}

TEST(ExtractPartial, Foundation1SelfIndependentOfNeighbours) {
  // Paper Foundation 1: self Lp of a trace depends only on its own geometry.
  const Block alone = geom::single_trace(tech(), 6, um(2000), um(4));
  const Block crowd = geom::uniform_array(tech(), 6, um(2000), 5, um(4),
                                          um(2));
  const PartialResult ra = extract_partial(alone, low_freq());
  const PartialResult rc = extract_partial(crowd, low_freq());
  const double self_alone = ra.inductance(0, 0);
  const double self_mid = rc.inductance(2, 2);  // middle of five
  EXPECT_NEAR(self_mid, self_alone, 1e-4 * self_alone);
}

TEST(ExtractPartial, Foundation2MutualIndependentOfOthers) {
  // Paper Foundation 2: mutual Lp of two traces depends only on the pair.
  const Block crowd = geom::uniform_array(tech(), 6, um(2000), 5, um(4),
                                          um(2));
  const Block pair = crowd.subproblem({0, 4});
  const PartialResult rc = extract_partial(crowd, low_freq());
  const PartialResult rp = extract_partial(pair, low_freq());
  EXPECT_NEAR(rc.inductance(0, 4), rp.inductance(0, 1),
              1e-4 * std::abs(rp.inductance(0, 1)));
}

TEST(ExtractPartial, MatrixSymmetricPositiveDiagonal) {
  const Block blk = geom::uniform_array(tech(), 6, um(1000), 4, um(2), um(2));
  const PartialResult r = extract_partial(blk, low_freq());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(r.inductance(i, i), 0.0);
    EXPECT_GT(r.resistance[i], 0.0);
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(r.inductance(i, j), r.inductance(j, i),
                  1e-9 * std::abs(r.inductance(i, i)));
  }
  // Mutual decays with separation.
  EXPECT_GT(r.inductance(0, 1), r.inductance(0, 2));
  EXPECT_GT(r.inductance(0, 2), r.inductance(0, 3));
}

TEST(ExtractLoop, SymmetricGsgMatchesHandReduction) {
  // For a symmetric G-S-G block at uniform current the return splits evenly:
  // Lloop = Ls - 2 Msg + (Lg + Mgg)/2,  Rloop = Rs + Rg/2.
  const Block blk = geom::coplanar_waveguide(tech(), 6, um(1000), um(10),
                                             um(5), um(1));
  const SolveOptions opt = low_freq();
  const PartialResult p = extract_partial(blk, opt);
  const LoopResult l = extract_loop(blk, opt);
  ASSERT_EQ(l.inductance.rows(), 1u);
  ASSERT_EQ(l.signal_traces.size(), 1u);
  EXPECT_EQ(l.signal_traces[0], 1u);  // middle trace is the signal

  // Block order: gnd(0), sig(1), gnd(2).
  const double ls = p.inductance(1, 1);
  const double lg = p.inductance(0, 0);
  const double msg = p.inductance(0, 1);
  const double mgg = p.inductance(0, 2);
  const double expected_l = ls - 2.0 * msg + 0.5 * (lg + mgg);
  EXPECT_NEAR(l.inductance(0, 0), expected_l, 1e-4 * expected_l);

  const double rs = p.resistance[1];
  const double rg = p.resistance[0];
  EXPECT_NEAR(l.resistance(0, 0), rs + 0.5 * rg, 1e-4 * (rs + 0.5 * rg));
}

TEST(ExtractLoop, LoopBelowPartialSelf) {
  // A nearby return always reduces inductance below the partial self value.
  const Block blk = geom::coplanar_waveguide(tech(), 6, um(6000), um(10),
                                             um(5), um(1));
  const SolveOptions opt = low_freq();
  const double lself = extract_partial(blk, opt).inductance(1, 1);
  const double lloop = extract_loop(blk, opt).inductance(0, 0);
  EXPECT_GT(lloop, 0.0);
  EXPECT_LT(lloop, lself);
}

TEST(ExtractLoop, PlaneReturnLowersInductanceFurther) {
  // At the significant frequency the return distribution minimises loop
  // impedance, so an extra parallel return (the plane) can only lower L.
  // (At DC the split minimises resistance instead and the claim can fail.)
  const Block cpw = geom::coplanar_waveguide(tech(), 6, um(2000), um(10),
                                             um(5), um(1));
  const Block ms = geom::microstrip(tech(), 6, um(2000), um(10), um(5),
                                    um(1));
  SolveOptions opt;
  opt.frequency = 3.2e9;
  const double l_cpw = extract_loop(cpw, opt).inductance(0, 0);
  const double l_ms = extract_loop(ms, opt).inductance(0, 0);
  EXPECT_LT(l_ms, l_cpw);
  EXPECT_GT(l_ms, 0.0);
}

TEST(ExtractLoop, ExtensionFoundationHoldsOverPlane) {
  // Paper Section II.B / Figure 5: with a plane below, the loop self
  // inductance of a trace in an array matches the single-trace subproblem,
  // and the mutual matches the two-trace subproblem.  This holds at the
  // significant frequency, where the plane return concentrates under the
  // trace (at DC it spreads resistively over the whole plane, which couples
  // the result to the plane extent).
  const Block arr = geom::uniform_array(tech(), 6, um(2000), 5, um(4), um(4),
                                        PlaneConfig::kBelow);
  SolveOptions opt;
  opt.frequency = 3.2e9;
  opt.plane.strips = 21;
  const LoopResult full = extract_loop(arr, opt);

  const LoopResult single = extract_loop(arr.subproblem({0}), opt);
  EXPECT_NEAR(full.inductance(0, 0), single.inductance(0, 0),
              0.05 * single.inductance(0, 0));

  const LoopResult pair = extract_loop(arr.subproblem({0, 4}), opt);
  EXPECT_NEAR(full.inductance(0, 4), pair.inductance(0, 1),
              0.08 * std::abs(pair.inductance(0, 1)));
}

TEST(ExtractLoop, SkinEffectRaisesRLowersL) {
  const Block blk = geom::coplanar_waveguide(tech(), 6, um(2000), um(10),
                                             um(10), um(1));
  SolveOptions lo = low_freq();
  SolveOptions hi;
  hi.frequency = 10e9;
  const LoopResult rlo = extract_loop(blk, lo);
  const LoopResult rhi = extract_loop(blk, hi);
  EXPECT_GT(rhi.resistance(0, 0), rlo.resistance(0, 0));
  EXPECT_LT(rhi.inductance(0, 0), rlo.inductance(0, 0));
}

TEST(ExtractLoop, ErrorsWithoutReturnPath) {
  const Block blk = geom::single_trace(tech(), 6, um(1000), um(10));
  EXPECT_THROW(extract_loop(blk, low_freq()), std::invalid_argument);
  SolveOptions bad;
  bad.frequency = 0.0;
  const Block gsg = geom::coplanar_waveguide(tech(), 6, um(1000), um(10),
                                             um(5), um(1));
  EXPECT_THROW(extract_loop(gsg, bad), std::invalid_argument);
  EXPECT_THROW(extract_partial(gsg, bad), std::invalid_argument);
}

TEST(PlaneStrips, CoverBlockWithMargin) {
  const Block ms = geom::microstrip(tech(), 6, um(2000), um(10), um(5),
                                    um(1));
  PlaneOptions popt;
  popt.strips = 11;
  const auto strips = plane_strips(ms, ms.plane_layer_below(), popt);
  ASSERT_EQ(strips.size(), 11u);
  const double block_lo = ms.trace(0).x_left();
  const double block_hi = ms.trace(2).x_right();
  EXPECT_LT(strips.front().t_min, block_lo);
  EXPECT_GT(strips.back().t_max(), block_hi);
  // Strips sit in the plane layer and tile contiguously.
  const geom::Layer& pl = tech().layer(4);
  for (std::size_t i = 0; i < strips.size(); ++i) {
    EXPECT_DOUBLE_EQ(strips[i].z_min, pl.z_bottom);
    EXPECT_DOUBLE_EQ(strips[i].z_thick, pl.thickness);
    if (i > 0) {
      EXPECT_NEAR(strips[i].t_min, strips[i - 1].t_max(), 1e-12);
    }
  }
}

TEST(PlaneStrips, RejectsBadCount) {
  const Block ms = geom::microstrip(tech(), 6, um(2000), um(10), um(5),
                                    um(1));
  PlaneOptions popt;
  popt.strips = 0;
  EXPECT_THROW(plane_strips(ms, ms.plane_layer_below(), popt),
               std::invalid_argument);
}

// The PEEC engine's far-field approximation error, measured against a
// far_factor = 200 reference (nearly every chunk pair on the exact volume
// kernel) on 2-trace table solves at the significant frequency of a
// 150 ps edge.  docs/performance.md ("Chunk-offset collapse") documents
// the bounds: over the 72-point layer-6 sweep the worst errors are 4.0e-4
// (loop mode, over a plane) and 8.4e-6 (partial mode); the two geometries
// below include both worst cases and a pair of filaments whose chunk
// counts differ.
struct TwoTraceSolve {
  double self = 0.0;
  double mutual = 0.0;
};

TwoTraceSolve two_trace(PlaneConfig planes, double w1, double w2, double s,
                        double l, double far_factor) {
  const Block blk(&tech(), 6, l,
                  {{geom::TraceRole::kSignal, w1, -0.5 * (s + w1), "a"},
                   {geom::TraceRole::kSignal, w2, 0.5 * (s + w2), "b"}},
                  planes);
  SolveOptions opt;
  opt.frequency = significant_frequency(150e-12);
  opt.partial.far_factor = far_factor;
  if (planes == PlaneConfig::kNone) {
    const PartialResult r = extract_partial(blk, opt);
    return {r.inductance(0, 0), r.inductance(0, 1)};
  }
  const LoopResult r = extract_loop(blk, opt);
  return {r.inductance(0, 0), r.inductance(0, 1)};
}

TEST(FarFieldAccuracy, TwoTraceSolvesWithinBoundsOfFarFactor200Reference) {
  struct Case {
    double w1, w2, s, l;
  };
  const Case cases[] = {{um(20), um(20), um(10), um(775)},
                        {um(1), um(4.47), um(0.5), um(6000)}};
  for (const PlaneConfig planes : {PlaneConfig::kNone, PlaneConfig::kBelow}) {
    const double bound = planes == PlaneConfig::kNone ? 1e-5 : 6e-4;
    for (const Case& c : cases) {
      const TwoTraceSolve got = two_trace(planes, c.w1, c.w2, c.s, c.l, 12.0);
      const TwoTraceSolve ref = two_trace(planes, c.w1, c.w2, c.s, c.l, 200.0);
      EXPECT_NEAR(got.mutual, ref.mutual, bound * std::abs(ref.mutual))
          << geom::to_string(planes) << " w1=" << c.w1 << " l=" << c.l;
      EXPECT_NEAR(got.self, ref.self, bound * std::abs(ref.self))
          << geom::to_string(planes) << " w1=" << c.w1 << " l=" << c.l;
    }
  }
}

// Property sweep: the loop inductance of a coplanar waveguide decreases
// monotonically as the ground spacing shrinks (tighter return loop).
class SpacingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpacingSweep, TighterReturnMeansLowerLoopL) {
  const double s_um = GetParam();
  const Block near = geom::coplanar_waveguide(tech(), 6, um(1000), um(4),
                                              um(4), um(s_um));
  const Block far = geom::coplanar_waveguide(tech(), 6, um(1000), um(4),
                                             um(4), um(s_um * 2.0));
  const SolveOptions opt = low_freq();
  EXPECT_LT(extract_loop(near, opt).inductance(0, 0),
            extract_loop(far, opt).inductance(0, 0));
}

INSTANTIATE_TEST_SUITE_P(Spacings, SpacingSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

// A loop extraction with nothing to close the loop is a structural
// problem, reported as a categorized `geometry` error that points at the
// fix — not a singular matrix deep inside the factorisation.
TEST(ExtractLoop, SingleTraceWithoutReturnPathIsAGeometryError) {
  const Block blk(&tech(), 6, um(1000),
                  {{geom::TraceRole::kSignal, um(10), 0.0, "sig"}},
                  PlaneConfig::kNone);
  try {
    extract_loop(blk, low_freq());
    FAIL() << "no return path must be rejected";
  } catch (const rlcx::diag::GeometryError& e) {
    EXPECT_NE(std::string(e.what()).find("no return path"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("extract_partial"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExtractLoop, AllGroundBlockIsAGeometryError) {
  const Block blk(&tech(), 6, um(1000),
                  {{geom::TraceRole::kGround, um(10), 0.0, "g1"},
                   {geom::TraceRole::kGround, um(10), um(20), "g2"}},
                  PlaneConfig::kNone);
  EXPECT_THROW(extract_loop(blk, low_freq()), rlcx::diag::GeometryError);
}

// ---- Merged return port against the bordered Schur reduction ----------

/// Largest |a - b| over the block, relative to its largest |a|.
double max_rel_diff(const RealMatrix& a, const RealMatrix& b) {
  double scale = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      scale = std::max(scale, std::abs(a(i, j)));
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  return worst / scale;
}

void expect_matches_bordered(const Block& blk, const SolveOptions& opt,
                             const std::string& what) {
  const LoopResult merged = extract_loop(blk, opt);
  const LoopResult bordered = bordered_loop_reference(blk, opt);
  ASSERT_EQ(merged.signal_traces, bordered.signal_traces) << what;
  EXPECT_LT(max_rel_diff(bordered.inductance, merged.inductance), 1e-12)
      << what;
  EXPECT_LT(max_rel_diff(bordered.resistance, merged.resistance), 1e-12)
      << what;
}

TEST(MergedReturn, MatchesBorderedReductionOnGroundTraces) {
  SolveOptions opt;
  opt.frequency = significant_frequency(150e-12);
  expect_matches_bordered(
      geom::coplanar_waveguide(tech(), 6, um(2000), um(10), um(5), um(1)),
      opt, "cpw layer 6");
  expect_matches_bordered(
      geom::coplanar_waveguide(tech(), 5, um(775), um(1), um(20), um(10)),
      opt, "cpw layer 5");
  expect_matches_bordered(
      geom::coplanar_waveguide(tech(), 6, um(1000), um(10), um(5), um(1)),
      low_freq(), "cpw uniform current");
}

TEST(MergedReturn, MatchesBorderedReductionOverPlanes) {
  SolveOptions opt;
  opt.frequency = significant_frequency(150e-12);
  expect_matches_bordered(
      geom::uniform_array(tech(), 6, um(6000), 2, um(20), um(10),
                          PlaneConfig::kBelow),
      opt, "two signals, plane below");
  expect_matches_bordered(
      geom::microstrip(tech(), 6, um(1000), um(4), um(4), um(2)), opt,
      "microstrip");
  expect_matches_bordered(
      geom::uniform_array(tech(), 6, um(2000), 2, um(4.47), um(0.5),
                          PlaneConfig::kBothSides),
      opt, "two signals, planes both sides");
  expect_matches_bordered(
      geom::stripline(tech(), 6, um(1000), um(10), um(5), um(1)), opt,
      "stripline");
}

TEST(MergedReturn, MatchesBorderedReductionWithThreeSignals) {
  SolveOptions opt;
  opt.frequency = significant_frequency(150e-12);
  const Block bus = geom::bus_block(tech(), 6, um(1500),
                                    {um(5), um(2), um(3), um(2), um(5)},
                                    {um(1), um(2), um(2), um(1)});
  ASSERT_EQ(extract_loop(bus, opt).signal_traces.size(), 3u);
  expect_matches_bordered(bus, opt, "g s s s g");
  expect_matches_bordered(
      geom::uniform_array(tech(), 5, um(1000), 3, um(2), um(2),
                          PlaneConfig::kBelow),
      opt, "three signals, plane below");
}

TEST(SolverWiring, CancellationMidSolveIsClean) {
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } reset;
  const Block blk = geom::microstrip(tech(), 6, um(600), um(2), um(4), um(3));
  const SolveOptions opt;

  // Uncancelled reference, counting the cancellation checkpoints the solve
  // passes (an armed schedule that never fires makes the site count).
  LoopResult reference;
  std::uint64_t checkpoints = 0;
  {
    run::CancelToken token;
    run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
    run::FaultInjector::global().set_schedule("cancel:1000000000");
    reference = extract_loop(blk, opt);
    checkpoints = run::FaultInjector::global().calls("cancel");
    run::FaultInjector::global().clear();
  }
  ASSERT_GE(checkpoints, 3u) << "the solve must pass several checkpoints";

  // Cancel at a checkpoint in the middle of the solve.
  {
    run::CancelToken token;
    run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
    run::FaultInjector::global().set_schedule(
        "cancel:" + std::to_string(checkpoints / 2 + 1));
    EXPECT_THROW((void)extract_loop(blk, opt), diag::CancelledError);
    EXPECT_EQ(run::FaultInjector::global().triggered("cancel"), 1u);
    run::FaultInjector::global().clear();
  }

  // Fresh control, schedule cleared: the rerun completes bit-identical to
  // the uncancelled solve — nothing stale leaked from the cancelled one.
  run::CancelToken token;
  run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
  const LoopResult rerun = extract_loop(blk, opt);
  ASSERT_EQ(rerun.inductance.rows(), reference.inductance.rows());
  for (std::size_t i = 0; i < reference.inductance.rows(); ++i)
    for (std::size_t j = 0; j < reference.inductance.cols(); ++j) {
      EXPECT_EQ(rerun.inductance(i, j), reference.inductance(i, j));
      EXPECT_EQ(rerun.resistance(i, j), reference.resistance(i, j));
    }
}

}  // namespace
}  // namespace rlcx::solver
