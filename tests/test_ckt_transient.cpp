// Validation of the transient engine against closed-form circuit theory,
// and of the sparse MNA path against the dense-LU oracle
// (tests/support/dense_transient_reference) on CPW H-trees.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ckt/moments.h"
#include "ckt/transient.h"
#include "diag/error.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "support/dense_transient_reference.h"
#include "support/htree_fixture.h"

namespace rlcx::ckt {
namespace {

TEST(Transient, RcChargingMatchesExponential) {
  // 1 kohm / 1 pF low-pass driven by a fast step: v(t) = 1 - exp(-t/tau).
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);

  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-12;
  const TransientResult res = simulate(nl, opt);
  const Waveform v = res.waveform(out);

  const double tau = 1e-9;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expect = 1.0 - std::exp(-(t - 0.5e-12) / tau);
    EXPECT_NEAR(v.value_at(t), expect, 3e-3) << "t=" << t;
  }
  // 50% delay of a single-pole RC is ln(2) tau.
  const auto t50 = v.first_rise_through(0.5);
  ASSERT_TRUE(t50.has_value());
  EXPECT_NEAR(*t50, std::log(2.0) * tau, 0.02 * tau);
}

TEST(Transient, RlDividerMatchesExponential) {
  // Step -> L -> node -> R -> gnd: v_node = V exp(-t R/L) across R... the
  // current rises as (1 - e^{-tR/L}), so v_R = V (1 - e^{-tR/L}).
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
  nl.add_inductor(in, mid, 1e-9);
  nl.add_resistor(mid, kGround, 10.0);

  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 0.2e-12;
  const Waveform v = simulate(nl, opt).waveform(mid);
  const double tau = 1e-9 / 10.0;  // L/R = 100 ps
  for (double t : {50e-12, 100e-12, 300e-12}) {
    const double expect = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(v.value_at(t), expect, 0.01) << "t=" << t;
  }
}

TEST(Transient, SeriesRlcOvershootMatchesSecondOrderTheory) {
  // R = 10, L = 1 nH, C = 1 pF: zeta = (R/2) sqrt(C/L) = 0.158;
  // overshoot = exp(-pi zeta / sqrt(1 - zeta^2)) = 0.605.
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId a = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
  nl.add_resistor(in, a, 10.0);
  nl.add_inductor(a, out, 1e-9);
  nl.add_capacitor(out, kGround, 1e-12);

  TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 0.5e-12;
  const Waveform v = simulate(nl, opt).waveform(out);
  const double zeta = 0.5 * 10.0 * std::sqrt(1e-12 / 1e-9);
  const double expect =
      std::exp(-std::numbers::pi * zeta / std::sqrt(1.0 - zeta * zeta));
  // Unregistered, the march runs to t_stop: its last sample is the
  // settled value.
  const double settled = v.sample(v.size() - 1);
  EXPECT_NEAR(v.max() - settled, expect, 0.03);
  // Ringing frequency ~ 1/(2 pi sqrt(LC)) = 5.03 GHz: the first peak sits
  // near half a period after the 50% point.
  EXPECT_NEAR(settled, 1.0, 1e-3);
}

TEST(Transient, CoupledInductorsMatchSeriesEquivalent) {
  // Two series inductors coupled aiding: Leff = L1 + L2 + 2M.  The step
  // response through R must match a single inductor of that value.
  auto run = [](bool coupled) {
    Netlist nl;
    const NodeId in = nl.add_node();
    const NodeId out = nl.add_node();
    if (coupled) {
      const NodeId mid = nl.add_node();
      const std::size_t l1 = nl.add_inductor(in, mid, 1e-9);
      const std::size_t l2 = nl.add_inductor(mid, out, 2e-9);
      nl.add_mutual(l1, l2, 0.5e-9);
    } else {
      nl.add_inductor(in, out, 1e-9 + 2e-9 + 2 * 0.5e-9);
    }
    nl.add_resistor(out, kGround, 20.0);
    nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
    TransientOptions opt;
    opt.t_stop = 1.5e-9;
    opt.dt = 0.5e-12;
    return simulate(nl, opt).waveform(out);
  };
  const Waveform a = run(true);
  const Waveform b = run(false);
  for (double t : {0.1e-9, 0.3e-9, 0.6e-9, 1.2e-9})
    EXPECT_NEAR(a.value_at(t), b.value_at(t), 1e-6) << "t=" << t;
}

TEST(Transient, OpposingCouplingReducesEffectiveInductance) {
  auto rise_time_to_90 = [](double m) {
    Netlist nl;
    const NodeId in = nl.add_node();
    const NodeId mid = nl.add_node();
    const NodeId out = nl.add_node();
    const std::size_t l1 = nl.add_inductor(in, mid, 1e-9);
    const std::size_t l2 = nl.add_inductor(mid, out, 1e-9);
    if (m != 0.0) nl.add_mutual(l1, l2, m);
    nl.add_resistor(out, kGround, 20.0);
    nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
    TransientOptions opt;
    opt.t_stop = 2e-9;
    opt.dt = 0.5e-12;
    const auto t = simulate(nl, opt).waveform(out).first_rise_through(0.9);
    return t.value();
  };
  // Aiding coupling -> slower rise; opposing -> faster.
  EXPECT_GT(rise_time_to_90(+0.5e-9), rise_time_to_90(0.0));
  EXPECT_LT(rise_time_to_90(-0.5e-9), rise_time_to_90(0.0));
}

TEST(Transient, DcOperatingPointRespected) {
  // A DC source across a divider must start at the divided value, not 0.
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(2.0));
  nl.add_resistor(in, mid, 1e3);
  nl.add_resistor(mid, kGround, 1e3);
  nl.add_capacitor(mid, kGround, 1e-12);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-12;
  const TransientResult res = simulate(nl, opt);
  EXPECT_NEAR(res.voltage(mid, 0), 1.0, 1e-6);
  EXPECT_NEAR(res.waveform(mid).value_at(1e-9), 1.0, 1e-6);
}

TEST(Transient, CapacitiveDividerFloatingNodeStable) {
  // A node reachable only through capacitors must not blow up (gmin holds
  // it) and should follow the capacitive divider.
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  nl.add_capacitor(in, mid, 2e-15);
  nl.add_capacitor(mid, kGround, 2e-15);
  TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 0.5e-12;
  const Waveform v = simulate(nl, opt).waveform(mid);
  EXPECT_NEAR(v.value_at(5e-11), 0.5, 0.02);
}

TEST(Transient, GroundedWaveformIsZero) {
  Netlist nl;
  const NodeId in = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(in, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 1e-12;
  const TransientResult res = simulate(nl, opt);
  const Waveform g = res.waveform(kGround);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
  EXPECT_DOUBLE_EQ(g.min(), 0.0);
}

TEST(Transient, OptionValidation) {
  Netlist nl;
  const NodeId in = nl.add_node();
  nl.add_resistor(in, kGround, 1.0);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 0.0;
  EXPECT_THROW(simulate(nl, opt), std::invalid_argument);
  opt.dt = 1e-9;
  opt.t_stop = 0.5e-9;
  EXPECT_THROW(simulate(nl, opt), std::invalid_argument);
}

TEST(Transient, ResultAccessorsAndBounds) {
  Netlist nl;
  const NodeId in = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(in, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 1e-11;
  opt.dt = 1e-12;
  const TransientResult res = simulate(nl, opt);
  EXPECT_EQ(res.steps(), 11u);
  EXPECT_DOUBLE_EQ(res.dt(), 1e-12);
  EXPECT_NEAR(res.voltage(in, 5), 1.0, 1e-9);
  EXPECT_THROW(res.voltage(99, 0), std::out_of_range);
  EXPECT_THROW(res.voltage(in, 999), std::out_of_range);
}

TEST(Transient, EnergyConservationLcTank) {
  // Lossless LC tank excited through a tiny resistor: after the source
  // settles the oscillation amplitude must not grow (trapezoidal is
  // A-stable and non-dissipative).
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 5e-12));
  nl.add_resistor(in, out, 1.0);
  nl.add_inductor(out, kGround, 1e-9);
  nl.add_capacitor(out, kGround, 1e-12);
  TransientOptions opt;
  opt.t_stop = 20e-9;
  opt.dt = 1e-12;
  const Waveform v = simulate(nl, opt).waveform(out);
  // Peak in the second half must not exceed the global peak (no growth).
  double late_peak = 0.0;
  for (std::size_t i = v.size() / 2; i < v.size(); ++i)
    late_peak = std::max(late_peak, std::abs(v.sample(i)));
  EXPECT_LE(late_peak, std::abs(v.max()) + 1e-9);
}


// ---- Sparse vs dense oracle -------------------------------------------

struct HTreeCase {
  std::size_t sinks;
  bool inductance;
  bool alternate;
};

std::string case_name(const ::testing::TestParamInfo<HTreeCase>& info) {
  return std::to_string(info.param.sinks) + "sinks_" +
         (info.param.inductance ? "RLC" : "RC") +
         (info.param.alternate ? "_alternating" : "_one_layer");
}

class SparseVsDense : public ::testing::TestWithParam<HTreeCase> {};

TEST_P(SparseVsDense, HTreeWaveformsMatchAtEveryNodeAndStep) {
  const HTreeCase c = GetParam();
  const clocktree::HTreeSpec spec = testing::cpw_htree(c.sinks, c.alternate);
  const Netlist nl = testing::htree_netlist(spec, c.inductance).netlist;
  // The skew analysis's step (t_rise / 50) over the ramp and the first
  // reflections: past the 50 % crossing of every sink.
  TransientOptions opt;
  opt.dt = spec.driver.t_rise / 50.0;
  opt.t_stop = 4.0 * spec.driver.t_rise;
  const std::string mismatch = testing::compare_waveforms(
      nl, simulate(nl, opt), testing::dense_transient_reference(nl, opt));
  EXPECT_TRUE(mismatch.empty()) << mismatch;
}

std::vector<HTreeCase> htree_cases() {
  std::vector<HTreeCase> out;
  for (std::size_t sinks : {4, 8, 16, 32})
    for (bool inductance : {true, false})
      for (bool alternate : {false, true})
        out.push_back({sinks, inductance, alternate});
  return out;
}

INSTANTIATE_TEST_SUITE_P(CpwHTrees, SparseVsDense,
                         ::testing::ValuesIn(htree_cases()), case_name);

TEST(Transient, ResistorBetweenTwoPrivateNodesMatchesOracle) {
  // in -L1- m1 -R- m2 -L2- out: m1 and m2 each carry one resistor and
  // one inductor's `a`, but the resistor joins them, so neither can be
  // condensed into its branch (each would drive from the other).
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId m1 = nl.add_node("m1");
  const NodeId m2 = nl.add_node("m2");
  const NodeId out = nl.add_node("out");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  const std::size_t l1 = nl.add_inductor(m1, in, 0.5e-9);
  nl.add_resistor(m1, m2, 20.0);
  const std::size_t l2 = nl.add_inductor(m2, out, 0.5e-9);
  nl.add_coupling(l1, l2, 0.3);
  nl.add_capacitor(out, kGround, 0.2e-12);
  TransientOptions opt;
  opt.t_stop = 200e-12;
  opt.dt = 1e-12;
  const std::string mismatch = testing::compare_waveforms(
      nl, simulate(nl, opt), testing::dense_transient_reference(nl, opt));
  EXPECT_TRUE(mismatch.empty()) << mismatch;
}

TEST(Transient, CoupledGroupsOfEveryArityMatchOracle) {
  // Groups of 1..6 pairwise-coupled R-L branches off one driven node: the
  // fixed-arity group updates (k <= 4) and the generic one (k > 4).
  Netlist nl;
  const NodeId src = nl.add_node("src");
  const NodeId drv = nl.add_node("drv");
  nl.add_vsource(src, kGround, SourceWaveform::ramp(1.0, 10e-12));
  nl.add_resistor(src, drv, 25.0);
  for (std::size_t k = 1; k <= 6; ++k) {
    std::vector<std::size_t> group;
    for (std::size_t t = 0; t < k; ++t) {
      const NodeId mid = nl.add_node();
      const NodeId out = nl.add_node();
      nl.add_resistor(drv, mid, 5.0 + static_cast<double>(t));
      group.push_back(
          nl.add_inductor(mid, out, (0.4 + 0.1 * static_cast<double>(t)) *
                                        1e-9));
      nl.add_capacitor(out, kGround, 0.1e-12 * static_cast<double>(1 + t));
    }
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b)
        nl.add_coupling(group[a], group[b], 0.2);
  }
  TransientOptions opt;
  opt.t_stop = 200e-12;
  opt.dt = 1e-12;
  const std::string mismatch = testing::compare_waveforms(
      nl, simulate(nl, opt), testing::dense_transient_reference(nl, opt));
  EXPECT_TRUE(mismatch.empty()) << mismatch;
}

TEST(Transient, IsBitIdenticalAcrossRuns) {
  const clocktree::HTreeSpec spec = testing::cpw_htree(8, true);
  const Netlist nl = testing::htree_netlist(spec, true).netlist;
  TransientOptions opt;
  opt.dt = spec.driver.t_rise / 50.0;
  opt.t_stop = 2.0 * spec.driver.t_rise;
  const TransientResult a = simulate(nl, opt);
  const TransientResult b = simulate(nl, opt);
  for (NodeId n = 1; n < nl.node_count(); ++n)
    for (std::size_t s = 0; s < a.steps(); ++s)
      ASSERT_EQ(a.voltage(n, s), b.voltage(n, s)) << n << " " << s;
}

TEST(Transient, ParallelVoltageSourcesAreSingular) {
  // Two ideal sources across the same node pair: their branch currents are
  // indistinguishable, so the MNA system is exactly singular.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  nl.add_resistor(in, kGround, 50.0);
  TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 1e-12;
  EXPECT_THROW(simulate(nl, opt), diag::SingularSystem);
  EXPECT_THROW(testing::dense_transient_reference(nl, opt),
               diag::SingularSystem);
}

TEST(Transient, SingularInductorGroupWithoutSeriesRIsTyped) {
  // Three inductors with no series R whose pairwise couplings are each
  // legal (|k| = 0.5) but whose inductance matrix is exactly singular: the
  // condensed group's diag(R) + (2/dt) L block has no pivot, so the
  // transient refuses it with a typed error naming an inductor.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  std::size_t ind[3];
  for (int j = 0; j < 3; ++j) {
    const NodeId n = nl.add_node(std::string("n").append(std::to_string(j)));
    ind[j] = nl.add_inductor(in, n, 1e-9);
    nl.add_resistor(n, kGround, 50.0);
  }
  nl.add_mutual(ind[0], ind[1], 0.5e-9);
  nl.add_mutual(ind[0], ind[2], 0.5e-9);
  nl.add_mutual(ind[1], ind[2], -0.5e-9);
  TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 1e-12;
  try {
    simulate(nl, opt);
    FAIL() << "a singular inductor group must be refused";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.stage(), "transient");
    EXPECT_NE(std::string(e.what()).find("inductor 2 ('in' -> 'n2')"),
              std::string::npos)
        << e.what();
  }
}

TEST(Transient, DivergenceNamesTheOraclesFirstRunawayStepAndNode) {
  // Three inductors whose pairwise couplings are each legal (|k| < 1) but
  // whose inductance matrix is indefinite: the negative-energy mode grows
  // without bound.  The guard must stop at the first step where the dense
  // oracle (which has no guard) leaves the 1 kV bound, on the same node.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  std::size_t ind[3];
  for (int j = 0; j < 3; ++j) {
    const NodeId n = nl.add_node(std::string("n").append(std::to_string(j)));
    nl.add_resistor(in, n, 10.0);
    ind[j] = nl.add_inductor(n, kGround, 1e-9);
  }
  nl.add_coupling(ind[0], ind[1], 0.9);
  nl.add_coupling(ind[0], ind[2], 0.9);
  nl.add_coupling(ind[1], ind[2], -0.9);
  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-12;

  const TransientResult ref = testing::dense_transient_reference(nl, opt);
  std::size_t step = 0;
  NodeId node = 0;
  for (std::size_t s = 0; s < ref.steps() && node == 0; ++s)
    for (NodeId n = 1; n < nl.node_count() && node == 0; ++n)
      if (!(std::abs(ref.voltage(n, s)) <= opt.divergence_limit)) {
        step = s;
        node = n;
      }
  ASSERT_NE(node, 0) << "the oracle must diverge within t_stop";
  try {
    simulate(nl, opt);
    FAIL() << "the divergence guard must halt the march";
  } catch (const diag::NumericError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at step " + std::to_string(step) + " "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("node '" + nl.node_name(node) + "'"),
              std::string::npos)
        << what;
  }
}

TEST(Transient, CancellationStopsAtAStepBoundary) {
  // The fault schedule cancels at the 40th checkpoint, which is the top of
  // step 40: no checkpoint runs after it, so the march unwound before
  // starting another step.
  const clocktree::HTreeSpec spec = testing::cpw_htree(4, false);
  const Netlist nl = testing::htree_netlist(spec, true).netlist;
  TransientOptions opt;
  opt.dt = spec.driver.t_rise / 50.0;
  opt.t_stop = 2.0 * spec.driver.t_rise;
  run::RunControl rc;
  run::ScopedRunControl scope(rc);
  run::FaultInjector::global().set_schedule("cancel:40");
  EXPECT_THROW(simulate(nl, opt), diag::CancelledError);
  EXPECT_EQ(run::FaultInjector::global().calls("cancel"), 40u);
  EXPECT_EQ(run::FaultInjector::global().triggered("cancel"), 1u);
  run::FaultInjector::global().clear();
}

// D2M tracks the 50 % arrival of a near-step-driven RC tree within
// kD2mTolerance at every depth: EXPERIMENTS.md (A5, bench_moments) puts
// D2M within 0.4 % of transient on the extracted RC netlist, and the
// CPW trees of 2-6 levels land within 0.15 % (docs/performance.md).
constexpr double kD2mTolerance = 0.004;

class RcTreeD2m : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RcTreeD2m, SinkArrivalsMatchD2m) {
  const std::size_t levels = GetParam();
  clocktree::HTreeSpec spec =
      testing::cpw_htree(std::size_t{1} << (levels - 1), false);
  const clocktree::TreeNetlist tree = testing::htree_netlist(spec, false);
  // Same tree, driven by a near-step: a 1 ps ramp at the driver input.
  Netlist nl;
  for (NodeId n = 1; n < tree.netlist.node_count(); ++n) nl.add_node();
  const NodeId clk = tree.netlist.vsources()[0].a;
  nl.add_vsource(clk, kGround, SourceWaveform::ramp(1.0, 1e-12));
  for (const Resistor& r : tree.netlist.resistors())
    nl.add_resistor(r.a, r.b, r.ohms);
  for (const Capacitor& c : tree.netlist.capacitors())
    nl.add_capacitor(c.a, c.b, c.farads);

  const auto m = transfer_moments(nl, 2);
  TransientOptions opt;
  opt.dt = 0.25e-12;
  opt.t_stop = 0.0;
  for (const NodeId sink : tree.sinks) {
    const double d2m = std::log(2.0) *
                       m[1][static_cast<std::size_t>(sink)] *
                       m[1][static_cast<std::size_t>(sink)] /
                       std::sqrt(m[2][static_cast<std::size_t>(sink)]);
    opt.t_stop = std::max(opt.t_stop, 4.0 * d2m);
  }
  const TransientResult res = simulate(nl, opt);
  for (const NodeId sink : tree.sinks) {
    const auto t50 = res.waveform(sink).first_rise_through(0.5);
    ASSERT_TRUE(t50.has_value());
    // The ramp's midpoint, 0.5 ps, is the step's effective start.
    const double arrival = *t50 - 0.5e-12;
    EXPECT_NEAR(d2m_delay(nl, sink), arrival, kD2mTolerance * arrival)
        << "sink node " << sink << " of a " << levels << "-level tree";
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, RcTreeD2m,
                         ::testing::Range<std::size_t>(2, 7));

}  // namespace
}  // namespace rlcx::ckt
