// The transient's stop rule (docs/performance.md, "Stopping the march
// once the measures are final"): a march that registers the measures its
// caller reads may end early, but only where the deviation-energy
// certificate proves that no later step moves any of them.  Checked on
// seeded passive RLC(K) and RC lines and on 4-16-sink CPW H-trees against
// the unregistered march to t_stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ckt/companion.h"
#include "ckt/mna.h"
#include "ckt/transient.h"
#include "clocktree/skew.h"
#include "diag/error.h"
#include "numeric/sparse_lu.h"
#include "res/budget.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "support/htree_fixture.h"

namespace rlcx::ckt {
namespace {

constexpr double kVdd = 1.8;

/// A netlist, its transient settings and the measures a caller reads.
struct Case {
  Netlist nl;
  TransientOptions opt;  ///< measures registered
  std::string name;
};

/// A seeded passive line: a ramp behind a driver resistance into 1-3
/// parallel traces of 2-8 sections each (series R, then L when
/// `inductance`, a capacitor to ground at every section end, coupling
/// capacitance between neighbouring traces and mutual inductance between
/// the traces' inductors of a section), every trace driven through its own
/// resistor and loaded at its end.  Trace 0's end is the sink; every trace
/// end is watched, as cmd_delay watches its sink.
Case seeded_line(std::uint64_t seed, bool inductance) {
  std::mt19937_64 rng(seed);
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto log_uni = [&](double lo, double hi) {
    return std::exp(uni(std::log(lo), std::log(hi)));
  };
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Case c;
  c.name = std::string(inductance ? "RLC" : "RC") + " line, seed " +
           std::to_string(seed);
  Netlist& nl = c.nl;
  const double tr = uni(20e-12, 200e-12);
  const NodeId vin = nl.add_node("vin");
  const NodeId buf = nl.add_node("buf");
  nl.add_vsource(vin, kGround, SourceWaveform::ramp(kVdd, tr));
  nl.add_resistor(vin, buf, uni(10.0, 80.0));
  const int traces = pick(1, 3);
  const int sections = pick(2, 8);
  std::vector<NodeId> head(static_cast<std::size_t>(traces));
  for (NodeId& h : head) {
    h = nl.add_node();
    nl.add_resistor(buf, h, uni(1.0, 20.0));
  }
  for (int s = 0; s < sections; ++s) {
    std::vector<std::size_t> section;
    std::vector<NodeId> tail;
    for (NodeId& h : head) {
      const NodeId t = nl.add_node();
      if (inductance) {
        const NodeId mid = nl.add_node();
        nl.add_resistor(h, mid, log_uni(0.5, 30.0));
        section.push_back(nl.add_inductor(mid, t, log_uni(1e-11, 5e-10)));
      } else {
        nl.add_resistor(h, t, log_uni(0.5, 30.0));
      }
      nl.add_capacitor(t, kGround, log_uni(5e-15, 2e-13));
      tail.push_back(t);
      h = t;
    }
    for (std::size_t i = 0; i + 1 < tail.size(); ++i)
      nl.add_capacitor(tail[i], tail[i + 1], log_uni(1e-15, 5e-14));
    for (std::size_t i = 0; i < section.size(); ++i)
      for (std::size_t j = i + 1; j < section.size(); ++j)
        nl.add_coupling(section[i], section[j],
                        (pick(0, 1) == 0 ? 1.0 : -1.0) * uni(0.05, 0.4));
  }
  for (const NodeId h : head)
    nl.add_capacitor(h, kGround, log_uni(2e-14, 3e-13));
  c.opt.dt = tr / 200.0;
  c.opt.t_stop = 10.0 * tr + 1e-9;
  c.opt.measures.crossings = {{buf, 0.5 * kVdd}, {head[0], 0.5 * kVdd}};
  for (const NodeId h : head)
    c.opt.measures.extremes.push_back({h, kVdd, 0.0});
  return c;
}

/// A CPW H-tree with analyze_skew's settings and measures.
Case htree_case(std::size_t sinks, bool inductance) {
  const clocktree::HTreeSpec spec = testing::cpw_htree(sinks, false);
  const clocktree::TreeNetlist tree =
      testing::htree_netlist(spec, inductance);
  Case c;
  c.name = std::to_string(sinks) + "-sink " +
           (inductance ? "RLC" : "RC") + " H-tree";
  c.nl = tree.netlist;
  c.opt.dt = spec.driver.t_rise / 50.0;
  c.opt.t_stop = spec.driver.t_rise * 10.0 + 2e-9;
  c.opt.measures = clocktree::skew_measures(tree, spec.driver.vdd);
  return c;
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    for (const bool inductance : {true, false})
      out.push_back(seeded_line(seed, inductance));
  for (const std::size_t sinks : {4, 8, 16})
    for (const bool inductance : {true, false})
      out.push_back(htree_case(sinks, inductance));
  return out;
}

TransientResult full_march(const Case& c) {
  TransientOptions opt = c.opt;
  opt.measures = {};
  return simulate(c.nl, opt);
}

std::size_t full_steps(const TransientOptions& opt) {
  return static_cast<std::size_t>(std::ceil(opt.t_stop / opt.dt)) + 1;
}

/// `nl` with its one source driven by `w` instead.
Netlist redriven(const Netlist& nl, SourceWaveform w) {
  Netlist out;
  for (NodeId n = 1; n < nl.node_count(); ++n) out.add_node();
  out.add_vsource(nl.vsources()[0].a, nl.vsources()[0].b, std::move(w));
  for (const Resistor& r : nl.resistors()) out.add_resistor(r.a, r.b, r.ohms);
  for (const Capacitor& c : nl.capacitors())
    out.add_capacitor(c.a, c.b, c.farads);
  for (const Inductor& l : nl.inductors())
    out.add_inductor(l.a, l.b, l.henries);
  for (const MutualInductance& m : nl.mutuals())
    out.add_mutual(m.l1, m.l2, m.henries);
  return out;
}

/// (a) Registered and unregistered marches read the same crossings and
/// the same floored max and capped min, bit for bit; (b) the stop is
/// never before the full march's last crossing or extremum change.
TEST(TransientStop, StoppedMarchReadsTheFullMarchsMeasures) {
  std::size_t lines = 0, lines_stopped = 0;
  for (const Case& c : all_cases()) {
    const TransientResult full = full_march(c);
    const TransientResult reg = simulate(c.nl, c.opt);
    ASSERT_EQ(full.steps(), full_steps(c.opt)) << c.name;
    ASSERT_LE(reg.steps(), full.steps()) << c.name;
    const std::size_t last = reg.steps() - 1;
    if (reg.steps() < full.steps()) {
      EXPECT_EQ(last % kCertificateInterval, 0u) << c.name;
    }
    if (c.name.find("line") != std::string::npos) {
      ++lines;
      lines_stopped += reg.steps() < full.steps() ? 1 : 0;
    }
    // The stopped march is a prefix of the full one.
    for (NodeId n = 1; n < c.nl.node_count(); ++n)
      ASSERT_EQ(reg.voltage(n, last), full.voltage(n, last)) << c.name;

    for (const MeasureSet::Crossing& x : c.opt.measures.crossings) {
      const auto want = full.waveform(x.node).first_rise_through(x.level);
      const auto got = reg.waveform(x.node).first_rise_through(x.level);
      ASSERT_TRUE(want.has_value()) << c.name;
      ASSERT_TRUE(got.has_value()) << c.name;
      EXPECT_EQ(*got, *want) << c.name;
      EXPECT_LE(*want, reg.dt() * static_cast<double>(last)) << c.name;
    }
    for (const MeasureSet::Extremes& x : c.opt.measures.extremes) {
      const Waveform w = full.waveform(x.node);
      const Waveform r = reg.waveform(x.node);
      EXPECT_EQ(std::max(x.floor, r.max()), std::max(x.floor, w.max()))
          << c.name << ", node " << x.node;
      EXPECT_EQ(std::min(x.cap, r.min()), std::min(x.cap, w.min()))
          << c.name << ", node " << x.node;
      // The last step of the full march that moves either measure.
      double hi = x.floor, lo = x.cap;
      std::size_t moved = 0;
      for (std::size_t s = 0; s < w.size(); ++s) {
        const double v = w.sample(s);
        if (v > hi || v < lo) moved = s;
        hi = std::max(hi, v);
        lo = std::min(lo, v);
      }
      EXPECT_LE(moved, last) << c.name << ", node " << x.node;
    }
  }
  // The rule must actually fire, or the checks above are vacuous: the
  // seeded lines settle well inside their horizon.
  EXPECT_GE(2 * lines_stopped, lines)
      << lines_stopped << " of " << lines << " lines stopped";
}

/// Energy that moves between nodes after the watched node looks settled:
/// two lightly damped LC tanks joined by a capacitor Cc, the driven tank
/// A ringing about 1 V, the watched tank B about 0 V.  B's swing grows
/// for nanoseconds as the beat moves A's energy into it, so the bound
/// must count A's energy, inductor included, against B's own capacitance
/// to ground alone, Cc excluded.  B's max and min are watched together
/// and each alone (the other side pinned by its floor or cap).
TEST(TransientStop, EnergyBeatingIntoTheWatchedNodeIsNotMissed) {
  for (const double cc : {0.02e-12, 0.05e-12, 0.2e-12, 1e-12, 3e-12}) {
    for (const auto& [floor, cap] :
         {std::pair{0.0, 0.0}, std::pair{5.0, 0.0}, std::pair{0.0, -5.0}}) {
      Netlist nl;
      const NodeId in = nl.add_node("in");
      const NodeId a = nl.add_node("a");
      const NodeId pa = nl.add_node("pa");
      const NodeId pb = nl.add_node("pb");
      nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
      nl.add_resistor(in, a, 1.0);
      nl.add_inductor(a, pa, 1e-9);
      nl.add_capacitor(pa, kGround, 1e-12);
      nl.add_inductor(pb, kGround, 1e-9);
      nl.add_capacitor(pb, kGround, 1e-12);
      nl.add_capacitor(pa, pb, cc);
      TransientOptions opt;
      opt.dt = 1e-12;
      opt.t_stop = 12e-9;
      opt.measures.crossings = {{pa, 0.5}};
      opt.measures.extremes = {{pb, floor, cap}};
      TransientOptions plain = opt;
      plain.measures = {};
      const Waveform want = simulate(nl, plain).waveform(pb);
      const Waveform got = simulate(nl, opt).waveform(pb);
      EXPECT_EQ(std::max(floor, got.max()), std::max(floor, want.max()))
          << "Cc " << cc << ", floor " << floor;
      EXPECT_EQ(std::min(cap, got.min()), std::min(cap, want.min()))
          << "Cc " << cc << ", cap " << cap;
    }
  }
}

/// A source that settles, holds, then pulses: the circuit sits at the
/// final DC point long before the last breakpoint, so the energy is
/// measured only from that breakpoint on.
TEST(TransientStop, PulseAfterSettlingIsNotMissed) {
  for (const bool inductance : {true, false}) {
    Case c = seeded_line(5, inductance);
    const double t1 = 0.6 * c.opt.t_stop;
    const double tr = c.nl.vsources()[0].waveform.points().back().first;
    c.nl = redriven(c.nl, SourceWaveform::pwl({{0.0, 0.0},
                                               {tr, kVdd},
                                               {t1, kVdd},
                                               {t1 + tr, 1.3 * kVdd},
                                               {t1 + 2.0 * tr, kVdd}}));
    const TransientResult full = full_march(c);
    const TransientResult reg = simulate(c.nl, c.opt);
    for (const MeasureSet::Extremes& x : c.opt.measures.extremes) {
      const double want = full.waveform(x.node).max();
      ASSERT_GT(want, 1.1 * kVdd) << c.name;
      EXPECT_EQ(std::max(x.floor, reg.waveform(x.node).max()), want)
          << c.name;
    }
  }
}

/// (c) From the last source breakpoint on, the deviation energy E from
/// the final DC point never rises by more than the energy of the rounding
/// slack on every capacitor, and every node with capacitance C_g to
/// ground stays within sqrt(2 E / C_g) + slack of its DC voltage at every
/// later step: the claim the stop rule rests on.
TEST(TransientStop, DeviationEnergyNeverRisesAfterTheLastBreakpoint) {
  for (const Case& c : all_cases()) {
    const Netlist& nl = c.nl;
    const double t_final = nl.vsources()[0].waveform.points().back().first;
    const Mna mna(nl);
    const std::vector<double> times{0.0, t_final};
    const std::vector<std::vector<double>> dc = mna.dc_points(times);
    CompanionSystem sys(nl, c.opt.dt);
    numeric::SparseLu lu(sys.matrix());
    sys.start(mna, dc[0]);
    sys.set_reference(mna, dc[1]);

    const auto nodes = static_cast<std::size_t>(nl.node_count());
    std::vector<double> cg(nodes, 0.0);
    double c_total = 0.0;
    for (const Capacitor& cap : nl.capacitors()) {
      c_total += cap.farads;
      if (cap.b == kGround) cg[static_cast<std::size_t>(cap.a)] += cap.farads;
      if (cap.a == kGround) cg[static_cast<std::size_t>(cap.b)] += cap.farads;
    }
    double scale = 1.0;
    for (NodeId n = 1; n < nl.node_count(); ++n)
      scale = std::max(scale, std::abs(dc[1][mna.node_row(n)]));
    const double slack = kCertificateSlack * scale;
    const double e_slack = 0.5 * c_total * slack * slack;

    const std::size_t steps = full_steps(c.opt);
    std::vector<double> prev(nodes, 0.0), row(nodes, 0.0);
    for (NodeId n = 1; n < nl.node_count(); ++n)
      prev[static_cast<std::size_t>(n)] = dc[0][mna.node_row(n)];
    std::vector<double> rhs(sys.dim() + 1);
    std::vector<double> energy;           // per step from the breakpoint
    std::vector<std::vector<double>> dev;  // |v - v_dc| per such step
    for (std::size_t step = 1; step < steps; ++step) {
      const double t = c.opt.dt * static_cast<double>(step);
      sys.load(t, prev.data(), rhs.data());
      lu.solve(rhs.data());
      ASSERT_TRUE(sys.advance(rhs.data(), row.data(), 1e3, true)) << c.name;
      if (t >= t_final) {
        energy.push_back(sys.deviation_energy(row.data()));
        std::vector<double> d(nodes, 0.0);
        for (NodeId n = 1; n < nl.node_count(); ++n)
          d[static_cast<std::size_t>(n)] =
              std::abs(row[static_cast<std::size_t>(n)] -
                       dc[1][mna.node_row(n)]);
        dev.push_back(std::move(d));
      }
      std::swap(prev, row);
    }
    ASSERT_FALSE(energy.empty()) << c.name;

    double low = energy.front();
    for (std::size_t s = 1; s < energy.size(); ++s) {
      EXPECT_LE(energy[s], low + e_slack)
          << c.name << ": E rose at breakpoint step +" << s;
      low = std::min(low, energy[s]);
    }
    // Walking backwards, `ahead` is the largest deviation at or after s.
    std::vector<double> ahead(nodes, 0.0);
    double worst = -1.0;
    for (std::size_t s = energy.size(); s-- > 0;) {
      for (std::size_t n = 1; n < nodes; ++n) {
        ahead[n] = std::max(ahead[n], dev[s][n]);
        if (cg[n] <= 0.0) continue;
        worst = std::max(worst,
                         ahead[n] - std::sqrt(2.0 * energy[s] / cg[n]));
      }
    }
    EXPECT_LE(worst, slack) << c.name;
  }
}

/// (d) A periodic source never certifies its extremes: the march runs to
/// t_stop.
TEST(TransientStop, ClockSourceMarchesInFull) {
  const Case c = seeded_line(3, true);
  const Netlist nl =
      redriven(c.nl, SourceWaveform::clock(kVdd, 400e-12, 20e-12));
  // The same line driven by a ramp stops early.
  ASSERT_LT(simulate(c.nl, c.opt).steps(), full_steps(c.opt));
  EXPECT_EQ(simulate(nl, c.opt).steps(), full_steps(c.opt));
}

/// A watched node without capacitance to ground has no energy bound:
/// its extremes are never certified.
TEST(TransientStop, WatchedNodeWithoutGroundedCapacitanceMarchesInFull) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  const NodeId out = nl.add_node("out");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  nl.add_resistor(in, mid, 50.0);
  nl.add_resistor(mid, out, 50.0);
  nl.add_capacitor(out, kGround, 0.1e-12);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 300e-12;
  opt.measures.crossings = {{out, 0.5}};
  opt.measures.extremes = {{out, 1.0, 0.0}};
  ASSERT_LT(simulate(nl, opt).steps(), full_steps(opt));
  opt.measures.extremes.push_back({mid, 1.0, 0.0});
  EXPECT_EQ(simulate(nl, opt).steps(), full_steps(opt));
}

/// Pairwise-legal couplings that sum to an indefinite inductance matrix:
/// the energy is no norm, so nothing is certified and the divergence
/// guard halts the registered march exactly as the unregistered one.
TEST(TransientStop, IndefiniteInductanceIsNeverCertified) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 10e-12));
  std::size_t ind[3];
  NodeId out[3];
  for (int j = 0; j < 3; ++j) {
    out[j] = nl.add_node();
    nl.add_resistor(in, out[j], 10.0);
    ind[j] = nl.add_inductor(out[j], kGround, 1e-9);
    nl.add_capacitor(out[j], kGround, 1e-13);
  }
  nl.add_coupling(ind[0], ind[1], 0.9);
  nl.add_coupling(ind[0], ind[2], 0.9);
  nl.add_coupling(ind[1], ind[2], -0.9);
  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-12;
  opt.measures.extremes = {{out[0], 1.0, 0.0}};
  EXPECT_FALSE(CompanionSystem(nl, opt.dt).passive());
  EXPECT_THROW(simulate(nl, opt), diag::NumericError);
}

/// (e) A registered march still unwinds at a step checkpoint when
/// cancelled, and is still refused at stage `transient` when the full
/// march's result block does not fit the budget.
TEST(TransientStop, RegisteredMarchCancelsAtAStepBoundary) {
  const Case c = seeded_line(1, true);
  run::RunControl rc;
  run::ScopedRunControl scope(rc);
  run::FaultInjector::global().set_schedule("cancel:40");
  EXPECT_THROW(simulate(c.nl, c.opt), diag::CancelledError);
  EXPECT_EQ(run::FaultInjector::global().calls("cancel"), 40u);
  EXPECT_EQ(run::FaultInjector::global().triggered("cancel"), 1u);
  run::FaultInjector::global().clear();
}

TEST(TransientStop, RegisteredMarchOverBudgetIsRefusedAtTheTransient) {
  Case c = seeded_line(1, false);
  // 10^6 + 1 steps of the full march: tens of MB, refused although the
  // march would stop within a few thousand steps.
  c.opt.t_stop = 1e6 * c.opt.dt;
  ASSERT_LT(simulate(c.nl, c.opt).steps(), 10000u);
  res::Budget& b = res::Budget::global();
  const std::uint64_t saved = b.limit();
  b.set_limit(std::uint64_t{1} << 20);
  const res::Stats s0 = b.stats();
  try {
    (void)simulate(c.nl, c.opt);
    ADD_FAILURE() << "expected ResourceExhaustedError";
  } catch (const diag::ResourceExhaustedError& e) {
    EXPECT_EQ(e.stage(), "transient");
  }
  EXPECT_EQ(b.stats().refusals - s0.refusals, 1u);
  b.set_limit(saved);
}

}  // namespace
}  // namespace rlcx::ckt
