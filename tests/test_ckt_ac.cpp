// Validation of the AC small-signal engine against closed forms, against
// the transient engine, and against the dense complex LU on H-tree
// netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "ckt/ac.h"
#include "ckt/mna.h"
#include "ckt/transient.h"
#include "diag/error.h"
#include "support/htree_fixture.h"
#include "support/lu_reference.h"

namespace rlcx::ckt {
namespace {

using Complex = std::complex<double>;

/// Node voltages of (G + jwC) x = b, with G + jwC densified and factored by
/// the textbook LU: the oracle of the sparse AC solve.  `rhs` is indexed
/// by MNA row.
std::vector<Complex> dense_ac(const Netlist& nl, double frequency,
                              const std::vector<Complex>& rhs) {
  const Mna mna(nl);
  std::vector<numeric::Triplet> g, c;
  mna.stamp_g(g);
  mna.stamp_c(2.0 * std::numbers::pi * frequency, c);
  ComplexMatrix a(mna.dim(), mna.dim());
  for (const numeric::Triplet& t : g) a(t.row, t.col) += t.value;
  for (const numeric::Triplet& t : c)
    a(t.row, t.col) += Complex(0.0, t.value);
  const std::vector<Complex> x =
      LuDecomposition<Complex>(std::move(a)).solve(rhs);
  std::vector<Complex> v(static_cast<std::size_t>(nl.node_count()));
  for (NodeId n = 1; n < nl.node_count(); ++n)
    v[static_cast<std::size_t>(n)] = x[mna.node_row(n)];
  return v;
}

double max_abs(const std::vector<Complex>& v) {
  double m = 0.0;
  for (const Complex& z : v) m = std::max(m, std::abs(z));
  return m;
}

TEST(Ac, SparseSolveMatchesDenseLuOnHTrees) {
  // 4- and 16-sink CPW trees, RLC(K) and RC, from 0.1 to 20 GHz: the
  // source-driven node voltages and the driving-point impedance agree with
  // the dense LU to 1e-11 of the largest node voltage.
  for (const std::size_t sinks : {4u, 16u})
    for (const bool inductance : {true, false}) {
      const clocktree::TreeNetlist tree =
          testing::htree_netlist(testing::cpw_htree(sinks, false), inductance);
      const Netlist& nl = tree.netlist;
      const Mna mna(nl);
      for (const double f : {0.1e9, 2e9, 20e9}) {
        SCOPED_TRACE(::testing::Message()
                     << sinks << " sinks, " << (inductance ? "RLC" : "RC")
                     << ", " << f << " Hz");
        std::vector<Complex> drive(mna.dim());
        drive[mna.vsource_row(0)] = 1.0;
        const std::vector<Complex> want = dense_ac(nl, f, drive);
        const std::vector<Complex> got = ac_solve(nl, f);
        ASSERT_EQ(got.size(), want.size());
        const double tol = 1e-11 * max_abs(want);
        for (std::size_t n = 0; n < want.size(); ++n)
          EXPECT_LE(std::abs(got[n] - want[n]), tol) << "node " << n;

        std::vector<Complex> inject(mna.dim());
        inject[mna.node_row(tree.driver_out)] = 1.0;
        const std::vector<Complex> port = dense_ac(nl, f, inject);
        const Complex z_want =
            port[static_cast<std::size_t>(tree.driver_out)];
        EXPECT_LE(std::abs(ac_input_impedance(nl, f, tree.driver_out) -
                           z_want),
                  1e-11 * max_abs(port));
      }
    }
}

TEST(Ac, LoopOfVoltageSourcesIsSingular) {
  // Two ideal sources in parallel close a loop of voltage sources: the
  // system is singular, a typed numeric failure.
  Netlist nl;
  const NodeId a = nl.add_node();
  nl.add_vsource(a, kGround, SourceWaveform::dc(1.0));
  nl.add_vsource(a, kGround, SourceWaveform::dc(2.0));
  nl.add_resistor(a, kGround, 50.0);
  EXPECT_THROW(ac_solve(nl, 1e9), diag::SingularSystem);
  EXPECT_THROW(ac_input_impedance(nl, 1e9, a), diag::SingularSystem);
}

TEST(Ac, RcLowPassMagnitudeAndPhase) {
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-12);

  // At the corner: |H| = 1/sqrt(2), phase -45 deg.
  const auto h = ac_transfer(nl, fc, out);
  EXPECT_NEAR(std::abs(h), 1.0 / std::numbers::sqrt2, 1e-6);
  EXPECT_NEAR(std::arg(h), -std::numbers::pi / 4.0, 1e-6);
  // A decade above: |H| ~ 0.0995.
  EXPECT_NEAR(std::abs(ac_transfer(nl, 10.0 * fc, out)),
              1.0 / std::sqrt(101.0), 1e-6);
}

TEST(Ac, SeriesRlcResonance) {
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(in, mid, 5.0);
  nl.add_inductor(mid, out, 1e-9);
  nl.add_capacitor(out, kGround, 1e-12);
  const double f0 =
      1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-9 * 1e-12));
  // Q = (1/R) sqrt(L/C) = 6.32; |H(f0)| = Q.
  const double q = std::sqrt(1e-9 / 1e-12) / 5.0;
  EXPECT_NEAR(std::abs(ac_transfer(nl, f0, out)), q, 0.01 * q);
}

TEST(Ac, InputImpedanceOfSeriesRlcAtResonance) {
  // Series R-L-C chain to ground.
  Netlist nl2;
  const NodeId a = nl2.add_node();
  const NodeId b = nl2.add_node();
  const NodeId c = nl2.add_node();
  nl2.add_resistor(a, b, 7.0);
  nl2.add_inductor(b, c, 2e-9);
  nl2.add_capacitor(c, kGround, 0.5e-12);
  const double f0 =
      1.0 / (2.0 * std::numbers::pi * std::sqrt(2e-9 * 0.5e-12));
  const auto z = ac_input_impedance(nl2, f0, a);
  // At resonance the reactances cancel: Z = R.
  EXPECT_NEAR(z.real(), 7.0, 0.05);
  EXPECT_NEAR(z.imag(), 0.0, 0.2);
}

TEST(Ac, InputImpedanceShortsVoltageSources) {
  // R in series with an ideal source: looking in from the top sees only R.
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0);
  nl.add_vsource(b, kGround, SourceWaveform::dc(5.0));
  const auto z = ac_input_impedance(nl, 1e9, a);
  EXPECT_NEAR(z.real(), 50.0, 1e-6);
  EXPECT_NEAR(z.imag(), 0.0, 1e-6);
}

TEST(Ac, MutualCouplingSeriesAiding) {
  // Two coupled inductors in series: Z = jw (L1 + L2 + 2M) above the gmin
  // floor.
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId m = nl.add_node();
  const std::size_t l1 = nl.add_inductor(a, m, 1e-9);
  const std::size_t l2 = nl.add_inductor(m, kGround, 1e-9);
  nl.add_mutual(l1, l2, 0.6e-9);
  const double f = 1e9;
  const auto z = ac_input_impedance(nl, f, a);
  const double expect = 2.0 * std::numbers::pi * f * (1e-9 + 1e-9 + 1.2e-9);
  EXPECT_NEAR(z.imag(), expect, 1e-3 * expect);
}

TEST(Ac, MatchesTransientSteadyStateForDivider) {
  // Resistive divider: AC transfer at any frequency equals the DC ratio.
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::dc(1.0));
  nl.add_resistor(in, mid, 3e3);
  nl.add_resistor(mid, kGround, 1e3);
  const auto h = ac_transfer(nl, 1e6, mid);
  EXPECT_NEAR(h.real(), 0.25, 1e-9);
  EXPECT_NEAR(h.imag(), 0.0, 1e-9);
}

TEST(Ac, CrossChecksTransientRingingFrequency) {
  // The transient ringing period of an underdamped RLC must match the AC
  // resonance peak location.
  Netlist nl;
  const NodeId in = nl.add_node();
  const NodeId mid = nl.add_node();
  const NodeId out = nl.add_node();
  nl.add_vsource(in, kGround, SourceWaveform::ramp(1.0, 1e-12));
  nl.add_resistor(in, mid, 8.0);
  nl.add_inductor(mid, out, 1e-9);
  nl.add_capacitor(out, kGround, 1e-12);

  // AC: find the peak by scanning.
  double best_f = 0.0, best = 0.0;
  for (double f = 2e9; f < 10e9; f *= 1.02) {
    const double mag = std::abs(ac_transfer(nl, f, out));
    if (mag > best) {
      best = mag;
      best_f = f;
    }
  }
  // Transient: measure the first two overshoot peaks' spacing.
  TransientOptions topt;
  topt.t_stop = 3e-9;
  topt.dt = 0.2e-12;
  const Waveform w = simulate(nl, topt).waveform(out);
  std::vector<double> peaks;
  for (std::size_t i = 2; i + 2 < w.size(); ++i) {
    if (w.sample(i) > w.sample(i - 1) && w.sample(i) > w.sample(i + 1) &&
        w.sample(i) > 1.01)
      peaks.push_back(w.time(i));
    if (peaks.size() == 2) break;
  }
  ASSERT_EQ(peaks.size(), 2u);
  const double f_ring = 1.0 / (peaks[1] - peaks[0]);
  EXPECT_NEAR(f_ring, best_f, 0.08 * best_f);
}

TEST(Ac, ErrorPaths) {
  Netlist nl;
  const NodeId a = nl.add_node();
  nl.add_resistor(a, kGround, 1.0);
  EXPECT_THROW(ac_solve(nl, 1e9, 0), std::out_of_range);  // no sources
  nl.add_vsource(a, kGround, SourceWaveform::dc(1.0));
  EXPECT_THROW(ac_solve(nl, 0.0, 0), std::invalid_argument);
  EXPECT_THROW(ac_solve(nl, 1e9, 3), std::out_of_range);
}

}  // namespace
}  // namespace rlcx::ckt
