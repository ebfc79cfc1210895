// Cross-module property sweeps (parameterised): physical invariants that
// must hold over whole regions of the geometry/parameter space, not just at
// hand-picked points.
#include <gtest/gtest.h>

#include <cmath>

#include "cap/extractor.h"
#include "ckt/transient.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/partial_inductance.h"
#include "solver/block_solver.h"
#include "support/partial_reference.h"

namespace rlcx {
namespace {

using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

// ---------------------------------------------------------------- PEEC --

struct PairGeom {
  double w1_um, w2_um, s_um, l_um;
};

class PeecPairSweep : public ::testing::TestWithParam<PairGeom> {};

TEST_P(PeecPairSweep, PassivityAndSymmetry) {
  const PairGeom g = GetParam();
  peec::Bar a;
  a.t_width = um(g.w1_um);
  a.z_thick = um(2);
  a.length = um(g.l_um);
  peec::Bar b = a;
  b.t_width = um(g.w2_um);
  b.t_min = um(g.w1_um + g.s_um);

  const double l1 = peec::self_partial(a);
  const double l2 = peec::self_partial(b);
  const double m12 = peec::mutual_partial(a, b);
  const double m21 = peec::mutual_partial(b, a);

  EXPECT_GT(l1, 0.0);
  EXPECT_GT(l2, 0.0);
  EXPECT_GT(m12, 0.0);
  // Exchange symmetry.
  EXPECT_NEAR(m12, m21, 1e-6 * m12);
  // Passivity (2x2 Lp matrix positive definite): M < sqrt(L1 L2).
  EXPECT_LT(m12, std::sqrt(l1 * l2));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PeecPairSweep,
    ::testing::Values(PairGeom{1.0, 1.0, 0.5, 200.0},
                      PairGeom{10.0, 5.0, 1.0, 6000.0},
                      PairGeom{2.0, 18.0, 4.0, 1500.0},
                      PairGeom{8.0, 8.0, 0.3, 800.0},
                      PairGeom{1.2, 1.2, 1.2, 100.0},
                      PairGeom{20.0, 20.0, 10.0, 4000.0}));

// --------------------------------------------------------------- solver --

class LoopFrequencySweep : public ::testing::TestWithParam<double> {};

TEST_P(LoopFrequencySweep, MonotoneSkinEffect) {
  // R(f) never decreases and L(f) never increases with frequency.
  const double f = GetParam();
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(1500), um(10), um(10), um(1));
  solver::SolveOptions lo, hi;
  lo.frequency = f;
  hi.frequency = 2.0 * f;
  const solver::LoopResult a = solver::extract_loop(blk, lo);
  const solver::LoopResult b = solver::extract_loop(blk, hi);
  EXPECT_LE(a.resistance(0, 0), b.resistance(0, 0) * (1.0 + 1e-9));
  EXPECT_GE(a.inductance(0, 0), b.inductance(0, 0) * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, LoopFrequencySweep,
                         ::testing::Values(1e8, 4e8, 1.6e9, 6.4e9, 12.8e9));

class LoopMatrixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LoopMatrixSweep, PositiveDefiniteLoopMatrix) {
  // The loop inductance matrix of an n-signal array over a plane stores
  // magnetic energy: x^T L x > 0 for every test vector.
  const std::size_t n = GetParam();
  const geom::Block arr = geom::uniform_array(
      tech(), 6, um(1000), n, um(3), um(3), geom::PlaneConfig::kBelow);
  solver::SolveOptions opt;
  opt.frequency = 3.2e9;
  opt.plane.strips = 9;
  const solver::LoopResult r = solver::extract_loop(arr, opt);
  for (int trial = 0; trial < 12; ++trial) {
    double energy = 0.0;
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::sin(static_cast<double>(trial * 13 + 5 * i + 1));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        energy += x[i] * r.inductance(i, j) * x[j];
    EXPECT_GT(energy, 0.0) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, LoopMatrixSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5));

// ------------------------------------------------------------------ cap --

class CapWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(CapWidthSweep, GroundCapGrowsWithWidth) {
  const double w = GetParam();
  const auto narrow = geom::single_trace(tech(), 6, um(1000), um(w));
  const auto wide = geom::single_trace(tech(), 6, um(1000), um(w * 1.5));
  EXPECT_LT(cap::extract_cap(narrow).cg[0], cap::extract_cap(wide).cg[0]);
}

INSTANTIATE_TEST_SUITE_P(Widths, CapWidthSweep,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0, 20.0));

// ------------------------------------------------------------------ ckt --

struct RcCase {
  double r_ohm, c_ff;
};

class RcDelaySweep : public ::testing::TestWithParam<RcCase> {};

TEST_P(RcDelaySweep, FiftyPercentDelayIsLn2Tau) {
  const RcCase c = GetParam();
  const double tau = c.r_ohm * c.c_ff * 1e-15;
  ckt::Netlist nl;
  const auto in = nl.add_node();
  const auto out = nl.add_node();
  nl.add_vsource(in, ckt::kGround,
                 ckt::SourceWaveform::ramp(1.0, tau / 500.0));
  nl.add_resistor(in, out, c.r_ohm);
  nl.add_capacitor(out, ckt::kGround, c.c_ff * 1e-15);
  ckt::TransientOptions topt;
  topt.t_stop = 6.0 * tau;
  topt.dt = tau / 400.0;
  const auto t50 =
      ckt::simulate(nl, topt).waveform(out).first_rise_through(0.5);
  ASSERT_TRUE(t50.has_value());
  EXPECT_NEAR(*t50, std::log(2.0) * tau, 0.02 * tau)
      << "R=" << c.r_ohm << " C=" << c.c_ff;
}

INSTANTIATE_TEST_SUITE_P(RcValues, RcDelaySweep,
                         ::testing::Values(RcCase{10.0, 100.0},
                                           RcCase{100.0, 100.0},
                                           RcCase{1000.0, 50.0},
                                           RcCase{40.0, 2000.0},
                                           RcCase{5000.0, 1000.0}));

class LadderSectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(LadderSectionSweep, ElmoreDelayIndependentOfSections) {
  // Distributed-RC Elmore delay R*C/2 + R*Cload is section-count invariant;
  // the simulated 50% delay must converge and stay within a narrow band
  // for every ladder discretisation.
  const int sections = GetParam();
  const double r_total = 100.0, c_total = 1e-12;
  ckt::Netlist nl;
  const auto in = nl.add_node();
  nl.add_vsource(in, ckt::kGround, ckt::SourceWaveform::ramp(1.0, 1e-12));
  ckt::NodeId prev = in;
  for (int k = 0; k < sections; ++k) {
    const auto next = nl.add_node();
    nl.add_resistor(prev, next, r_total / sections);
    nl.add_capacitor(next, ckt::kGround, c_total / sections);
    prev = next;
  }
  ckt::TransientOptions topt;
  topt.t_stop = 1e-9;
  topt.dt = 0.1e-12;
  const auto t50 =
      ckt::simulate(nl, topt).waveform(prev).first_rise_through(0.5);
  ASSERT_TRUE(t50.has_value());
  // Distributed limit: 0.38 R C ~ 38 ps; lumped (1 section): 0.69 RC.
  EXPECT_GT(*t50, 0.3 * r_total * c_total);
  EXPECT_LT(*t50, 0.75 * r_total * c_total);
  if (sections >= 8) {
    EXPECT_NEAR(*t50, 0.38 * r_total * c_total, 0.06 * r_total * c_total);
  }
}

INSTANTIATE_TEST_SUITE_P(Sections, LadderSectionSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace rlcx
