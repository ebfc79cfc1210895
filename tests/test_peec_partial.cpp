// Validation of the partial-inductance kernels.
//
// These tests pin the Hoer-Love volume kernel against independent references:
// the exact thin-filament closed form, Ruehli's published approximation, and
// analytic properties (symmetry, positivity, superlinear length scaling,
// exactness of the series chunk decomposition).
#include <gtest/gtest.h>

#include <cmath>

#include "diag/error.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/partial_inductance.h"
#include "support/partial_reference.h"

namespace rlcx::peec {
namespace {

using units::um;

Bar make_bar(double w, double t, double l, double x = 0.0, double z = 0.0,
             double y0 = 0.0, Axis axis = Axis::kY) {
  Bar b;
  b.axis = axis;
  b.a_min = y0;
  b.length = l;
  b.t_min = x;
  b.t_width = w;
  b.z_min = z;
  b.z_thick = t;
  return b;
}

TEST(FilamentMutual, MatchesAsymptoticFormula) {
  // For l >> d:  M ~ (mu0 l / 2pi)(ln(2l/d) - 1 + d/l).
  const double l = 1e-3, d = 10e-6;
  const double expected =
      2e-7 * l * (std::log(2.0 * l / d) - 1.0 + d / l);
  EXPECT_NEAR(filament_mutual(l, l, 0.0, d), expected, 2e-4 * expected);
}

TEST(FilamentMutual, SymmetricUnderExchange) {
  const double m1 = filament_mutual(1e-3, 0.5e-3, 0.2e-3, 5e-6);
  // Swap roles: filament 2 seen from filament 1's frame.
  const double m2 = filament_mutual(0.5e-3, 1e-3, -0.2e-3, 5e-6);
  EXPECT_NEAR(m1, m2, 1e-12 * std::abs(m1));
}

TEST(FilamentMutual, DecaysWithDistance) {
  double prev = filament_mutual(1e-3, 1e-3, 0.0, 1e-6);
  for (double d = 2e-6; d < 1e-4; d *= 2.0) {
    const double m = filament_mutual(1e-3, 1e-3, 0.0, d);
    EXPECT_LT(m, prev);
    EXPECT_GT(m, 0.0);
    prev = m;
  }
}

TEST(FilamentMutual, CollinearGapPositiveAndDecaying) {
  const double l = 100e-6;
  double prev = filament_mutual(l, l, l + 1e-6, 0.0);
  EXPECT_GT(prev, 0.0);
  for (double gap = 2e-6; gap < 50e-6; gap *= 2.0) {
    const double m = filament_mutual(l, l, l + gap, 0.0);
    EXPECT_LT(m, prev);
    EXPECT_GT(m, 0.0);
    prev = m;
  }
}

TEST(FilamentMutual, CollinearOverlapThrows) {
  EXPECT_THROW(filament_mutual(1e-3, 1e-3, 0.5e-3, 0.0),
               std::invalid_argument);
}

TEST(FilamentMutual, CollinearMatchesSmallRadiusLimit) {
  // The r -> 0 collinear formula must be the limit of the general one.
  const double l = 100e-6, s = 120e-6;
  const double exact0 = filament_mutual(l, l, s, 0.0);
  const double tiny = filament_mutual(l, l, s, 1e-12);
  EXPECT_NEAR(exact0, tiny, 1e-4 * std::abs(exact0));
}

TEST(HoerLove, MatchesFilamentWhenFar) {
  // Thin bars far apart must agree with the filament formula.
  const double l = 1e-3, w = 1e-6, t = 1e-6, d = 50e-6;
  const double hl = hoer_love_mutual(w, t, l, w, t, l, d, 0.0, 0.0);
  const double fil = filament_mutual(l, l, 0.0, d);
  EXPECT_NEAR(hl, fil, 5e-4 * fil);
}

TEST(HoerLove, MatchesFilamentWithAxialStagger) {
  const double l1 = 800e-6, l2 = 300e-6, w = 1e-6, t = 1e-6;
  const double E = 40e-6, P = 20e-6, l3 = 200e-6;
  const double hl = hoer_love_mutual(w, t, l1, w, t, l2, E, P, l3);
  const double fil = filament_mutual(l1, l2, l3, std::hypot(E, P));
  EXPECT_NEAR(hl, fil, 2e-3 * fil);
}

TEST(HoerLove, SymmetricUnderConductorExchange) {
  const double m1 =
      hoer_love_mutual(10e-6, 2e-6, 1e-3, 5e-6, 2e-6, 0.8e-3, 12e-6, 1e-6,
                       0.1e-3);
  const double m2 =
      hoer_love_mutual(5e-6, 2e-6, 0.8e-3, 10e-6, 2e-6, 1e-3, -12e-6, -1e-6,
                       -0.1e-3);
  // The 64-term bracket cancels heavily; ~1e-7 relative agreement is what
  // double precision leaves for these aspect ratios.
  EXPECT_NEAR(m1, m2, 1e-6 * std::abs(m1));
}

TEST(HoerLove, SelfMatchesRuehliApproximation) {
  // Coincident bars give the self partial inductance; Ruehli's formula is
  // good to ~1% for l >> w+t.
  const double w = 1e-6, t = 1e-6, l = 100e-6;
  const double self = hoer_love_mutual(w, t, l, w, t, l, 0.0, 0.0, 0.0);
  const double ruehli = ruehli_self(l, w, t);
  EXPECT_NEAR(self, ruehli, 0.02 * ruehli);
}

TEST(HoerLove, RejectsDegenerateDimensions) {
  EXPECT_THROW(hoer_love_mutual(0.0, 1e-6, 1e-3, 1e-6, 1e-6, 1e-3, 0, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(hoer_love_mutual(1e-6, 1e-6, -1e-3, 1e-6, 1e-6, 1e-3, 0, 0, 0),
               std::invalid_argument);
}

TEST(SelfPartial, MatchesRuehliAcrossSizes) {
  // The paper's clock wires: 10 um wide, 2 um thick, millimetres long.
  for (double l_um : {200.0, 1000.0, 6000.0}) {
    const Bar b = make_bar(um(10), um(2), um(l_um));
    const double self = self_partial(b);
    const double approx = ruehli_self(um(l_um), um(10), um(2));
    EXPECT_NEAR(self, approx, 0.03 * approx) << "l = " << l_um << " um";
  }
}

TEST(SelfPartial, ChunkingIsExactDecomposition) {
  // Two very different chunk sizes must agree: the series decomposition is
  // exact, so any difference is kernel round-off.  (A single huge-aspect
  // chunk is deliberately not the reference — taming that cancellation is
  // why chunking exists.)
  const Bar b = make_bar(um(2), um(2), um(2000));
  PartialOptions coarse;
  coarse.max_aspect = 64.0;
  PartialOptions fine;
  fine.max_aspect = 32.0;
  // The decomposition is exact analytically; numerically the far-pair
  // filament handoff leaves ~1e-5 relative — far below the ~1% accuracy of
  // the extraction itself.
  const double a = self_partial(b, coarse);
  const double c = self_partial(b, fine);
  EXPECT_NEAR(a, c, 1e-5 * a);
}

TEST(SelfPartial, SuperlinearInLength) {
  // Paper Section V: doubling a segment from 1000 um to 2000 um raises self
  // inductance by clearly more than 2x (around 2.2x for clock geometry).
  const Bar b1 = make_bar(um(10), um(2), um(1000));
  const Bar b2 = make_bar(um(10), um(2), um(2000));
  const double ratio = self_partial(b2) / self_partial(b1);
  EXPECT_GT(ratio, 2.05);
  EXPECT_LT(ratio, 2.45);
}

TEST(MutualPartial, OrthogonalBarsDoNotCouple) {
  const Bar a = make_bar(um(2), um(2), um(500), 0.0, 0.0, 0.0, Axis::kY);
  const Bar b = make_bar(um(2), um(2), um(500), 0.0, um(4), 0.0, Axis::kX);
  EXPECT_DOUBLE_EQ(mutual_partial(a, b), 0.0);
}

TEST(MutualPartial, SymmetricAndPositiveForAdjacentTraces) {
  // Figure 1 geometry: 10 um signal, 5 um ground, 1 um apart.
  const Bar sig = make_bar(um(10), um(2), um(1000), 0.0);
  const Bar gnd = make_bar(um(5), um(2), um(1000), um(11));
  const double m1 = mutual_partial(sig, gnd);
  const double m2 = mutual_partial(gnd, sig);
  EXPECT_GT(m1, 0.0);
  EXPECT_NEAR(m1, m2, 1e-7 * m1);
  // Mutual below self for both.
  EXPECT_LT(m1, self_partial(sig));
  EXPECT_LT(m1, self_partial(gnd));
}

TEST(MutualPartial, SuperlinearInLengthToo) {
  const Bar a1 = make_bar(um(10), um(2), um(1000), 0.0);
  const Bar b1 = make_bar(um(10), um(2), um(1000), um(12));
  const Bar a2 = make_bar(um(10), um(2), um(2000), 0.0);
  const Bar b2 = make_bar(um(10), um(2), um(2000), um(12));
  const double ratio = mutual_partial(a2, b2) / mutual_partial(a1, b1);
  EXPECT_GT(ratio, 2.05);
  EXPECT_LT(ratio, 2.6);
}

TEST(MutualPartial, FarPathAgreesWithExactKernel) {
  // Across the far-factor boundary the filament fast path and the volume
  // kernel must agree smoothly.
  const Bar a = make_bar(um(2), um(2), um(500), 0.0);
  const Bar b = make_bar(um(2), um(2), um(500), um(100));
  PartialOptions exact_only;
  exact_only.far_factor = 1e12;  // force the volume kernel
  PartialOptions fil_only;
  fil_only.far_factor = 0.0;  // force the filament path
  const double me = mutual_partial(a, b, exact_only);
  const double mf = mutual_partial(a, b, fil_only);
  EXPECT_NEAR(me, mf, 2e-3 * me);
}

TEST(Assembly, BarResistanceMatchesSheetFormula) {
  const Bar b = make_bar(um(10), um(2), um(6000));
  // R = rho l / (w t): 2e-8 * 6e-3 / 2e-11 = 6 ohms.
  EXPECT_NEAR(bar_resistance(b, 2e-8), 6.0, 1e-9);
}

TEST(Assembly, MatrixSymmetricWithSignFolding) {
  std::vector<Filament> fils;
  fils.push_back({make_bar(um(2), um(2), um(300), 0.0), +1.0, 1.0});
  fils.push_back({make_bar(um(2), um(2), um(300), um(6)), -1.0, 1.0});
  fils.push_back({make_bar(um(2), um(2), um(300), um(12)), +1.0, 1.0});
  const RealMatrix lp = partial_inductance_matrix(fils);
  EXPECT_EQ(lp.rows(), 3u);
  // Antiparallel neighbour: negative mutual entry.
  EXPECT_LT(lp(0, 1), 0.0);
  EXPECT_GT(lp(0, 2), 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(lp(i, i), 0.0);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(lp(i, j), lp(j, i));
  }
}

TEST(Assembly, MatrixIsPositiveDefiniteOnTestVectors) {
  // Physical Lp matrices store magnetic energy: x^T Lp x > 0.
  std::vector<Filament> fils;
  for (int i = 0; i < 6; ++i)
    fils.push_back({make_bar(um(1), um(1), um(400), um(2.5 * i)), 1.0, 1.0});
  const RealMatrix lp = partial_inductance_matrix(fils);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(6);
    for (int i = 0; i < 6; ++i)
      x[static_cast<std::size_t>(i)] =
          std::sin(static_cast<double>(trial * 7 + i * 3 + 1));
    double energy = 0.0;
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) energy += x[i] * lp(i, j) * x[j];
    EXPECT_GT(energy, 0.0) << "trial " << trial;
  }
}

// Parameterised property sweep: Hoer-Love self inductance stays within a few
// per cent of Ruehli's approximation over the whole clock-geometry range.
struct SelfCase {
  double w_um, t_um, l_um;
};

class SelfSweep : public ::testing::TestWithParam<SelfCase> {};

TEST_P(SelfSweep, CloseToRuehli) {
  const SelfCase c = GetParam();
  const double self = self_partial(make_bar(um(c.w_um), um(c.t_um),
                                            um(c.l_um)));
  const double approx = ruehli_self(um(c.l_um), um(c.w_um), um(c.t_um));
  // Ruehli's fit itself is only ~1-2% for moderate aspect; allow 5%.
  EXPECT_NEAR(self, approx, 0.05 * approx);
}

INSTANTIATE_TEST_SUITE_P(
    ClockGeometries, SelfSweep,
    ::testing::Values(SelfCase{1.0, 1.0, 100.0}, SelfCase{2.0, 1.0, 500.0},
                      SelfCase{5.0, 2.0, 1000.0}, SelfCase{10.0, 2.0, 2000.0},
                      SelfCase{10.0, 2.0, 6000.0}, SelfCase{1.2, 2.0, 600.0},
                      SelfCase{20.0, 2.0, 4000.0}));

// Coincident or interpenetrating bars describe impossible metal: the
// mutual kernel rejects them as a `geometry` error with the overlap
// extents, instead of integrating a singular kernel into NaN/garbage.
TEST(MutualPartial, CoincidentBarsAreAGeometryError) {
  const Bar b = make_bar(um(2), um(1), um(500));
  try {
    mutual_partial(b, b);
    FAIL() << "coincident bars must be rejected";
  } catch (const rlcx::diag::GeometryError& e) {
    EXPECT_NE(std::string(e.what()).find("overlap in volume"),
              std::string::npos)
        << e.what();
  }
}

TEST(MutualPartial, PartiallyOverlappingBarsAreAGeometryError) {
  const Bar a = make_bar(um(2), um(1), um(500));
  // Shifted by half a width: still sharing metal.
  const Bar b = make_bar(um(2), um(1), um(500), um(1));
  EXPECT_THROW(mutual_partial(a, b), rlcx::diag::GeometryError);
  // Exactly touching side faces are legal (chunked self-inductance relies
  // on this): a zero-overlap neighbour must still integrate cleanly.
  const Bar c = make_bar(um(2), um(1), um(500), um(2));
  EXPECT_GT(mutual_partial(a, c), 0.0);
}

}  // namespace
}  // namespace rlcx::peec
