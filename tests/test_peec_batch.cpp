// Validation of the SIMD batch kernel engine (peec/kernel_batch.h).
//
// Three layers of checks, mirroring the engine's contracts:
//   * accuracy — engine values vs the scalar libm kernels
//     (hoer_love_mutual / filament_mutual / self_partial / mutual_partial),
//     which stay in the tree precisely to serve as the independent oracle;
//     agreement is to the Hoer-Love cancellation-noise floor (~1e-8
//     relative), including the v -> 0 and rho -> |v| boundary geometries
//     where the branch-free rewrite's guarded selects take over;
//   * bit-identity — RLCX_SIMD=scalar / avx2 / avx512 paths must produce
//     identical doubles (EXPECT_EQ, no tolerance), and results must be
//     independent of pool width and batch composition;
//   * guards — the engine rejects the same degenerate geometry with the
//     same diagnostics as the scalar kernels, at append time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "diag/error.h"
#include "numeric/simd.h"
#include "numeric/units.h"
#include "numeric/vecmath.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "peec/partial_inductance.h"
#include "rt/pool.h"

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

double batch_self(const Bar& b, const PartialOptions& opt = {}) {
  BatchEvaluator ev;
  ev.add_self(b, opt);
  double v = 0.0;
  ev.run(&v);
  return v;
}

double batch_pair(const Bar& b1, const Bar& b2,
                  const PartialOptions& opt = {}) {
  BatchEvaluator ev;
  ev.add_pair(b1, b2, opt);
  double v = 0.0;
  ev.run(&v);
  return v;
}

/// Forces a SIMD mode for the scope, restoring the environment policy.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(numeric::SimdMode m) { numeric::simd_force_mode(m); }
  ~ScopedSimdMode() {
    numeric::simd_force_mode(
        numeric::simd_mode_from_env(std::getenv("RLCX_SIMD")));
  }
};

// The kernel's cancellation-noise floor: vecmath and libm differ by ulps,
// which the 64-term bracket amplifies to ~1e-9..1e-8 per term
// (docs/performance.md); chunked geometries sum hundreds of such terms,
// so totals are pinned one decade looser.
constexpr double kOracleRelTol = 1e-7;

// ---------------------------------------------------------------------------
// vecmath building blocks vs libm.

TEST(Vecmath, LogMatchesLibmAcrossDecades) {
  for (double x = 1e-12; x < 1e12; x *= 1.7) {
    const double ref = std::log(x);
    EXPECT_NEAR(numeric::vecmath::log_bf(x), ref,
                1e-13 * std::max(1.0, std::abs(ref)))
        << "x=" << x;
  }
}

TEST(Vecmath, AtanMatchesLibmIncludingRangeReductionBoundaries) {
  // Sweep through both range-reduction thresholds (0.66 and tan(3pi/8)).
  for (double x = 1e-9; x < 1e9; x *= 1.4) {
    for (const double s : {x, -x}) {
      const double ref = std::atan(s);
      EXPECT_NEAR(numeric::vecmath::atan_bf(s), ref,
                  1e-13 * std::max(1.0, std::abs(ref)))
          << "x=" << s;
    }
  }
}

TEST(Vecmath, AsinhMatchesLibmIncludingHugeArguments) {
  for (double x = 1e-9; x < 1e10; x *= 1.9) {
    for (const double s : {x, -x}) {
      const double ref = std::asinh(s);
      EXPECT_NEAR(numeric::vecmath::asinh_bf(s), ref,
                  1e-13 * std::max(1.0, std::abs(ref)))
          << "x=" << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine vs the scalar oracle kernels, per geometry-class shape.

TEST(BatchEngine, SelfMatchesScalarOracle) {
  PartialOptions opt;
  // Short (single-chunk), long (multi-chunk), and squat cross-sections.
  const Bar shapes[] = {
      make_bar(um(1), um(0.5), um(50)),
      make_bar(um(1), um(0.5), um(6000)),  // forces the aspect chunking
      make_bar(um(20), um(2), um(100)),
      make_bar(um(0.5), um(4), um(800), um(3), um(1)),
  };
  for (const Bar& b : shapes) {
    const double oracle = self_partial(b, opt);
    // Chunked selves sum collinear touching-chunk mutual terms whose
    // brackets cancel almost completely, so the noise floor of the total
    // is another decade up from the per-bracket floor.
    EXPECT_NEAR(batch_self(b, opt), oracle, 1e-6 * std::abs(oracle))
        << "w=" << b.t_width << " l=" << b.length;
  }
}

TEST(BatchEngine, NearPairMatchesScalarOracle) {
  PartialOptions opt;
  const Bar b1 = make_bar(um(2), um(0.5), um(400));
  // Close lateral neighbour: the Hoer-Love volume path.
  const Bar b2 = make_bar(um(2), um(0.5), um(400), um(3));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, FarPairMatchesScalarOracle) {
  PartialOptions opt;
  const Bar b1 = make_bar(um(2), um(0.5), um(400));
  // Far lateral neighbour: the filament fast path (r > 0).
  const Bar b2 = make_bar(um(2), um(0.5), um(400), um(100));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, CollinearFarPairMatchesScalarOracle) {
  PartialOptions opt;
  // Same track, large axial gap: the filament path with r == 0 (the
  // collinear closed form's select).
  const Bar b1 = make_bar(um(2), um(0.5), um(100));
  const Bar b2 = make_bar(um(2), um(0.5), um(100), 0.0, 0.0, um(300));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, LongChunkedPairMatchesScalarOracle) {
  PartialOptions opt;
  // Clock-wiring aspect: both bars decompose into many chunks, mixing
  // volume terms (nearby chunk pairs) and filament terms (distant ones)
  // inside a single slot.
  const Bar b1 = make_bar(um(1), um(0.5), um(6000));
  const Bar b2 = make_bar(um(1), um(0.5), um(6000), um(2.5));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

// ---------------------------------------------------------------------------
// Chunk-offset collapse: a self or an aligned pair appends one term per
// chunk offset; every other pair appends its full chunk sweep.  The scalar
// oracle sums every chunk pair of the same pair_chunking decomposition.

std::size_t batch_terms(const Bar& b1, const Bar& b2,
                        const PartialOptions& opt) {
  BatchEvaluator ev;
  ev.add_pair(b1, b2, opt);
  return ev.volume_entries() + ev.filament_entries();
}

TEST(ChunkOffsetCollapse, AlignedPairWithUnequalChunkCountsMatchesOracle) {
  PartialOptions opt;
  // A 1 x 1 um filament chunks at 47, a 6.7 x 1 um one at 7: the aligned
  // pair is cut at the common count 47 for both bars.
  const Bar thin = make_bar(um(1), um(1), um(6000));
  ASSERT_EQ(chunk_count(thin, opt.max_aspect), 47);
  for (const double spacing : {0.5, 200.0}) {  // near (volume), far (filament)
    const Bar wide = make_bar(um(6.7), um(1), um(6000), um(1 + spacing));
    ASSERT_EQ(chunk_count(wide, opt.max_aspect), 7);
    const PairChunking pc = pair_chunking(thin, wide, opt.max_aspect);
    EXPECT_TRUE(pc.aligned);
    EXPECT_EQ(pc.n1, 47);
    EXPECT_EQ(pc.n2, 47);
    EXPECT_EQ(batch_terms(thin, wide, opt), 2u * 47u - 1u);
    const double oracle = mutual_partial(thin, wide, opt);
    EXPECT_NEAR(batch_pair(thin, wide, opt), oracle,
                kOracleRelTol * std::abs(oracle))
        << "spacing " << spacing << " um";
    // Exchanging the bars reverses the offsets, not the value.
    EXPECT_NEAR(batch_pair(wide, thin, opt), oracle,
                kOracleRelTol * std::abs(oracle));
  }
}

TEST(ChunkOffsetCollapse, LongSelfOneTermPerOffsetMatchesOracle) {
  PartialOptions opt;
  // A skin-depth sized filament of a 6000 um clock segment: 94 chunks.
  const Bar b = make_bar(um(0.5), um(0.25), um(6000), um(3), um(1));
  const int n = chunk_count(b, opt.max_aspect);
  ASSERT_EQ(n, 94);
  BatchEvaluator ev;
  ev.add_self(b, opt);
  EXPECT_EQ(ev.volume_entries() + ev.filament_entries(),
            static_cast<std::size_t>(n));
  const double oracle = self_partial(b, opt);
  EXPECT_NEAR(batch_self(b, opt), oracle, 1e-6 * std::abs(oracle));
}

TEST(ChunkOffsetCollapse, NonAlignedPairsTakeTheFullSweep) {
  PartialOptions opt;
  const Bar b1 = make_bar(um(1), um(0.5), um(1000));
  const int n1 = chunk_count(b1, opt.max_aspect);
  // Axially offset (same length) and unequal lengths (same start): each
  // bar keeps its own count and every chunk pair is a term.
  const Bar shifted = make_bar(um(1), um(0.5), um(1000), um(2), 0.0, um(10));
  const Bar shorter = make_bar(um(2), um(0.5), um(700), um(3));
  for (const Bar& b2 : {shifted, shorter}) {
    const PairChunking pc = pair_chunking(b1, b2, opt.max_aspect);
    EXPECT_FALSE(pc.aligned);
    EXPECT_EQ(pc.n1, n1);
    EXPECT_EQ(pc.n2, chunk_count(b2, opt.max_aspect));
    EXPECT_EQ(batch_terms(b1, b2, opt),
              static_cast<std::size_t>(pc.n1 * pc.n2));
    const double oracle = mutual_partial(b1, b2, opt);
    EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
                kOracleRelTol * std::abs(oracle));
  }
}

TEST(BatchEngine, OrthogonalPairIsExactlyZero) {
  PartialOptions opt;
  const Bar b1 = make_bar(um(2), um(0.5), um(100));
  const Bar b2 = make_bar(um(2), um(0.5), um(100), um(50), um(5), 0.0,
                          Axis::kX);
  EXPECT_EQ(batch_pair(b1, b2, opt), 0.0);
}

// ---------------------------------------------------------------------------
// Boundary geometries: corners where the Hoer-Love bracket's log terms hit
// v -> 0 (a corner coordinate vanishes) and rho -> |v| (the transverse
// distance w2 vanishes).  The branch-free rewrite handles both with
// guarded selects and the |v| log-ratio identity; these pin it against the
// original kernel's explicit special cases.

TEST(BatchEngine, FaceTouchingPairMatchesOracle) {
  PartialOptions opt;
  // Bars sharing a full face: E = w, so the corner coordinate E - a == 0
  // exactly (the v -> 0 boundary of the x log term).
  const Bar b1 = make_bar(um(2), um(0.5), um(200));
  const Bar b2 = make_bar(um(2), um(0.5), um(200), um(2));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, EdgeTouchingPairMatchesOracle) {
  PartialOptions opt;
  // Bars sharing only an edge: E = w AND P = t, so corners exist with two
  // vanishing coordinates — the rho -> |v| boundary, where 1/sqrt(w2) in
  // the hoisted tables is Inf and the zero prefactor select must discard
  // it rather than poison the bracket.
  const Bar b1 = make_bar(um(2), um(0.5), um(200));
  const Bar b2 = make_bar(um(2), um(0.5), um(200), um(2), um(0.5));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, CollinearNearPairMatchesOracle) {
  PartialOptions opt;
  // Axially-in-line bars with a gap below the far threshold: the volume
  // kernel runs with E = P = 0, so *every* corner has at most one nonzero
  // transverse coordinate — the densest population of both boundary cases
  // a real mesh produces.
  const Bar b1 = make_bar(um(2), um(0.5), um(100));
  const Bar b2 = make_bar(um(2), um(0.5), um(100), 0.0, 0.0, um(101));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, NearVanishingCornerMatchesOracle) {
  PartialOptions opt;
  // An almost-touching face: the corner coordinate is ~1e-9 of the bar
  // width, approaching the v -> 0 limit from above.  The log-ratio
  // identity must stay stable here (|v| + rho adds positives only).
  const Bar b1 = make_bar(um(2), um(0.5), um(200));
  const Bar b2 = make_bar(um(2), um(0.5), um(200), um(2) * (1.0 + 1e-9));
  const double oracle = mutual_partial(b1, b2, opt);
  EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
              kOracleRelTol * std::abs(oracle));
}

TEST(BatchEngine, SelfHasAllBoundaryCorners) {
  PartialOptions opt;
  // The self class is the boundary stress case: E = P = l3 = 0 makes the
  // bracket's corner set include the origin itself (x = y = z = 0, where
  // every term's guard must fire).
  const Bar b = make_bar(um(3), um(1), um(90));
  const double oracle = self_partial(b, opt);
  EXPECT_NEAR(batch_self(b, opt), oracle, kOracleRelTol * std::abs(oracle));
}

// ---------------------------------------------------------------------------
// Bit-identity across SIMD modes and schedules.

// Dyadic coordinates (like test_peec_memo's meshes): every boundary is an
// exact binary fraction, so congruent pairs present bit-identical inputs
// and the memo's element-exactness contract applies.
std::vector<Filament> test_mesh(std::size_t nw) {
  std::vector<Filament> f;
  for (std::size_t i = 0; i < nw; ++i) {
    Filament fl;
    fl.bar = make_bar(1.0, 0.5, 512.0, 2.0 * static_cast<double>(i));
    fl.sign = (i % 3 == 0) ? -1.0 : 1.0;
    f.push_back(fl);
  }
  return f;
}

TEST(BatchEngine, SimdModesAreBitIdentical) {
  PartialOptions opt;
  opt.memo = false;  // direct path: every pair through the engine
  const std::vector<Filament> mesh = test_mesh(12);
  RealMatrix scalar_lp(0, 0);
  {
    ScopedSimdMode mode(numeric::SimdMode::kScalar);
    scalar_lp = partial_inductance_matrix(mesh, opt);
  }
  if (numeric::simd_avx2_supported()) {
    ScopedSimdMode mode(numeric::SimdMode::kAvx2);
    const RealMatrix lp = partial_inductance_matrix(mesh, opt);
    for (std::size_t i = 0; i < lp.rows(); ++i)
      for (std::size_t j = 0; j < lp.cols(); ++j)
        EXPECT_EQ(lp(i, j), scalar_lp(i, j)) << "avx2 " << i << "," << j;
  }
  if (numeric::simd_avx512_supported()) {
    ScopedSimdMode mode(numeric::SimdMode::kAvx512);
    const RealMatrix lp = partial_inductance_matrix(mesh, opt);
    for (std::size_t i = 0; i < lp.rows(); ++i)
      for (std::size_t j = 0; j < lp.cols(); ++j)
        EXPECT_EQ(lp(i, j), scalar_lp(i, j)) << "avx512 " << i << "," << j;
  }
}

TEST(BatchEngine, EnvScalarOverrideResolvesToScalar) {
  // RLCX_SIMD resolution is pure (exposed for exactly this test): "scalar"
  // always forces the baseline, typos fall back to auto rather than
  // silently changing numerics (all modes are bit-identical anyway).
  EXPECT_EQ(numeric::simd_mode_from_env("scalar"),
            numeric::SimdMode::kScalar);
  const numeric::SimdMode best = numeric::simd_mode_from_env(nullptr);
  EXPECT_EQ(numeric::simd_mode_from_env("auto"), best);
  EXPECT_EQ(numeric::simd_mode_from_env(""), best);
  EXPECT_EQ(numeric::simd_mode_from_env("bogus"), best);
  if (!numeric::simd_avx2_supported()) {
    EXPECT_EQ(numeric::simd_mode_from_env("avx2"),
              numeric::SimdMode::kScalar);
  }
}

TEST(BatchEngine, PoolWidthDoesNotChangeResults) {
  PartialOptions opt;
  const std::vector<Filament> mesh = test_mesh(20);
  const RealMatrix base = partial_inductance_matrix(mesh, opt);
  rt::Pool one(1), two(2), seven(7);
  for (rt::Pool* pool : {&one, &two, &seven}) {
    const RealMatrix lp = partial_inductance_matrix(mesh, opt, pool);
    for (std::size_t i = 0; i < lp.rows(); ++i)
      for (std::size_t j = 0; j < lp.cols(); ++j)
        EXPECT_EQ(lp(i, j), base(i, j));
  }
}

TEST(BatchEngine, BatchCompositionDoesNotChangeValues) {
  // The same pair evaluated alone and inside a larger batch must yield
  // the identical double (values are elementwise; the reduction order is
  // fixed per slot) — this is what makes the memo flush boundary
  // unobservable.
  PartialOptions opt;
  const Bar b1 = make_bar(um(1), um(0.5), um(300));
  const Bar b2 = make_bar(um(1), um(0.5), um(300), um(2));
  const Bar b3 = make_bar(um(1), um(0.5), um(300), um(40));

  const double alone = batch_pair(b1, b2, opt);

  BatchEvaluator ev;
  ev.add_self(b1, opt);
  const std::size_t slot = ev.add_pair(b1, b2, opt);
  ev.add_pair(b1, b3, opt);
  ev.add_pair(b2, b3, opt);
  std::vector<double> vals(ev.slots());
  ev.run(vals.data());
  EXPECT_EQ(vals[slot], alone);

  // And clear() really resets: re-running the same appends reproduces the
  // same slots.
  ev.clear();
  EXPECT_EQ(ev.slots(), 0u);
  EXPECT_EQ(ev.volume_entries() + ev.filament_entries(), 0u);
  const std::size_t slot2 = ev.add_pair(b1, b2, opt);
  std::vector<double> vals2(ev.slots());
  ev.run(vals2.data());
  EXPECT_EQ(vals2[slot2], alone);
}

TEST(BatchEngine, StatsCountTermsAndRuns) {
  PartialOptions opt;
  const Bar b1 = make_bar(um(1), um(0.5), um(300));
  const Bar b2 = make_bar(um(1), um(0.5), um(300), um(2));
  BatchEvaluator ev;
  ev.add_pair(b1, b2, opt);
  const std::size_t terms = ev.volume_entries() + ev.filament_entries();
  EXPECT_GT(terms, 0u);
  const BatchStats before = batch_stats_total();
  double v = 0.0;
  ev.run(&v);
  const BatchStats after = batch_stats_total();
  EXPECT_EQ(after.batch_runs, before.batch_runs + 1);
  EXPECT_EQ((after.volume_terms + after.filament_terms) -
                (before.volume_terms + before.filament_terms),
            terms);
}

// ---------------------------------------------------------------------------
// Guards: same rejection, same diagnostics, at append time.

TEST(BatchEngine, DegenerateDimensionsThrowAtAppend) {
  PartialOptions opt;
  BatchEvaluator ev;
  const Bar good = make_bar(um(1), um(0.5), um(100));
  const Bar zero_width = make_bar(0.0, um(0.5), um(100), um(5));
  EXPECT_THROW(ev.add_pair(good, zero_width, opt), diag::GeometryError);
}

TEST(BatchEngine, OverlappingBarsThrowAtAppend) {
  PartialOptions opt;
  BatchEvaluator ev;
  const Bar b1 = make_bar(um(2), um(0.5), um(100));
  const Bar b2 = make_bar(um(2), um(0.5), um(100), um(1));  // overlaps b1
  EXPECT_THROW(ev.add_pair(b1, b2, opt), diag::GeometryError);
}

TEST(BatchEngine, MemoizedFillStaysElementExactToDirectFill) {
  // The PR-4 contract, now carried end-to-end by the engine: the memoized
  // three-pass fill and the direct fill agree element-exactly.
  PartialOptions direct_opt;
  direct_opt.memo = false;
  PartialOptions memo_opt;
  memo_opt.memo = true;
  const std::vector<Filament> mesh = test_mesh(16);
  const RealMatrix direct = partial_inductance_matrix(mesh, direct_opt);
  const RealMatrix memo = partial_inductance_matrix(mesh, memo_opt);
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(memo(i, j), direct(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace rlcx::peec
