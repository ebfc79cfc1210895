// Validation of the SIMD batch kernel engine (peec/kernel_batch.h).
//
// Three layers of checks, mirroring the engine's contracts:
//   * accuracy — engine values vs the scalar libm kernels
//     (hoer_love_mutual / filament_mutual / self_partial / mutual_partial,
//     tests/support/partial_reference.h), the independent oracle;
//     agreement is to the Hoer-Love cancellation-noise floor (~1e-8
//     relative), including the v -> 0 and rho -> |v| boundary geometries
//     where the branch-free rewrite's guarded selects take over;
//   * bit-identity — RLCX_SIMD=scalar / avx2 / avx512 paths must produce
//     identical doubles (EXPECT_EQ, no tolerance), and results must be
//     independent of pool width and batch composition;
//   * guards — the engine rejects the same degenerate geometry with the
//     same diagnostics as the scalar kernels, at append time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "diag/error.h"
#include "numeric/simd.h"
#include "numeric/units.h"
#include "numeric/vecmath.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "peec/partial_inductance.h"
#include "rt/pool.h"
#include "support/direct_fill_reference.h"
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
// Chunk-offset collapse: a self or an aligned pair sums one term per chunk
// offset; every other pair sums its full chunk sweep.  The scalar oracle
// sums every chunk pair of the same pair_chunking decomposition.  A term is
// a Hoer-Love bracket (volume_terms) or a filament entry.

std::size_t batch_terms(const Bar& b1, const Bar& b2,
                        const PartialOptions& opt) {
  BatchEvaluator ev;
  ev.add_pair(b1, b2, opt);
  return ev.volume_terms() + ev.filament_entries();
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
    // Near: offsets -1, 0, 1 take the volume kernel (3 volume terms, their
    // 3 filament terms subtracted, 1 whole-bar term); far: the whole-bar
    // term alone.
    EXPECT_EQ(batch_terms(thin, wide, opt), spacing < 1.0 ? 7u : 1u);
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
  // Offsets 0 and 1 (touching chunks) take the volume kernel, in the three
  // slices at |z| = 0, c, 2c; the other 92 one filament term each.
  EXPECT_EQ(ev.volume_terms(), 2u);
  EXPECT_EQ(ev.volume_entries(), 3u);
  EXPECT_EQ(ev.filament_entries(), static_cast<std::size_t>(n - 2));
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
    // Each volume-routed chunk pair is its own four slices.
    BatchEvaluator ev;
    ev.add_pair(b1, b2, opt);
    EXPECT_GT(ev.volume_terms(), 0u);
    EXPECT_EQ(ev.volume_entries(), 4 * ev.volume_terms());
    const double oracle = mutual_partial(b1, b2, opt);
    EXPECT_NEAR(batch_pair(b1, b2, opt), oracle,
                kOracleRelTol * std::abs(oracle));
  }
}

// ---------------------------------------------------------------------------
// Filament offsets in closed form: the Neumann integral is additive, so an
// aligned pair's filament terms over all offsets sum to one whole-bar term,
//   sum_{|d| < n} (n - |d|) M_f(c, c, d c, r) = M_f(L, L, 0, r),
// and the engine appends that term in place of the filament-routed offsets.
// The reference is the same engine summing the pair offset by offset: one
// single-chunk pair per offset, weighted n - |d|, in offset order — the
// per-offset decomposition the closed form replaces.  Its volume-routed
// offsets evaluate four slices each at their own chunk coordinates, which
// the class shares at |z| = m c instead (docs/performance.md "Volume
// offsets in shared z-slices"), so the two agree to round-off.

struct OffsetSum {
  double value = 0.0;
  std::size_t volume_offsets = 0;  ///< |V|: offsets the volume kernel takes
  int n = 0;
};

OffsetSum per_offset_sum(const Bar& b1, const Bar& b2,
                         const PartialOptions& opt) {
  const PairChunking pc = pair_chunking(b1, b2, opt.max_aspect);
  EXPECT_TRUE(pc.aligned);
  const int n = pc.n1;
  BatchEvaluator ev;
  for (int d = 1 - n; d < n; ++d) {
    const Bar p = chunk_at(b1, n, std::max(0, -d));
    const Bar q = chunk_at(b2, n, std::max(0, d));
    EXPECT_EQ(chunk_count(p, opt.max_aspect), 1);
    EXPECT_EQ(chunk_count(q, opt.max_aspect), 1);
    ev.add_pair(p, q, opt);
  }
  EXPECT_EQ(ev.volume_terms() + ev.filament_entries(),
            static_cast<std::size_t>(2 * n - 1));
  std::vector<double> vals(ev.slots());
  ev.run(vals.data());
  OffsetSum sum;
  sum.volume_offsets = ev.volume_terms();
  sum.n = n;
  for (int d = 1 - n; d < n; ++d)
    sum.value += (n - std::abs(d)) * vals[static_cast<std::size_t>(d + n - 1)];
  return sum;
}

/// Aligned pairs of trace filaments of the clock metal (2 um thick) and
/// strips of a plane 3 um below it: near and far spacings, equal and
/// unequal widths, each at lengths 100, 700, 2000 and 6000 um (48 pairs).
struct AlignedCase {
  Bar b1, b2;
  double l_um;
  double dx_um;  ///< lateral offset of b2's left edge from b1's
};

std::vector<AlignedCase> aligned_case_grid() {
  struct Shape {
    double w, t, z;
  };
  const Shape trace{2.0, 2.0, 10.0}, wide{10.0, 2.0, 10.0},
      thin{0.5, 0.25, 10.5}, strip{8.0, 1.0, 6.0};
  struct Case {
    Shape a, b;
    double dx;
  };
  const Case cases[] = {
      {trace, trace, 3.0},    {trace, trace, 60.0},  {trace, wide, 2.5},
      {trace, wide, 200.0},   {thin, trace, 1.0},    {thin, thin, 0.75},
      {thin, wide, 30.0},     {trace, strip, -3.0},  {trace, strip, 40.0},
      {strip, strip, 8.0},    {strip, strip, 400.0}, {thin, strip, 2.0},
  };
  std::vector<AlignedCase> out;
  for (const double l_um : {100.0, 700.0, 2000.0, 6000.0})
    for (const Case& c : cases)
      out.push_back(
          {make_bar(um(c.a.w), um(c.a.t), um(l_um), 0.0, um(c.a.z)),
           make_bar(um(c.b.w), um(c.b.t), um(l_um), um(c.dx), um(c.b.z)),
           l_um, c.dx});
  return out;
}

TEST(FilamentOffsetsClosedForm, TermCountsAndValueMatchPerOffsetSum) {
  // A transversely far pair (V empty) appends the whole-bar filament term
  // alone; a near one |V| volume terms and 1 + |V| filament terms, where V
  // is the set of volume-routed offsets.
  PartialOptions opt;
  const std::vector<AlignedCase> cases = aligned_case_grid();
  std::size_t far_collapsed = 0, near_collapsed = 0;
  for (const AlignedCase& c : cases) {
    const Bar& b1 = c.b1;
    const Bar& b2 = c.b2;
    BatchEvaluator ev;
    ev.add_pair(b1, b2, opt);
    const OffsetSum ref = per_offset_sum(b1, b2, opt);
    const std::size_t nv = ref.volume_offsets;
    const std::size_t offsets = static_cast<std::size_t>(2 * ref.n - 1);
    // The closed form is taken exactly when it lowers the term count.
    const bool collapse = 2 * nv + 1 < offsets;
    (nv == 0 ? far_collapsed : near_collapsed) += collapse;
    EXPECT_EQ(ev.volume_terms(), nv);
    EXPECT_EQ(ev.filament_entries(), collapse ? 1 + nv : offsets - nv);
    double got = 0.0;
    ev.run(&got);
    EXPECT_NEAR(got, ref.value, 1e-12 * std::abs(ref.value))
        << "l=" << c.l_um << " um, widths " << b1.t_width / um(1) << "/"
        << b2.t_width / um(1) << ", dx=" << c.dx_um << " um, n=" << ref.n;
  }
  // Most cases take the closed form, near and far; some short near ones
  // do not.
  EXPECT_GT(far_collapsed, cases.size() / 8);
  EXPECT_GT(near_collapsed, cases.size() / 8);
}

TEST(FilamentOffsetsClosedForm, PairWithoutSavingMatchesPerOffsetSum) {
  // When the closed form would not lower the term count — every offset
  // volume-routed, or |V| = n - 1 — the pair appends its per-offset
  // filament terms, and only the shared slices' round-off separates it
  // from the per-offset sum.  Measured: 2e-16 for n = 2 and n = 4; 5.3e-11
  // for n = 7 with all 13 offsets volume-routed, where the class is the
  // two slices of the whole-bar bracket and the per-offset sum 52 slices
  // that cancel down to it.
  constexpr double kPerOffsetRelTol = 1e-10;
  PartialOptions opt;
  PartialOptions fine = opt;
  fine.max_aspect = 8.0;    // 2 x 1 um bars of 100 um cut into 7 chunks,
  fine.far_factor = 100.0;  // all 13 offsets within the volume threshold
  struct Case {
    double l_um;
    const PartialOptions* opt;
    std::size_t volume_offsets;
  };
  for (const Case& c : {Case{400.0, &opt, 3},     // n = 2: all volume
                        Case{1000.0, &opt, 3},    // n = 4: |V| = n - 1
                        Case{100.0, &fine, 13}}) {  // n = 7: all volume
    const Bar b1 = make_bar(um(2), um(1), um(c.l_um));
    const Bar b2 = make_bar(um(2), um(1), um(c.l_um), um(3));
    const OffsetSum ref = per_offset_sum(b1, b2, *c.opt);
    ASSERT_EQ(ref.volume_offsets, c.volume_offsets) << "l=" << c.l_um;
    BatchEvaluator ev;
    ev.add_pair(b1, b2, *c.opt);
    EXPECT_EQ(ev.volume_terms() + ev.filament_entries(),
              static_cast<std::size_t>(2 * ref.n - 1));
    double got = 0.0;
    ev.run(&got);
    EXPECT_NEAR(got, ref.value, kPerOffsetRelTol * std::abs(ref.value))
        << "l=" << c.l_um << " um, n=" << ref.n;
  }
}

// ---------------------------------------------------------------------------
// Volume offsets in shared z-slices: a chunk pair's Hoer-Love bracket is
// sum_k (-1)^k S(qz_k) over its four axial corners, where the z-slice S is
// the 16-corner transverse sum at one axial coordinate and is even in z.
// A self or an aligned class evaluates each slice |z| = m c once, weighted
// by every bracket it enters; any other volume-routed chunk pair appends
// its four slices weighted +-1.

/// Slice kernel outputs of rows (a, b, c, d, E, P, z) on one ISA.
using SliceKernel = void (*)(const detail::SliceSoa&, std::size_t,
                             std::size_t, double*);

std::vector<double> eval_slices(SliceKernel kernel,
                                const std::vector<std::vector<double>>& cols) {
  const detail::SliceSoa soa{cols[0].data(), cols[1].data(), cols[2].data(),
                             cols[3].data(), cols[4].data(), cols[5].data(),
                             cols[6].data()};
  std::vector<double> out(cols[0].size());
  kernel(soa, 0, out.size(), out.data());
  return out;
}

TEST(SliceContract, SliceIsEvenInZBitForBitOnEveryIsa) {
  // Boundary geometries among them: a face-touching pair (E = a), an
  // edge-touching one (E = a, P = b), the self (E = P = 0) and z = 0,
  // where the corner set includes the origin.
  struct Row {
    double a, b, c, d, E, P, z;
  };
  const Row rows[] = {
      {2, 0.5, 2, 0.5, 3, 0, 400},   {2, 0.5, 2, 0.5, 2, 0, 200},
      {2, 0.5, 2, 0.5, 2, 0.5, 200}, {3, 1, 3, 1, 0, 0, 90},
      {3, 1, 3, 1, 0, 0, 0},         {1, 1, 6.7, 1, 1.5, -0.25, 127.7},
      {0.5, 0.25, 8, 1, -3, -4, 1e-3},
  };
  // Rows at +z, then the same rows at -z.
  std::vector<std::vector<double>> cols(7);
  for (const double sign : {1.0, -1.0})
    for (const Row& r : rows) {
      const double v[] = {r.a, r.b, r.c, r.d, r.E, r.P, sign * r.z};
      for (int k = 0; k < 7; ++k) cols[k].push_back(um(v[k]));
    }
  const std::size_t n = std::size(rows);
  std::vector<SliceKernel> kernels{detail::kb_scalar::eval_slice};
#if defined(RLCX_HAVE_AVX2)
  if (numeric::simd_avx2_supported())
    kernels.push_back(detail::kb_avx2::eval_slice);
#endif
#if defined(RLCX_HAVE_AVX512)
  if (numeric::simd_avx512_supported())
    kernels.push_back(detail::kb_avx512::eval_slice);
#endif
  const std::vector<double> scalar = eval_slices(kernels.front(), cols);
  for (const SliceKernel kernel : kernels) {
    const std::vector<double> out = eval_slices(kernel, cols);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(std::isfinite(out[k])) << "row " << k;
      EXPECT_EQ(out[k], out[k + n]) << "row " << k;
      EXPECT_EQ(out[k], scalar[k]) << "row " << k;
    }
  }
}

TEST(SliceContract, FourSlicesAreTheBracket) {
  // One chunk pair's four slices, signed +, -, +, -, against the libm
  // bracket of the oracle: a near lateral pair, an axially offset one of
  // unequal lengths, and the self.
  struct Pair {
    double a, b, l1, c, d, l2, E, P, l3;
  };
  const Pair pairs[] = {
      {2, 0.5, 400, 2, 0.5, 400, 3, 0, 0},
      {1, 0.5, 125, 2, 0.5, 100, 3, 0, 10},
      {3, 1, 90, 3, 1, 90, 0, 0, 0},
  };
  for (const Pair& p : pairs) {
    const double zk[] = {p.l3 - p.l1, p.l3 + p.l2 - p.l1, p.l3 + p.l2, p.l3};
    std::vector<std::vector<double>> cols(7);
    for (const double z : zk) {
      const double v[] = {p.a, p.b, p.c, p.d, p.E, p.P, z};
      for (int k = 0; k < 7; ++k) cols[k].push_back(um(v[k]));
    }
    const std::vector<double> s =
        eval_slices(detail::kb_scalar::eval_slice, cols);
    const double oracle =
        hoer_love_mutual(um(p.a), um(p.b), um(p.l1), um(p.c), um(p.d),
                         um(p.l2), um(p.E), um(p.P), um(p.l3));
    EXPECT_NEAR(s[0] - s[1] + s[2] - s[3], oracle,
                kOracleRelTol * std::abs(oracle))
        << "l1=" << p.l1 << " um, l3=" << p.l3 << " um";
  }
}

TEST(SliceContract, SliceCountPerClass) {
  PartialOptions opt;
  const auto counts = [&](const Bar& b1, const Bar* b2) {
    BatchEvaluator ev;
    if (b2 == nullptr) {
      ev.add_self(b1, opt);
    } else {
      ev.add_pair(b1, *b2, opt);
    }
    return std::pair{ev.volume_terms(), ev.volume_entries()};
  };
  using Counts = std::pair<std::size_t, std::size_t>;
  // Aligned near pair, n = 47, V = {-1, 0, 1}: slices at 0, c, 2c.
  const Bar thin = make_bar(um(1), um(1), um(6000));
  const Bar wide = make_bar(um(6.7), um(1), um(6000), um(1.5));
  EXPECT_EQ(counts(thin, &wide), (Counts{3, 3}));
  // Self, n = 47, V = {0, 1} (touching chunks): slices at 0, c, 2c.
  const Bar self = make_bar(um(1), um(0.5), um(6000));
  ASSERT_EQ(chunk_count(self, opt.max_aspect), 47);
  EXPECT_EQ(counts(self, nullptr), (Counts{2, 3}));
  // n = 1, pair and self: the one bracket's slices at 0 and c.
  const Bar s1 = make_bar(um(2), um(0.5), um(100));
  const Bar s2 = make_bar(um(2), um(0.5), um(100), um(3));
  EXPECT_EQ(counts(s1, &s2), (Counts{1, 2}));
  EXPECT_EQ(counts(s1, nullptr), (Counts{1, 2}));
  // Every offset volume-routed: the weights telescope to the whole-bar
  // bracket, slices at 0 and n c.
  PartialOptions fine;
  fine.max_aspect = 8.0;
  fine.far_factor = 100.0;
  BatchEvaluator ev;
  ev.add_pair(make_bar(um(2), um(1), um(100)),
              make_bar(um(2), um(1), um(100), um(3)), fine);
  EXPECT_EQ(ev.volume_terms(), 13u);
  EXPECT_EQ(ev.volume_entries(), 2u);
}

TEST(SliceContract, CaseGridPairsAndSelvesMatchOracle) {
  // Non-aligned pairs: ChunkOffsetCollapse.NonAlignedPairsTakeTheFullSweep.
  // Flat bars (width >= 5 x thickness: the 10 x 2 um trace, the 8 x 1 um
  // plane strip) cancel further, because chunk_count caps the chunk length
  // at max_aspect times the larger side only.  For them the libm oracle
  // itself sits up to 8e-7 from a long-double evaluation of the same sum,
  // and the engine up to 5e-7 (docs/performance.md "Volume offsets in
  // shared z-slices"); the two differ by up to 1.24e-6 there.
  constexpr double kFlatOracleRelTol = 2e-6;
  const auto tol = [](const Bar& b1, const Bar& b2) {
    const bool flat = b1.t_width >= 5.0 * b1.z_thick ||
                      b2.t_width >= 5.0 * b2.z_thick;
    return flat ? kFlatOracleRelTol : kOracleRelTol;
  };
  PartialOptions opt;
  for (const AlignedCase& c : aligned_case_grid()) {
    const double oracle = mutual_partial(c.b1, c.b2, opt);
    EXPECT_NEAR(batch_pair(c.b1, c.b2, opt), oracle,
                tol(c.b1, c.b2) * std::abs(oracle))
        << "l=" << c.l_um << " um, dx=" << c.dx_um << " um";
    for (const Bar& b : {c.b1, c.b2}) {
      const double self = self_partial(b, opt);
      EXPECT_NEAR(batch_self(b, opt), self, tol(b, b) * std::abs(self))
          << "self w=" << b.t_width / um(1) << " um, l=" << c.l_um << " um";
    }
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
  // The direct-fill oracle sends every pair through the engine.
  const std::vector<Filament> mesh = test_mesh(12);
  RealMatrix scalar_lp(0, 0);
  {
    ScopedSimdMode mode(numeric::SimdMode::kScalar);
    scalar_lp = direct_partial_inductance_matrix(mesh);
  }
  if (numeric::simd_avx2_supported()) {
    ScopedSimdMode mode(numeric::SimdMode::kAvx2);
    const RealMatrix lp = direct_partial_inductance_matrix(mesh);
    for (std::size_t i = 0; i < lp.rows(); ++i)
      for (std::size_t j = 0; j < lp.cols(); ++j)
        EXPECT_EQ(lp(i, j), scalar_lp(i, j)) << "avx2 " << i << "," << j;
  }
  if (numeric::simd_avx512_supported()) {
    ScopedSimdMode mode(numeric::SimdMode::kAvx512);
    const RealMatrix lp = direct_partial_inductance_matrix(mesh);
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
  const std::size_t terms = ev.volume_terms() + ev.filament_entries();
  EXPECT_GT(terms, 0u);
  const BatchStats before = batch_stats_total();
  double v = 0.0;
  ev.run(&v);
  const BatchStats after = batch_stats_total();
  EXPECT_EQ(after.batch_runs, before.batch_runs + 1);
  EXPECT_EQ((after.volume_terms + after.filament_terms) -
                (before.volume_terms + before.filament_terms),
            terms);
  EXPECT_EQ(after.volume_corners - before.volume_corners,
            16 * ev.volume_entries());
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
  // The memo contract, carried end-to-end by the engine: the memoized
  // three-pass fill and the direct-fill oracle agree element-exactly.
  const std::vector<Filament> mesh = test_mesh(16);
  const RealMatrix direct = direct_partial_inductance_matrix(mesh);
  const RealMatrix memo = partial_inductance_matrix(mesh);
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(memo(i, j), direct(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace rlcx::peec
