// Partial self and mutual inductance of rectangular bars: the shared
// vocabulary of the PEEC fill.
//
// The exact kernel is Hoer & Love's 1965 triple-bracket formula for
// parallel rectangular conductors — the same kernel FastHenry/Raphael-class
// extractors evaluate — with an exact thin-filament closed form for
// well-separated chunk pairs; the batch engine (kernel_batch.h) evaluates
// both.  This header provides what the engine and the fill share:
//   * the fill options (chunk aspect, far-field threshold),
//   * lengthwise subdivision to keep the kernel numerically healthy for the
//     huge aspect ratios of clock wiring (6000 um long, 1-10 um wide),
//   * a translation-invariant PairKey so matrix fills evaluate the kernel
//     once per *relative-geometry class* instead of once per pair
//     (paper Foundations 1-2: partial inductance depends only on the bars'
//     own dimensions and their relative offsets),
//   * the geometry guards every kernel evaluation passes.
// The scalar libm kernels that serve as the engine's accuracy oracle live
// with the tests (tests/support/partial_reference.h).
#pragma once

#include <cstdint>

#include "peec/bar.h"

namespace rlcx::peec {

struct PartialOptions {
  /// Chunks are cut so length/cross_diag stays below this; keeps the 64-term
  /// Hoer-Love cancellation within double precision.
  double max_aspect = 128.0;
  /// Center distance (in units of mean cross diagonal) beyond which the
  /// exact filament formula replaces the volume kernel (<0.1 % error).
  double far_factor = 12.0;
};

// ---------------------------------------------------------------------------
// Lengthwise chunking.  One rule decides how every bar and bar pair is cut
// into chunks; the batch engine (kernel_batch.h) and the scalar oracles
// (tests/support/partial_reference.h) both follow it, so they sum the same
// chunk decomposition.

/// Number of equal lengthwise chunks that keeps a bar's chunk
/// length / max(width, thickness) within max_aspect (at least 1).
int chunk_count(const Bar& b, double max_aspect);

/// Chunk k of a bar cut lengthwise into n equal chunks.
inline Bar chunk_at(const Bar& b, int n, int k) {
  const double step = b.length / n;
  Bar c = b;
  c.a_min = b.a_min + k * step;
  c.length = step;
  return c;
}

/// How a same-axis pair is chunked.  Aligned bars (equal a_min and equal
/// length, as every pair of one conductor block is) are both cut into
/// n = max(n1, n2) chunks, so chunk pair (k, k + d) depends on the offset
/// d alone — the engine sums the pair by offset, its filament-routed
/// offsets in one whole-bar closed form (partial inductance is
/// translation-invariant along the axis and additive over chunks).  Other
/// pairs keep their own per-bar counts and are summed over all n1 x n2
/// chunk pairs.  Every chunk respects max_aspect either way.
struct PairChunking {
  int n1 = 1;
  int n2 = 1;
  bool aligned = false;
};
PairChunking pair_chunking(const Bar& b1, const Bar& b2, double max_aspect);

// ---------------------------------------------------------------------------
// Relative-geometry memoization.
//
// The kernel value for a same-axis bar pair is a function of the two
// cross-sections, the two lengths, and the center-to-center offset vector
// only — never of absolute position (paper Foundations 1-2: translation
// invariance).  PairKey canonicalizes under translation: dimensions and
// signed center offsets quantized to a relative tolerance.  Translation-
// equal pairs on a regular mesh present bit-identical inputs to the
// kernel, so the memoized fill preserves the direct fill bit-for-bit.
// (Mirror reflections and bar exchange are symmetries of the kernel too,
// but a mirrored pair sums the bracket's cancelling terms in a different
// order, so folding them would trade that bit-exactness away.)

struct PairKey {
  // Quantized bar dimensions (bar 1, then bar 2) and center offsets, all
  // in units of the fill-wide quantum.
  std::int64_t w1 = 0, h1 = 0, l1 = 0;
  std::int64_t w2 = 0, h2 = 0, l2 = 0;
  std::int64_t dt = 0, dz = 0, da = 0;
  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept;
};

/// Canonical key of a same-axis pair; `quantum` is the absolute geometric
/// tolerance (the fill's scale × its relative tolerance).  Any translated
/// copy of the pair maps to the same key.
PairKey make_pair_key(const Bar& b1, const Bar& b2, double quantum);

/// Key of a bar's self class: (w, h, l) quantized, offsets zero.
PairKey make_self_key(const Bar& bar, double quantum);

// ---------------------------------------------------------------------------
// Guards shared between the batch engine (kernel_batch.h) and the scalar
// oracles: both must reject the same degenerate geometry with the same
// diagnostics, so the checks live in one place.

namespace detail {

/// Throws diag::GeometryError unless every bar dimension of a Hoer-Love
/// pair is positive (the check hoer_love_mutual performs on entry).
void check_hoer_love_dims(double a, double b, double l1, double c, double d,
                          double l2);

/// Throws diag::GeometryError on non-positive lengths / negative radius,
/// and for r == 0 on axially overlapping collinear filaments (divergent
/// mutual) — the checks filament_mutual performs on entry.
void check_filament_args(double l1, double l2, double s, double r);

/// Throws diag::GeometryError when two distinct bars overlap in volume.
void check_pair_disjoint(const Bar& b1, const Bar& b2);

/// Throws diag::NumericError when a kernel result is not finite.
double check_finite_value(double value, const char* what);

}  // namespace detail

}  // namespace rlcx::peec
