#include "peec/kernel_batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "numeric/simd.h"
#include "rt/parallel.h"

namespace rlcx::peec {

namespace {

// Process-wide counters (relaxed: they are an aggregate report, not a
// synchronization point) — mirrors assembly.cpp's fill counters.
std::atomic<std::size_t> g_batch_runs{0};
std::atomic<std::size_t> g_volume_terms{0};
std::atomic<std::size_t> g_volume_corners{0};
std::atomic<std::size_t> g_filament_terms{0};
std::atomic<std::uint64_t> g_eval_nanos{0};

// Scheduling grains: a slice entry costs ~0.1-0.5 us (16 corner
// evaluations), a filament entry ~0.1 us, so these keep chunks well above
// the ~10 us scheduler overhead floor.  Values are elementwise per entry,
// so chunk boundaries cannot change results (determinism is layout-borne).
constexpr std::size_t kSliceGrain = 512;
constexpr std::size_t kFilamentGrain = 1024;

// Batches smaller than a couple of chunks run inline: for a batch of one
// or two entries even an inline-returning parallel_for dispatch is
// measurable overhead.
constexpr std::size_t kInlineCutoff = 2;

using SliceFn = void (*)(const detail::SliceSoa&, std::size_t, std::size_t,
                         double*);
using FilamentFn = void (*)(const detail::FilamentSoa&, std::size_t,
                            std::size_t, double*);

SliceFn pick_slice() {
  const numeric::SimdMode mode = numeric::simd_mode();
#if defined(RLCX_HAVE_AVX512)
  if (mode == numeric::SimdMode::kAvx512)
    return detail::kb_avx512::eval_slice;
#endif
#if defined(RLCX_HAVE_AVX2)
  if (mode == numeric::SimdMode::kAvx2) return detail::kb_avx2::eval_slice;
#endif
  (void)mode;
  return detail::kb_scalar::eval_slice;
}

FilamentFn pick_filament() {
  const numeric::SimdMode mode = numeric::simd_mode();
#if defined(RLCX_HAVE_AVX512)
  if (mode == numeric::SimdMode::kAvx512)
    return detail::kb_avx512::eval_filament;
#endif
#if defined(RLCX_HAVE_AVX2)
  if (mode == numeric::SimdMode::kAvx2)
    return detail::kb_avx2::eval_filament;
#endif
  (void)mode;
  return detail::kb_scalar::eval_filament;
}

// The near/far rule every chunk pair is routed by: the filament closed form
// when the chunks are far apart transversely (r) or axially (the gap
// between their axial ranges), measured against far_factor mean cross
// diagonals; the Hoer-Love volume kernel otherwise.  Near pairs need the
// volume kernel (GMD effects), and far pairs must not take it: there the
// 64-term bracket cancels to a value tiny next to its terms, and the
// round-off accumulates systematically across many chunk pairs.
double far_limit(const Bar& p, const Bar& q, const PartialOptions& opt) {
  const double diag = 0.5 * (p.cross_diag() + q.cross_diag());
  return opt.far_factor * diag;
}

double radial_distance(const Bar& p, const Bar& q) {
  return std::hypot(q.t_center() - p.t_center(), q.z_center() - p.z_center());
}

double axial_gap(const Bar& p, const Bar& q) {
  return std::max(0.0, std::max(p.a_min, q.a_min) -
                           std::min(p.a_max(), q.a_max()));
}

bool volume_routed(const Bar& p, const Bar& q, const PartialOptions& opt) {
  const double limit = far_limit(p, q, opt);
  return radial_distance(p, q) <= limit && axial_gap(p, q) <= limit;
}

}  // namespace

BatchStats batch_stats_total() {
  BatchStats s;
  s.batch_runs = g_batch_runs.load(std::memory_order_relaxed);
  s.volume_terms = g_volume_terms.load(std::memory_order_relaxed);
  s.volume_corners = g_volume_corners.load(std::memory_order_relaxed);
  s.filament_terms = g_filament_terms.load(std::memory_order_relaxed);
  s.eval_nanos = g_eval_nanos.load(std::memory_order_relaxed);
  return s;
}

const char* batch_simd_name() {
  return numeric::simd_mode_name(numeric::simd_mode());
}

std::size_t BatchEvaluator::begin_slot(bool self) {
  const std::size_t slot = slot_begin_.size();
  slot_begin_.push_back(static_cast<std::uint32_t>(terms_.size()));
  slot_self_.push_back(self ? 1 : 0);
  return slot;
}

void BatchEvaluator::append_filament(double l1, double l2, double s,
                                     double r, double weight) {
  detail::check_filament_args(l1, l2, s, r);
  const auto idx = static_cast<std::uint32_t>(fl1_.size());
  fl1_.push_back(l1);
  fl2_.push_back(l2);
  fs_.push_back(s);
  fr_.push_back(r);
  terms_.push_back(Term{idx | kFilamentBit, weight});
}

void BatchEvaluator::append_slice(const Bar& p, const Bar& q, double z,
                                  double weight) {
  const auto idx = static_cast<std::uint32_t>(va_.size());
  va_.push_back(p.t_width);
  vb_.push_back(p.z_thick);
  vc_.push_back(q.t_width);
  vd_.push_back(q.z_thick);
  vE_.push_back(q.t_min - p.t_min);
  vP_.push_back(q.z_min - p.z_min);
  vz_.push_back(z);
  terms_.push_back(Term{idx, weight});
}

void BatchEvaluator::append_chunk_pair(const Bar& p, const Bar& q,
                                       const PartialOptions& opt) {
  if (!volume_routed(p, q, opt)) {
    append_filament(p.length, q.length, q.a_min - p.a_min,
                    radial_distance(p, q), 1.0);
    return;
  }
  detail::check_hoer_love_dims(p.t_width, p.z_thick, p.length, q.t_width,
                               q.z_thick, q.length);
  ++volume_terms_;
  // The bracket's axial corners qz_k with their signs +, -, +, -.
  const double l3 = q.a_min - p.a_min;
  append_slice(p, q, l3 - p.length, 1.0);
  append_slice(p, q, l3 + q.length - p.length, -1.0);
  append_slice(p, q, l3 + q.length, 1.0);
  append_slice(p, q, l3, -1.0);
}

void BatchEvaluator::add_offset_bracket(int d, double weight) {
  // Chunks of length c at offset d: the axial corners are (d - 1)c, dc, dc
  // and (d + 1)c, and f is even in z.
  const auto m = [](int k) { return static_cast<std::size_t>(std::abs(k)); };
  if (slice_w_.size() < m(d) + 2) slice_w_.resize(m(d) + 2, 0.0);
  slice_w_[m(d - 1)] += weight;
  slice_w_[m(d)] -= 2.0 * weight;
  slice_w_[m(d + 1)] += weight;
  ++volume_terms_;
}

void BatchEvaluator::append_class_slices(const Bar& p, const Bar& q) {
  if (slice_w_.empty()) return;
  detail::check_hoer_love_dims(p.t_width, p.z_thick, p.length, q.t_width,
                               q.z_thick, q.length);
  // The weights are sums of small integers, so a slice whose brackets
  // cancel is exactly 0 and skipped.
  for (std::size_t m = 0; m < slice_w_.size(); ++m)
    if (slice_w_[m] != 0.0)
      append_slice(p, q, static_cast<double>(m) * p.length, slice_w_[m]);
  slice_w_.clear();
}

std::size_t BatchEvaluator::add_self(const Bar& bar,
                                     const PartialOptions& opt) {
  const std::size_t slot = begin_slot(/*self=*/true);
  // Chunk pair (i, i + d) of equal chunks depends on d alone: the (i, i)
  // diagonal occurs n times and each off-diagonal offset 2(n - d) times in
  // the symmetric n x n sweep.
  const int n = chunk_count(bar, opt.max_aspect);
  const Bar first = chunk_at(bar, n, 0);
  for (int d = 0; d < n; ++d) {
    const Bar q = chunk_at(bar, n, d);
    const double w = d == 0 ? n : 2.0 * (n - d);
    if (volume_routed(first, q, opt)) {
      add_offset_bracket(d, w);
    } else {
      append_filament(first.length, q.length, q.a_min - first.a_min,
                      radial_distance(first, q), w);
    }
  }
  append_class_slices(first, first);
  return slot;
}

void BatchEvaluator::append_aligned(const Bar& b1, const Bar& b2, int n,
                                    const PartialOptions& opt) {
  // Both bars cut at one step: chunk pair (k, k + d) depends on d alone
  // and occurs n - |d| times in the n x n sweep.
  const auto p_of = [&](int d) { return chunk_at(b1, n, std::max(0, -d)); };
  const auto q_of = [&](int d) { return chunk_at(b2, n, std::max(0, d)); };
  // Every chunk keeps its bar's cross-section, so the transverse half of
  // the routing rule is the same for all offsets; only the axial gap
  // varies with d.
  const double limit = far_limit(b1, b2, opt);
  const double r = radial_distance(b1, b2);
  const auto offset_routed = [&](int d) {
    return r <= limit && axial_gap(p_of(d), q_of(d)) <= limit;
  };
  int volume_offsets = 0;
  for (int d = 1 - n; d < n; ++d) volume_offsets += offset_routed(d);

  // The Neumann integral is additive over any split of the filaments, so
  // the filament terms of all offsets sum to one whole-bar term:
  //   sum_{|d| < n} (n - |d|) M_f(c, c, d c, r) = M_f(L, L, 0, r).
  // The filament-routed offsets are that term minus the volume-routed
  // offsets' filament terms.  Take it only when it has fewer terms.
  const bool whole_bar = 2 * volume_offsets + 1 < 2 * n - 1;
  for (int d = 1 - n; d < n; ++d) {
    const bool volume = offset_routed(d);
    if (whole_bar && !volume) continue;  // inside the whole-bar term
    const Bar p = p_of(d), q = q_of(d);
    const double w = n - std::abs(d);
    if (!volume) {
      append_filament(p.length, q.length, q.a_min - p.a_min, r, w);
      continue;
    }
    add_offset_bracket(d, w);
    if (whole_bar)
      append_filament(p.length, q.length, q.a_min - p.a_min, r, -w);
  }
  append_class_slices(p_of(0), q_of(0));
  if (whole_bar)
    append_filament(b1.length, b2.length, b2.a_min - b1.a_min, r, 1.0);
}

std::size_t BatchEvaluator::add_pair(const Bar& b1, const Bar& b2,
                                     const PartialOptions& opt) {
  const std::size_t slot = begin_slot(/*self=*/false);
  if (b1.axis != b2.axis) return slot;  // empty slot evaluates to exactly 0
  detail::check_pair_disjoint(b1, b2);
  const PairChunking pc = pair_chunking(b1, b2, opt.max_aspect);
  if (pc.aligned) {
    append_aligned(b1, b2, pc.n1, opt);
    return slot;
  }
  for (int i = 0; i < pc.n1; ++i) {
    const Bar p = chunk_at(b1, pc.n1, i);
    for (int j = 0; j < pc.n2; ++j)
      append_chunk_pair(p, chunk_at(b2, pc.n2, j), opt);
  }
  return slot;
}

void BatchEvaluator::run(double* results, rt::Pool* pool) {
  if (slot_begin_.empty()) return;

  const std::size_t nv = va_.size();
  const std::size_t nf = fl1_.size();
  vvals_.resize(nv);
  fvals_.resize(nf);

  const detail::SliceSoa vsoa{va_.data(), vb_.data(), vc_.data(),
                              vd_.data(), vE_.data(), vP_.data(),
                              vz_.data()};
  const detail::FilamentSoa fsoa{fl1_.data(), fl2_.data(), fs_.data(),
                                 fr_.data()};
  const SliceFn vol = pick_slice();
  const FilamentFn fil = pick_filament();

  const auto t0 = std::chrono::steady_clock::now();
  if (nv > 0) {
    if (nv < kInlineCutoff * kSliceGrain) {
      vol(vsoa, 0, nv, vvals_.data());
    } else {
      rt::parallel_for(
          0, nv,
          [&](std::size_t lo, std::size_t hi) {
            vol(vsoa, lo, hi, vvals_.data());
          },
          {.grain = kSliceGrain, .pool = pool});
    }
  }
  if (nf > 0) {
    if (nf < kInlineCutoff * kFilamentGrain) {
      fil(fsoa, 0, nf, fvals_.data());
    } else {
      rt::parallel_for(
          0, nf,
          [&](std::size_t lo, std::size_t hi) {
            fil(fsoa, lo, hi, fvals_.data());
          },
          {.grain = kFilamentGrain, .pool = pool});
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Serial per-slot reduction in recorded term order: the evaluation tree
  // of each class value is fixed by its chunk decomposition alone, exactly
  // like the scalar chunk sweeps.
  const std::size_t nslots = slot_begin_.size();
  for (std::size_t s = 0; s < nslots; ++s) {
    const std::size_t begin = slot_begin_[s];
    const std::size_t end =
        (s + 1 < nslots) ? slot_begin_[s + 1] : terms_.size();
    double acc = 0.0;
    for (std::size_t t = begin; t < end; ++t) {
      const Term& term = terms_[t];
      const double v = (term.idx & kFilamentBit)
                           ? fvals_[term.idx & ~kFilamentBit]
                           : vvals_[term.idx];
      acc += term.weight * v;
    }
    results[s] = detail::check_finite_value(
        acc, slot_self_[s] != 0 ? "self partial inductance"
                                : "mutual partial inductance");
  }

  g_batch_runs.fetch_add(1, std::memory_order_relaxed);
  g_volume_terms.fetch_add(volume_terms_, std::memory_order_relaxed);
  g_volume_corners.fetch_add(16 * nv, std::memory_order_relaxed);
  g_filament_terms.fetch_add(nf, std::memory_order_relaxed);
  g_eval_nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()),
      std::memory_order_relaxed);
}

void BatchEvaluator::clear() {
  va_.clear();
  vb_.clear();
  vc_.clear();
  vd_.clear();
  vE_.clear();
  vP_.clear();
  vz_.clear();
  fl1_.clear();
  fl2_.clear();
  fs_.clear();
  fr_.clear();
  terms_.clear();
  volume_terms_ = 0;
  slice_w_.clear();
  slot_begin_.clear();
  slot_self_.clear();
}

}  // namespace rlcx::peec
