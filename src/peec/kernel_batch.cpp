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
std::atomic<std::size_t> g_filament_terms{0};
std::atomic<std::uint64_t> g_eval_nanos{0};

// Scheduling grains: a volume entry costs ~1-3 us (64 corner evaluations),
// a filament entry ~0.1 us, so these keep chunks well above the ~10 us
// scheduler overhead floor.  Values are elementwise per entry, so chunk
// boundaries cannot change results (determinism is layout-borne).
constexpr std::size_t kVolumeGrain = 128;
constexpr std::size_t kFilamentGrain = 1024;

// Batches smaller than a couple of chunks run inline: for a batch of one
// or two entries even an inline-returning parallel_for dispatch is
// measurable overhead.
constexpr std::size_t kInlineCutoff = 2;

using VolumeFn = void (*)(const detail::VolumeSoa&, std::size_t, std::size_t,
                          double*);
using FilamentFn = void (*)(const detail::FilamentSoa&, std::size_t,
                            std::size_t, double*);

VolumeFn pick_volume() {
  const numeric::SimdMode mode = numeric::simd_mode();
#if defined(RLCX_HAVE_AVX512)
  if (mode == numeric::SimdMode::kAvx512)
    return detail::kb_avx512::eval_volume;
#endif
#if defined(RLCX_HAVE_AVX2)
  if (mode == numeric::SimdMode::kAvx2) return detail::kb_avx2::eval_volume;
#endif
  (void)mode;
  return detail::kb_scalar::eval_volume;
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

}  // namespace

BatchStats batch_stats_total() {
  BatchStats s;
  s.batch_runs = g_batch_runs.load(std::memory_order_relaxed);
  s.volume_terms = g_volume_terms.load(std::memory_order_relaxed);
  s.filament_terms = g_filament_terms.load(std::memory_order_relaxed);
  s.eval_nanos = g_eval_nanos.load(std::memory_order_relaxed);
  return s;
}

void reset_batch_stats_total() {
  g_batch_runs.store(0, std::memory_order_relaxed);
  g_volume_terms.store(0, std::memory_order_relaxed);
  g_filament_terms.store(0, std::memory_order_relaxed);
  g_eval_nanos.store(0, std::memory_order_relaxed);
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

// The exact near/far routing of partial_inductance.cpp's chunk_mutual,
// evaluated scalar at append time so a batched fill classifies every chunk
// pair identically to the legacy walk (including the std::hypot rounding).
void BatchEvaluator::append_chunk_pair(const Bar& p, const Bar& q,
                                       const PartialOptions& opt,
                                       double weight) {
  const double diag = 0.5 * (p.cross_diag() + q.cross_diag());
  const double dt = q.t_center() - p.t_center();
  const double dz = q.z_center() - p.z_center();
  const double r = std::hypot(dt, dz);
  const double axial_gap =
      std::max(0.0, std::max(p.a_min, q.a_min) -
                        std::min(p.a_max(), q.a_max()));
  if (r > opt.far_factor * diag || axial_gap > opt.far_factor * diag) {
    detail::check_filament_args(p.length, q.length, q.a_min - p.a_min, r);
    const auto idx = static_cast<std::uint32_t>(fl1_.size());
    fl1_.push_back(p.length);
    fl2_.push_back(q.length);
    fs_.push_back(q.a_min - p.a_min);
    fr_.push_back(r);
    terms_.push_back(Term{idx | kFilamentBit, weight});
  } else {
    detail::check_hoer_love_dims(p.t_width, p.z_thick, p.length, q.t_width,
                                 q.z_thick, q.length);
    const auto idx = static_cast<std::uint32_t>(va_.size());
    va_.push_back(p.t_width);
    vb_.push_back(p.z_thick);
    vl1_.push_back(p.length);
    vc_.push_back(q.t_width);
    vd_.push_back(q.z_thick);
    vl2_.push_back(q.length);
    vE_.push_back(q.t_min - p.t_min);
    vP_.push_back(q.z_min - p.z_min);
    vl3_.push_back(q.a_min - p.a_min);
    terms_.push_back(Term{idx, weight});
  }
}

std::size_t BatchEvaluator::add_self(const Bar& bar,
                                     const PartialOptions& opt) {
  const std::size_t slot = begin_slot(/*self=*/true);
  // Chunk pair (i, i + d) of equal chunks depends on d alone: the (i, i)
  // diagonal occurs n times and each off-diagonal offset 2(n - d) times in
  // self_partial's symmetric sweep.
  const int n = chunk_count(bar, opt.max_aspect);
  const Bar first = chunk_at(bar, n, 0);
  for (int d = 0; d < n; ++d)
    append_chunk_pair(first, chunk_at(bar, n, d), opt,
                      d == 0 ? n : 2.0 * (n - d));
  return slot;
}

std::size_t BatchEvaluator::add_pair(const Bar& b1, const Bar& b2,
                                     const PartialOptions& opt) {
  const std::size_t slot = begin_slot(/*self=*/false);
  if (b1.axis != b2.axis) return slot;  // empty slot evaluates to exactly 0
  detail::check_pair_disjoint(b1, b2);
  const PairChunking pc = pair_chunking(b1, b2, opt.max_aspect);
  if (pc.aligned) {
    // Both bars cut at one step: chunk pair (k, k + d) depends on d alone
    // and occurs n - |d| times in the n x n sweep.
    const int n = pc.n1;
    for (int d = 1 - n; d < n; ++d)
      append_chunk_pair(chunk_at(b1, n, std::max(0, -d)),
                        chunk_at(b2, n, std::max(0, d)), opt, n - std::abs(d));
    return slot;
  }
  for (int i = 0; i < pc.n1; ++i) {
    const Bar p = chunk_at(b1, pc.n1, i);
    for (int j = 0; j < pc.n2; ++j)
      append_chunk_pair(p, chunk_at(b2, pc.n2, j), opt, 1.0);
  }
  return slot;
}

void BatchEvaluator::run(double* results, rt::Pool* pool) {
  if (slot_begin_.empty()) return;

  const std::size_t nv = va_.size();
  const std::size_t nf = fl1_.size();
  vvals_.resize(nv);
  fvals_.resize(nf);

  const detail::VolumeSoa vsoa{va_.data(), vb_.data(),  vl1_.data(),
                               vc_.data(), vd_.data(),  vl2_.data(),
                               vE_.data(), vP_.data(),  vl3_.data()};
  const detail::FilamentSoa fsoa{fl1_.data(), fl2_.data(), fs_.data(),
                                 fr_.data()};
  const VolumeFn vol = pick_volume();
  const FilamentFn fil = pick_filament();

  const auto t0 = std::chrono::steady_clock::now();
  if (nv > 0) {
    if (nv < kInlineCutoff * kVolumeGrain) {
      vol(vsoa, 0, nv, vvals_.data());
    } else {
      rt::parallel_for(
          0, nv,
          [&](std::size_t lo, std::size_t hi) {
            vol(vsoa, lo, hi, vvals_.data());
          },
          {.grain = kVolumeGrain, .pool = pool});
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
  g_volume_terms.fetch_add(nv, std::memory_order_relaxed);
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
  vl1_.clear();
  vc_.clear();
  vd_.clear();
  vl2_.clear();
  vE_.clear();
  vP_.clear();
  vl3_.clear();
  fl1_.clear();
  fl2_.clear();
  fs_.clear();
  fr_.clear();
  terms_.clear();
  slot_begin_.clear();
  slot_self_.clear();
}

}  // namespace rlcx::peec
