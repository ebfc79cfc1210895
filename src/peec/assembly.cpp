#include "peec/assembly.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "peec/kernel_batch.h"
#include "res/budget.h"

namespace rlcx::peec {

double bar_resistance(const Bar& bar, double rho) {
  const double area = bar.cross_area();
  if (area <= 0.0) throw std::invalid_argument("bar_resistance: area");
  return rho * bar.length / area;
}

namespace {

std::atomic<std::size_t> g_pair_lookups{0};
std::atomic<std::size_t> g_kernel_evals{0};
std::atomic<std::size_t> g_memo_hits{0};

/// Flat index of (i, j), i <= j, in the row-major upper triangle.
std::size_t tri_index(std::size_t i, std::size_t j, std::size_t n) {
  return i * n - i * (i - 1) / 2 + (j - i);
}

/// Relative tolerance of the PairKey quantization, in units of the fill's
/// largest geometric extent.  1e-12 is ~4 decades above coordinate
/// round-off (so translated copies of the same pair land in one class)
/// and far below any intentional mesh perturbation.
constexpr double kMemoRelTol = 1e-12;

/// Largest coordinate magnitude / dimension in the fill; the PairKey
/// quantum is this scale times kMemoRelTol, so quantization noise is
/// measured against the whole structure rather than any single bar.
double fill_scale(const std::vector<Filament>& filaments) {
  double s = 0.0;
  for (const Filament& f : filaments) {
    const Bar& b = f.bar;
    s = std::max({s, std::abs(b.a_min), std::abs(b.a_max()),
                  std::abs(b.t_min), std::abs(b.t_max()),
                  std::abs(b.z_min), std::abs(b.z_max()),
                  b.length, b.t_width, b.z_thick});
  }
  return s;
}

constexpr std::uint32_t kOrthogonalClass = 0xffffffffu;

// Flush pass 2's batch once this many SoA entries accumulate:
// bounds the evaluator's working memory (13 doubles/entry -> ~7 MB) on
// huge fills without giving up long vector runs.  Values are elementwise
// per entry, so the flush boundary cannot change any result.
constexpr std::size_t kBatchFlushEntries = std::size_t{1} << 16;

}  // namespace

FillStats fill_stats_total() {
  FillStats s;
  s.pair_lookups = g_pair_lookups.load(std::memory_order_relaxed);
  s.kernel_evals = g_kernel_evals.load(std::memory_order_relaxed);
  s.memo_hits = g_memo_hits.load(std::memory_order_relaxed);
  return s;
}

std::size_t estimate_fill_bytes(std::size_t filaments) {
  return std::max<std::size_t>(filaments * filaments * sizeof(double), 1024);
}

RealMatrix partial_inductance_matrix(const std::vector<Filament>& filaments,
                                     const PartialOptions& opt,
                                     rt::Pool* pool, FillStats* stats) {
  const std::size_t n = filaments.size();
  // Standalone fills reserve their result against the memory budget; under
  // a solver-path reservation (which already priced this fill in) the
  // ambient coverage makes this a no-op.
  std::optional<res::ScopedReservation> reservation;
  if (!res::ScopedReservation::covered())
    reservation.emplace("peec-fill", estimate_fill_bytes(n));
  RealMatrix lp(n, n);
  FillStats local;

  const double scale = fill_scale(filaments);
  // A fill of all-zero bars has no scale; any quantum keys it, and the
  // kernel's geometry guards reject it in pass 2.
  const double quantum = scale > 0.0 ? scale * kMemoRelTol : 1.0;

  // Pass 1 (serial): group the upper triangle into relative-geometry
  // classes.  The first pair scanned becomes the class representative,
  // so the class list — and therefore every memoized value — is
  // independent of how pass 2 is scheduled.
  struct ClassRec {
    std::uint32_t i, j;
    double value = 0.0;
  };
  std::vector<ClassRec> classes;
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> self_ids;
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> pair_ids;
  std::vector<std::uint32_t> cls(n * (n + 1) / 2, kOrthogonalClass);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const Bar& bi = filaments[i].bar;
      const Bar& bj = filaments[j].bar;
      if (i != j && bi.axis != bj.axis) continue;  // exact zero, no kernel
      ++local.pair_lookups;
      // Self classes and pair classes live in separate maps: a pair of
      // *distinct* bars whose key degenerates to a self key is a
      // coincident-bar layout error, and must reach the kernel's
      // disjointness guard instead of silently reusing a self value.
      auto& ids = i == j ? self_ids : pair_ids;
      const PairKey key = i == j ? make_self_key(bi, quantum)
                                 : make_pair_key(bi, bj, quantum);
      const auto [it, inserted] =
          ids.try_emplace(key, static_cast<std::uint32_t>(classes.size()));
      if (inserted) {
        classes.push_back({static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(j), 0.0});
      } else {
        ++local.memo_hits;
      }
      cls[tri_index(i, j, n)] = it->second;
    }
  }

  // Pass 2: one batched kernel evaluation per class.  Classes append in
  // pass-1 order into SoA batches the engine fans out across the pool;
  // every class value is an order-fixed reduction of elementwise entry
  // values, so the result is independent of pool width and of where the
  // memory-bounding flushes land.
  {
    BatchEvaluator ev;
    std::size_t flushed = 0;
    std::vector<double> values(classes.size());
    auto flush = [&] {
      ev.run(values.data() + flushed, pool);
      flushed += ev.slots();
      ev.clear();
    };
    for (const ClassRec& r : classes) {
      if (r.i == r.j) {
        ev.add_self(filaments[r.i].bar, opt);
      } else {
        ev.add_pair(filaments[r.i].bar, filaments[r.j].bar, opt);
      }
      if (ev.volume_entries() + ev.filament_entries() >= kBatchFlushEntries)
        flush();
    }
    flush();
    for (std::size_t c = 0; c < classes.size(); ++c)
      classes[c].value = values[c];
  }
  local.kernel_evals = classes.size();

  // Pass 3: scatter with the orientation signs folded in.  Orthogonal
  // pairs keep the zero the matrix was initialised with.
  for (std::size_t i = 0; i < n; ++i) {
    lp(i, i) = classes[cls[tri_index(i, i, n)]].value;
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint32_t c = cls[tri_index(i, j, n)];
      if (c == kOrthogonalClass) continue;
      const double m =
          filaments[i].sign * filaments[j].sign * classes[c].value;
      lp(i, j) = m;
      lp(j, i) = m;
    }
  }

  g_pair_lookups.fetch_add(local.pair_lookups, std::memory_order_relaxed);
  g_kernel_evals.fetch_add(local.kernel_evals, std::memory_order_relaxed);
  g_memo_hits.fetch_add(local.memo_hits, std::memory_order_relaxed);
  if (stats != nullptr) *stats = local;
  return lp;
}

}  // namespace rlcx::peec
