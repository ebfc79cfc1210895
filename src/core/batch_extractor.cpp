#include "core/batch_extractor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "diag/error.h"
#include "diag/warnings.h"
#include "geom/block.h"
#include "res/budget.h"
#include "rt/parallel.h"
#include "rt/pool.h"
#include "run/control.h"
#include "run/journal.h"
#include "solver/block_solver.h"

namespace rlcx::core {

namespace {

struct PairSolve {
  double self1;
  double mutual;
  double r1;  ///< AC series resistance of the first trace
};

/// One 2-trace solve.
PairSolve solve_pair(const geom::Technology& tech, int layer,
                     geom::PlaneConfig planes, double w1, double w2,
                     double s, double l, const solver::SolveOptions& opt) {
  std::vector<geom::Trace> traces{
      {geom::TraceRole::kSignal, w1, -0.5 * (s + w1), "a"},
      {geom::TraceRole::kSignal, w2, 0.5 * (s + w2), "b"},
  };
  const geom::Block blk(&tech, layer, l, std::move(traces), planes);
  if (table_kind_for(planes) == TableKind::kPartial) {
    const solver::PartialResult r = solver::extract_partial(blk, opt);
    return {r.inductance(0, 0), r.inductance(0, 1), r.resistance[0]};
  }
  const solver::LoopResult r = solver::extract_loop(blk, opt);
  return {r.inductance(0, 0), r.inductance(0, 1), r.resistance(0, 0)};
}

/// One table characterisation decomposed into independent grid-point
/// solves.  solve_point() is thread-safe for distinct indices and writes
/// disjoint slots, so any schedule yields bit-identical tables; every
/// index in [0, points()) must be solved exactly once before finish().
class GridSolvePlan {
 public:
  GridSolvePlan(const geom::Technology& tech, int layer,
                geom::PlaneConfig planes, TableGrid grid,
                solver::SolveOptions opt);

  std::size_t points() const { return n_points_; }
  void solve_point(std::size_t index);
  /// Assembles the tables; call once, after every point is solved.
  InductanceTables finish();

 private:
  const geom::Technology* tech_;
  int layer_;
  geom::PlaneConfig planes_;
  TableGrid grid_;
  solver::SolveOptions opt_;
  std::size_t n_points_ = 0;
  /// Charges the grid arrays against the memory budget for the plan's
  /// lifetime; acquiring it in the constructor makes an over-budget
  /// characterisation fail before the first field solve.
  res::Reservation grid_reservation_;
  std::vector<double> mutual_vals_;
  std::vector<double> self_vals_;
  std::vector<double> r_vals_;
};

GridSolvePlan::GridSolvePlan(const geom::Technology& tech, int layer,
                             geom::PlaneConfig planes, TableGrid grid,
                             solver::SolveOptions opt)
    : tech_(&tech), layer_(layer), planes_(planes), grid_(std::move(grid)),
      opt_(std::move(opt)) {
  if (grid_.widths.size() < 2 || grid_.spacings.size() < 2 ||
      grid_.lengths.size() < 2)
    throw std::invalid_argument("build_tables: each axis needs >= 2 points");
  const std::size_t nw = grid_.widths.size();
  const std::size_t ns = grid_.spacings.size();
  const std::size_t nl = grid_.lengths.size();
  n_points_ = nw * nw * ns * nl;
  // An over-budget grid fails here, before the first field solve, with a
  // typed ResourceExhaustedError (docs/robustness.md "Resource
  // governance").
  grid_reservation_ = res::Reservation("table-grid", estimate_grid_bytes(grid_));
  // Mutual table, last axis fastest: (w1, w2, s, l).
  mutual_vals_.resize(n_points_);
  // The self values (and the AC series resistance) fall out of the same
  // solves (diagonal of the pair), taken at a reference spacing;
  // Foundation 1 says the result must not depend on the companion trace,
  // and the Foundations test suite checks that it doesn't.
  self_vals_.resize(nw * nl);
  r_vals_.resize(nw * nl);
}

void GridSolvePlan::solve_point(std::size_t index) {
  // Point boundary of the characterisation fan-out: a point either solves
  // completely (all its table slots written) or not at all, so a cancelled
  // campaign never leaves a half-written grid point behind.  The rt chunk
  // checkpoints cover the pooled path; this one covers a serial fan-out,
  // which runs the whole range as one inline chunk.
  run::checkpoint("table-build");
  const std::size_t nw = grid_.widths.size();
  const std::size_t ns = grid_.spacings.size();
  const std::size_t nl = grid_.lengths.size();
  // Decode the flat (w1, w2, s, l) point, last axis fastest.
  const std::size_t m = index % nl;
  const std::size_t k = (index / nl) % ns;
  const std::size_t j = (index / (nl * ns)) % nw;
  const std::size_t i = index / (nl * ns * nw);

  const PairSolve ps =
      solve_pair(*tech_, layer_, planes_, grid_.widths[i], grid_.widths[j],
                 grid_.spacings[k], grid_.lengths[m], opt_);
  mutual_vals_[index] = ps.mutual;
  // Harvest self(w_i, l_m) from the widest-spaced solve, where the
  // companion perturbs the loop-mode result least.
  if (j == 0 && k + 1 == ns) {
    self_vals_[i * nl + m] = ps.self1;
    r_vals_[i * nl + m] = ps.r1;
  }
}

InductanceTables GridSolvePlan::finish() {
  InductanceTables out;
  out.layer = layer_;
  out.planes = planes_;
  out.frequency = opt_.frequency;
  out.self = NdTable({"width", "length"}, {grid_.widths, grid_.lengths},
                     std::move(self_vals_));
  out.mutual = NdTable(
      {"w1", "w2", "spacing", "length"},
      {grid_.widths, grid_.widths, grid_.spacings, grid_.lengths},
      std::move(mutual_vals_));
  out.series_r = NdTable({"width", "length"}, {grid_.widths, grid_.lengths},
                         std::move(r_vals_));
  return out;
}

/// A deduplicated job that missed the cache: its plan plus where its grid
/// points start inside the batch-wide flat range.
struct PendingBuild {
  std::size_t job = 0;  ///< index into the caller's jobs vector
  std::string key;
  GridSolvePlan plan;
  std::size_t offset = 0;
  /// Grid points of this job not yet solved.  The worker that drops it to
  /// zero owns finalisation (tables assembled, cache store, journal
  /// record) — so a cancellation arriving later finds every completed job
  /// already durable.  Heap-held because atomics don't move with the
  /// vector.
  std::unique_ptr<std::atomic<std::size_t>> remaining;
};

/// after - before for the counted engine fields; the filament high-water
/// mark is a sample, so it is taken from `after`.
BuildStats engine_delta(const BuildStats& before, const BuildStats& after) {
  BuildStats d = after;
  d.pair_lookups -= before.pair_lookups;
  d.kernel_evals -= before.kernel_evals;
  d.memo_hits -= before.memo_hits;
  d.dense_solves -= before.dense_solves;
  d.batch_runs -= before.batch_runs;
  d.batch_volume_terms -= before.batch_volume_terms;
  d.batch_volume_corners -= before.batch_volume_corners;
  d.batch_filament_terms -= before.batch_filament_terms;
  d.batch_eval_nanos -= before.batch_eval_nanos;
  return d;
}

}  // namespace

BatchResult characterize_batch(const geom::Technology& tech,
                               const std::vector<BatchJob>& jobs,
                               const solver::SolveOptions& opt,
                               const BatchOptions& options) {
  BatchResult res;
  res.tables.resize(jobs.size());
  res.stats.resize(jobs.size());

  // Fold identical jobs by cache key (the key covers everything that
  // determines the values, so equal keys give equal tables).
  std::vector<std::string> keys(jobs.size());
  std::vector<std::size_t> canonical(jobs.size());
  std::map<std::string, std::size_t> first_of_key;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    keys[i] = TableCache::key_text(tech, jobs[i].layer, jobs[i].planes,
                                   jobs[i].grid, opt);
    canonical[i] = first_of_key.emplace(keys[i], i).first->second;
  }

  // Probe the journal, then the cache, for every canonical job; misses
  // become plans whose points concatenate into one flat range.
  std::vector<PendingBuild> pending;
  std::vector<std::size_t> offsets;  // pending[k].offset, for upper_bound
  std::size_t total_points = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (canonical[i] != i) continue;
    const bool journaled =
        options.journal && options.journal->contains(TableCache::key_id(keys[i]));
    if (options.cache) {
      if (std::optional<InductanceTables> hit = options.cache->load(keys[i])) {
        res.tables[i] = *std::move(hit);
        if (journaled) ++res.jobs_resumed;
        continue;
      }
    }
    if (journaled)
      // The journal only records ids whose store() succeeded, so this means
      // the cache was purged (or never configured) since the journal was
      // written — the resume contract degrades to an ordinary rebuild.
      diag::emit_warning(diag::Category::kCache, "batch",
                         "journal records " + TableCache::key_id(keys[i]) +
                             " complete but the cache has no entry for it; "
                             "re-characterising");
    GridSolvePlan plan(tech, jobs[i].layer, jobs[i].planes, jobs[i].grid,
                       opt);
    const std::size_t points = plan.points();
    offsets.push_back(total_points);
    pending.push_back({i, keys[i], std::move(plan), total_points,
                       std::make_unique<std::atomic<std::size_t>>(points)});
    total_points += points;
  }

  rt::Pool& pool = options.pool ? *options.pool : rt::Pool::global();
  // The width that actually runs: rt::parallel_for runs inline inside a
  // parallel region (or a SerialRegion) and for a single chunk.
  const int width = total_points <= 1 || rt::in_parallel_region()
                        ? 1
                        : static_cast<int>(pool.size());

  // Finalises one fully-solved job: assemble its tables into the result
  // slot, store the cache entry, and only then journal it complete.  Runs
  // on whichever worker solves the job's last point — exactly once, since
  // only one thread sees `remaining` hit zero — so a cancellation unwinding
  // the fan-out afterwards cannot lose the job.
  auto finalize = [&](PendingBuild& pb) {
    res.tables[pb.job] = pb.plan.finish();
    const bool stored =
        options.cache && options.cache->store(pb.key, res.tables[pb.job]);
    if (options.journal && (stored || !options.cache))
      options.journal->record(TableCache::key_id(pb.key));
  };

  // The one counter snapshot of the fan-out: every build's engine counters
  // are this delta, however many jobs it ran.
  const BuildStats before = engine_counters();
  const auto t0 = std::chrono::steady_clock::now();
  if (total_points != 0) {
    rt::ParallelOptions popt;
    popt.grain = 1;  // one 2-trace field solve per task: comfortably coarse
    popt.pool = &pool;
    rt::parallel_for(
        0, total_points,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t idx = lo; idx < hi; ++idx) {
            const std::size_t k = static_cast<std::size_t>(
                std::upper_bound(offsets.begin(), offsets.end(), idx) -
                offsets.begin() - 1);
            PendingBuild& pb = pending[k];
            pb.plan.solve_point(idx - pb.offset);
            if (pb.remaining->fetch_sub(1, std::memory_order_acq_rel) == 1)
              finalize(pb);
          }
        },
        popt);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.totals = engine_delta(before, engine_counters());
  res.totals.threads = width;
  res.totals.wall_seconds = wall;

  // Every built job's points were each solved exactly once.
  for (PendingBuild& pb : pending) {
    BuildStats& st = res.stats[pb.job];
    st.solves = st.grid_points = pb.plan.points();
    st.threads = width;
    st.wall_seconds = wall;
    res.totals.solves += st.solves;
    res.totals.grid_points += st.grid_points;
  }

  // Duplicates copy their canonical's tables; their stats stay zero-solve.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (canonical[i] != i) res.tables[i] = res.tables[canonical[i]];
  }
  return res;
}

std::vector<SegmentRlc> extract_segments_batch(
    const std::vector<geom::Block>& blocks,
    const InductanceLibrary& library, const ExtractOptions& options,
    rt::Pool* pool) {
  // Resolve every provider up front: a missing structure class throws the
  // same deterministic error regardless of pool schedule, before any
  // extraction work is spent.
  std::vector<const InductanceProvider*> providers(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    providers[i] =
        &library.provider(blocks[i].layer_index(), blocks[i].planes());

  std::vector<SegmentRlc> out(blocks.size());
  rt::ParallelOptions popt;
  popt.grain = 1;
  popt.pool = pool;
  rt::parallel_for(0, blocks.size(),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       out[i] = extract_segment_rlc(blocks[i], *providers[i],
                                                    options);
                   },
                   popt);
  return out;
}

}  // namespace rlcx::core
