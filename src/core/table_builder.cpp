#include "core/table_builder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "rt/parallel.h"
#include "run/control.h"
#include "solver/block_solver.h"

namespace rlcx::core {

using units::um;

TableGrid default_clock_grid() {
  TableGrid g;
  g.widths = geomspace(um(1), um(20), 5);
  g.spacings = geomspace(um(0.5), um(10), 5);
  g.lengths = geomspace(um(100), um(6000), 5);
  return g;
}

namespace {

std::atomic<std::size_t> g_solve_count{0};

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

}  // namespace

std::size_t estimate_grid_bytes(const TableGrid& grid) {
  const std::size_t nw = grid.widths.size();
  const std::size_t ns = grid.spacings.size();
  const std::size_t nl = grid.lengths.size();
  const std::size_t values = nw * nw * ns * nl + 2 * nw * nl;
  return std::max<std::size_t>(2 * values * sizeof(double), 1024);
}

std::size_t table_build_solve_count() {
  return g_solve_count.load(std::memory_order_relaxed);
}

void reset_table_build_solve_count() {
  g_solve_count.store(0, std::memory_order_relaxed);
}

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
  // checkpoints cover the pooled path; this one covers direct callers
  // (build_tables' fully-serial loop, external plan drivers).
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
  solved_.fetch_add(1, std::memory_order_relaxed);
  g_solve_count.fetch_add(1, std::memory_order_relaxed);
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

InductanceTables build_tables(const geom::Technology& tech, int layer,
                              geom::PlaneConfig planes, const TableGrid& grid,
                              const solver::SolveOptions& opt, int threads,
                              BuildStats* stats) {
  if (threads < 0) throw std::invalid_argument("build_tables: threads");

  GridSolvePlan plan(tech, layer, planes, grid, opt);
  const peec::FillStats fills0 = peec::fill_stats_total();
  const peec::BatchStats batches0 = peec::batch_stats_total();
  const solver::SolveStats solves0 = solver::solve_stats_total();
  const res::Stats res0 = res::Budget::global().stats();
  const auto t0 = std::chrono::steady_clock::now();

  int threads_used = 1;
  if (threads == 1 || rt::in_parallel_region()) {
    // Fully serial — including inner layers (matrix fills, RHS solves),
    // which would otherwise recruit the global pool.
    rt::SerialRegion serial;
    for (std::size_t p = 0; p < plan.points(); ++p) plan.solve_point(p);
  } else {
    // threads == 0: the process-global pool; else a pool of exactly the
    // requested width (ephemeral, like the thread fan-out it replaces).
    std::optional<rt::Pool> local;
    rt::Pool* pool = nullptr;
    if (threads == 0) {
      pool = &rt::Pool::global();
    } else {
      local.emplace(threads);
      pool = &*local;
    }
    threads_used = pool->size();
    rt::ParallelOptions popt;
    popt.grain = 1;  // one 2-trace field solve per task: comfortably coarse
    popt.pool = pool;
    rt::parallel_for(0, plan.points(),
                     [&plan](std::size_t lo, std::size_t hi) {
                       for (std::size_t p = lo; p < hi; ++p)
                         plan.solve_point(p);
                     },
                     popt);
  }

  if (stats != nullptr) {
    stats->solves = plan.solves();
    stats->grid_points = plan.points();
    stats->threads = threads_used;
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const peec::FillStats fills1 = peec::fill_stats_total();
    stats->pair_lookups = fills1.pair_lookups - fills0.pair_lookups;
    stats->kernel_evals = fills1.kernel_evals - fills0.kernel_evals;
    stats->memo_hits = fills1.memo_hits - fills0.memo_hits;
    const peec::BatchStats batches1 = peec::batch_stats_total();
    stats->batch_runs = batches1.batch_runs - batches0.batch_runs;
    stats->batch_volume_terms =
        batches1.volume_terms - batches0.volume_terms;
    stats->batch_filament_terms =
        batches1.filament_terms - batches0.filament_terms;
    stats->batch_eval_nanos = batches1.eval_nanos - batches0.eval_nanos;
    const solver::SolveStats solves1 = solver::solve_stats_total();
    stats->dense_solves = solves1.dense_solves - solves0.dense_solves;
    stats->max_filaments = solves1.max_filaments;
    const res::Stats res1 = res::Budget::global().stats();
    stats->mem_limit_bytes = res1.limit_bytes;
    stats->mem_peak_bytes = res1.peak_bytes;
    stats->mem_refusals = res1.refusals - res0.refusals;
  }
  return plan.finish();
}

}  // namespace rlcx::core
