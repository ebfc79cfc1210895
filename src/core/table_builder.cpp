#include "core/table_builder.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/batch_extractor.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "rt/pool.h"
#include "solver/block_solver.h"

namespace rlcx::core {

using units::um;

TableGrid default_clock_grid(std::size_t points) {
  TableGrid g;
  g.widths = geomspace(um(1), um(20), points);
  g.spacings = geomspace(um(0.5), um(10), points);
  g.lengths = geomspace(um(100), um(6000), points);
  return g;
}

std::size_t estimate_grid_bytes(const TableGrid& grid) {
  const std::size_t nw = grid.widths.size();
  const std::size_t ns = grid.spacings.size();
  const std::size_t nl = grid.lengths.size();
  const std::size_t values = nw * nw * ns * nl + 2 * nw * nl;
  return std::max<std::size_t>(2 * values * sizeof(double), 1024);
}

BuildStats engine_counters() {
  BuildStats s;
  const peec::FillStats fills = peec::fill_stats_total();
  s.pair_lookups = fills.pair_lookups;
  s.kernel_evals = fills.kernel_evals;
  s.memo_hits = fills.memo_hits;
  const solver::SolveStats solves = solver::solve_stats_total();
  s.dense_solves = solves.dense_solves;
  s.max_filaments = solves.max_filaments;
  const peec::BatchStats batches = peec::batch_stats_total();
  s.batch_runs = batches.batch_runs;
  s.batch_volume_terms = batches.volume_terms;
  s.batch_volume_corners = batches.volume_corners;
  s.batch_filament_terms = batches.filament_terms;
  s.batch_eval_nanos = batches.eval_nanos;
  return s;
}

namespace {

InductanceTables build_one(const geom::Technology& tech, int layer,
                           geom::PlaneConfig planes, const TableGrid& grid,
                           const solver::SolveOptions& opt,
                           const BatchOptions& options, BuildStats* stats) {
  BatchResult res =
      characterize_batch(tech, {BatchJob{layer, planes, grid}}, opt, options);
  if (stats != nullptr) *stats = res.totals;
  return std::move(res.tables.front());
}

}  // namespace

InductanceTables build_tables(const geom::Technology& tech, int layer,
                              geom::PlaneConfig planes, const TableGrid& grid,
                              const solver::SolveOptions& opt, int threads,
                              BuildStats* stats) {
  if (threads < 0) throw std::invalid_argument("build_tables: threads");
  BatchOptions options;
  // Fully serial — including inner layers (matrix fills, RHS solves),
  // which would otherwise recruit the global pool.
  std::optional<rt::SerialRegion> serial;
  std::optional<rt::Pool> local;
  if (threads == 1 || rt::in_parallel_region())
    serial.emplace();
  else if (threads > 1)
    options.pool = &local.emplace(threads);
  return build_one(tech, layer, planes, grid, opt, options, stats);
}

InductanceTables build_tables_cached(const geom::Technology& tech, int layer,
                                     geom::PlaneConfig planes,
                                     const TableGrid& grid,
                                     const solver::SolveOptions& opt,
                                     TableCache& cache, BuildStats* stats) {
  BatchOptions options;
  options.cache = &cache;
  return build_one(tech, layer, planes, grid, opt, options, stats);
}

}  // namespace rlcx::core
