// Pre-computation of the inductance tables (paper Section III).
//
// "The 3D inductance extraction tool RI3 is invoked to solve a block of two
// traces with or without ground plane(s) in layer N+2/N-2 for different
// combinations of lengths, widths, and spacings. ... Note that only 2-trace
// subproblems need to be solved, because results to 1-trace subproblems are
// parts of results to 2-trace subproblems."  Our RI3 stand-in is the
// rlcx_solver loop/partial extractor.
//
// Every grid point is an independent 2-trace solve.  core::characterize_batch
// (batch_extractor.h) is the one code path that turns grid points into
// tasks; build_tables() and build_tables_cached() below are one-job calls of
// it, so a single build and a many-layer campaign share the fan-out, the
// cache probe and store, and the counter snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/inductance_model.h"
#include "geom/technology.h"
#include "solver/options.h"

namespace rlcx::core {

class TableCache;

struct TableGrid {
  std::vector<double> widths;    ///< trace widths [m]
  std::vector<double> spacings;  ///< edge-to-edge spacings [m]
  std::vector<double> lengths;   ///< segment lengths [m]
};

/// A sensible default grid for clock wiring: widths 1-20 um, spacings
/// 0.5-10 um, lengths 100-6000 um, `points` samples per axis (geometric
/// spacing, since L is closer to log-linear in geometry).  The CLI's
/// --points grid is this grid.
TableGrid default_clock_grid(std::size_t points = 5);

/// Resident bytes of one characterisation over `grid`: the three value
/// arrays a build accumulates, doubled for the transient copies made while
/// assembling the NdTables.  Feeds the memory budget's cost model
/// (docs/robustness.md "Resource governance"); the per-point solve cost is
/// priced separately by solver::estimate_*_solve_bytes.
std::size_t estimate_grid_bytes(const TableGrid& grid);

/// What one build (or one batch fan-out) did.  solves/grid_points/threads/
/// wall_seconds are exact per build; the engine counters below are deltas
/// of process-global totals taken once around the fan-out, so builds that
/// overlap other extraction work see a shared aggregate.
struct BuildStats {
  std::size_t solves = 0;       ///< 2-trace PEEC solves this build performed
  std::size_t grid_points = 0;  ///< points in the grids built (== solves;
                                ///< 0 for a cache hit or a folded job)
  int threads = 1;              ///< pool width the fan-out ran with (1 when
                                ///< it ran inline or nothing ran)
  double wall_seconds = 0.0;    ///< wall-clock time of the fan-out phase
  // Kernel-memo counters of the matrix fills (peec::fill_stats_total()).
  std::size_t pair_lookups = 0;  ///< filament pairs the fills needed
  std::size_t kernel_evals = 0;  ///< Hoer-Love pair evaluations performed
  std::size_t memo_hits = 0;     ///< pairs served from the geometry memo
  // Impedance-solver counters (solver::solve_stats_total(); the filament
  // high-water is sampled, not delta'd).
  std::size_t dense_solves = 0;   ///< impedance solves (blocked dense LU)
  std::size_t max_filaments = 0;  ///< largest solve seen, in filaments
  // Batch kernel-engine counters (peec::batch_stats_total()).
  std::size_t batch_runs = 0;            ///< BatchEvaluator::run() calls
  std::size_t batch_volume_terms = 0;    ///< Hoer-Love brackets summed
  std::size_t batch_volume_corners = 0;  ///< f(x,y,z) evaluations for them
  std::size_t batch_filament_terms = 0;  ///< filament fast-path SoA entries
  std::uint64_t batch_eval_nanos = 0;    ///< wall time inside the SoA kernels
  /// Fraction of pair values served without a kernel evaluation.
  double memo_hit_rate() const {
    return pair_lookups == 0
               ? 0.0
               : static_cast<double>(memo_hits) /
                     static_cast<double>(pair_lookups);
  }
};

/// The process-global engine counters as they stand now: kernel memo,
/// batch engine and impedance solver (solves, grid_points,
/// threads and wall_seconds stay at their defaults).  characterize_batch
/// deltas two samples around its fan-out; the daemon's `stats` request
/// reports one sample as its lifetime totals.
BuildStats engine_counters();

/// Build the self (width x length) and mutual (w1 x w2 x spacing x length)
/// tables for the given structure class at opt.frequency (callers pass the
/// significant frequency 0.32/t_r) — characterize_batch with one job.
/// `threads` 1 runs fully serial (so do callers already inside a parallel
/// region), 0 uses the process-global pool (RLCX_THREADS / --threads /
/// hardware), N > 1 a pool of exactly N workers for this build.  The result
/// is bit-identical for every thread count.  `stats`, when given, receives
/// the batch totals.
InductanceTables build_tables(const geom::Technology& tech, int layer,
                              geom::PlaneConfig planes, const TableGrid& grid,
                              const solver::SolveOptions& opt,
                              int threads = 1, BuildStats* stats = nullptr);

/// Cache-first table build: characterize_batch with one job and `cache`,
/// on the process-global pool.  A key hit returns the cached tables and
/// performs zero PEEC solves (`stats->solves == 0`); a miss builds the
/// tables and stores them before returning.
InductanceTables build_tables_cached(const geom::Technology& tech, int layer,
                                     geom::PlaneConfig planes,
                                     const TableGrid& grid,
                                     const solver::SolveOptions& opt,
                                     TableCache& cache,
                                     BuildStats* stats = nullptr);

}  // namespace rlcx::core
