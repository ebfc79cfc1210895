// Pre-computation of the inductance tables (paper Section III).
//
// "The 3D inductance extraction tool RI3 is invoked to solve a block of two
// traces with or without ground plane(s) in layer N+2/N-2 for different
// combinations of lengths, widths, and spacings. ... Note that only 2-trace
// subproblems need to be solved, because results to 1-trace subproblems are
// parts of results to 2-trace subproblems."  Our RI3 stand-in is the
// rlcx_solver loop/partial extractor.
//
// Every grid point is an independent 2-trace solve, so a build is a flat
// bag of work-stealing tasks on the rlcx::rt pool; GridSolvePlan exposes
// that decomposition so the batch extractor can fan the points of *many*
// builds across the same pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/inductance_model.h"
#include "geom/technology.h"
#include "res/budget.h"
#include "solver/options.h"

namespace rlcx::core {

struct TableGrid {
  std::vector<double> widths;    ///< trace widths [m]
  std::vector<double> spacings;  ///< edge-to-edge spacings [m]
  std::vector<double> lengths;   ///< segment lengths [m]
};

/// A sensible default grid for clock wiring: widths 1-20 um, spacings
/// 0.5-10 um, lengths 100-6000 um (geometric spacing, since L is closer to
/// log-linear in geometry).
TableGrid default_clock_grid();

/// Resident bytes of one characterisation over `grid`: the three value
/// arrays the plan accumulates, doubled for the transient copies finish()
/// makes while assembling the NdTables.  Feeds the memory budget's cost
/// model (docs/robustness.md "Resource governance"); the per-point solve
/// cost is priced separately by solver::estimate_*_solve_bytes.
std::size_t estimate_grid_bytes(const TableGrid& grid);

/// What one build actually did — the per-build counters that stay
/// meaningful when several characterisations run concurrently (the
/// process-global table_build_solve_count() only aggregates).
struct BuildStats {
  std::size_t solves = 0;       ///< 2-trace PEEC solves this build performed
  std::size_t grid_points = 0;  ///< points in the grid (== solves unless
                                ///< the result came from a cache)
  int threads = 1;              ///< parallel width the build ran with
  double wall_seconds = 0.0;    ///< wall-clock time of the solve phase (in a
                                ///< batch: the shared fan-out phase)
  // Kernel-memo counters of the matrix fills this build ran (deltas of
  // peec::fill_stats_total() around the solve phase, so builds running
  // concurrently with other extraction work see a shared aggregate).
  std::size_t pair_lookups = 0;  ///< filament pairs the fills needed
  std::size_t kernel_evals = 0;  ///< Hoer-Love pair evaluations performed
  std::size_t memo_hits = 0;     ///< pairs served from the geometry memo
  // Impedance-solver counters (solver::solve_stats_total(): the solve
  // count delta'd around the solve phase, same sharing caveat as the memo
  // counters; the filament high-water sampled after it, like
  // mem_peak_bytes).
  std::size_t dense_solves = 0;   ///< impedance solves (blocked dense LU)
  std::size_t max_filaments = 0;  ///< largest solve seen, in filaments
  // Batch kernel-engine counters (deltas of peec::batch_stats_total()
  // around the solve phase, same sharing caveat as the memo counters).
  std::size_t batch_runs = 0;            ///< BatchEvaluator::run() calls
  std::size_t batch_volume_terms = 0;    ///< Hoer-Love SoA entries evaluated
  std::size_t batch_filament_terms = 0;  ///< filament fast-path SoA entries
  std::uint64_t batch_eval_nanos = 0;    ///< wall time inside the SoA kernels
  // Resource-governance counters (res::Budget::global(), sampled/delta'd
  // around the solve phase; docs/robustness.md "Resource governance").
  std::uint64_t mem_limit_bytes = 0;   ///< budget in force (0 = unlimited)
  std::uint64_t mem_peak_bytes = 0;    ///< tracked+reserved high-water seen
  std::uint64_t mem_refusals = 0;      ///< reservations refused outright
  /// Fraction of pair values served without a kernel evaluation.
  double memo_hit_rate() const {
    return pair_lookups == 0
               ? 0.0
               : static_cast<double>(memo_hits) /
                     static_cast<double>(pair_lookups);
  }
  /// Kernel-evaluation throughput of the batch engine over this build
  /// (SoA entries per second of in-kernel wall time; 0 when no batch ran).
  double batch_terms_per_second() const {
    return batch_eval_nanos == 0
               ? 0.0
               : static_cast<double>(batch_volume_terms +
                                     batch_filament_terms) *
                     1e9 / static_cast<double>(batch_eval_nanos);
  }
};

/// One table characterisation decomposed into independent grid-point
/// solves.  solve_point() is thread-safe for distinct indices and writes
/// disjoint slots, so any schedule yields bit-identical tables; every
/// index in [0, points()) must be solved exactly once before finish().
/// build_tables() runs a plan on its own; the batch extractor concatenates
/// the points of many plans into one work-stealing range.
class GridSolvePlan {
 public:
  GridSolvePlan(const geom::Technology& tech, int layer,
                geom::PlaneConfig planes, TableGrid grid,
                solver::SolveOptions opt);

  std::size_t points() const { return n_points_; }
  void solve_point(std::size_t index);
  /// Points solved so far (the per-build solve counter).
  std::size_t solves() const {
    return solved_.load(std::memory_order_relaxed);
  }
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
  std::atomic<std::size_t> solved_{0};
};

/// Build the self (width x length) and mutual (w1 x w2 x spacing x length)
/// tables for the given structure class at opt.frequency (callers pass the
/// significant frequency 0.32/t_r).  `threads` > 1 fans the grid points
/// out as work-stealing tasks (long-trace solves cost far more than short
/// ones, so static sharding load-imbalances); 0 uses the process-global
/// pool (RLCX_THREADS / --threads / hardware), 1 is fully serial.  The
/// result is bit-identical for every thread count.  `stats`, when given,
/// receives the per-build counters.
InductanceTables build_tables(const geom::Technology& tech, int layer,
                              geom::PlaneConfig planes, const TableGrid& grid,
                              const solver::SolveOptions& opt,
                              int threads = 1, BuildStats* stats = nullptr);

/// Process-wide count of 2-trace PEEC grid solves performed by
/// build_tables() so far — a thin aggregate over every build's BuildStats,
/// kept for the table cache's "a warm hit performs *zero* solves" contract
/// (tests and the CLI counters observe it here).
std::size_t table_build_solve_count();
void reset_table_build_solve_count();

}  // namespace rlcx::core
