// Batched characterisation and extraction (the "pre-computation campaign"
// view of paper Section III).
//
// characterize_batch() is the one code path that turns grid points into
// solve tasks: a single build_tables()/build_tables_cached() is a one-job
// call of it.  A real flow characterises many structure classes — several
// routing layers, with and without plane shielding — before extracting a
// tree.  Running those builds one after another leaves the pool idle at
// every build's tail; characterize_batch() instead concatenates the grid
// points of every outstanding build into ONE flat work-stealing range, so
// the pool drains a single bag of 2-trace solves.  The cache is consulted
// first (warm classes cost zero solves), duplicate jobs are folded by cache
// key before any work is scheduled, and the process engine counters are
// snapshotted once around the fan-out (BatchResult::totals).
//
// Interruptibility (docs/robustness.md): each job finalises — tables
// assembled, cache entry stored, journal record appended — the moment its
// *last* grid point solves, on whichever pool thread solved it, not at the
// end of the whole campaign.  A run cancelled via run::checkpoint (SIGINT,
// deadline) therefore keeps every completed job durably, and a relaunch
// with the same journal skips exactly the recorded keys: they are served
// from the cache with zero re-solves, bit-identical to an uninterrupted
// run.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rlc_extractor.h"
#include "core/table_builder.h"
#include "core/table_cache.h"

namespace rlcx::rt {
class Pool;
}
namespace rlcx::run {
class BatchJournal;
}

namespace rlcx::core {

/// One characterisation job: a structure class plus its grid.  The solve
/// options (frequency, mesh, ...) are shared across the batch.
struct BatchJob {
  int layer = 6;
  geom::PlaneConfig planes = geom::PlaneConfig::kNone;
  TableGrid grid;
};

struct BatchOptions {
  TableCache* cache = nullptr;  ///< probe/store entries when set
  rt::Pool* pool = nullptr;     ///< nullptr = the process-global pool
  /// Completion journal for checkpoint/resume (docs/robustness.md).  When
  /// set, every job whose tables are durably in the cache has its key id
  /// (TableCache::key_id) recorded the moment it completes, and jobs whose
  /// ids the journal already holds are served from the cache with zero
  /// solves on a relaunch.  A journaled id whose cache entry has gone
  /// missing degrades to a warning plus an ordinary rebuild.
  run::BatchJournal* journal = nullptr;
};

struct BatchResult {
  /// tables[i] answers jobs[i]; duplicates and cache hits are copies.
  std::vector<InductanceTables> tables;
  /// stats[i] for jobs[i] (solves, grid_points, threads, wall_seconds
  /// only): zero solves for a cache hit or a job folded into an earlier
  /// identical one; built jobs share the fan-out phase's wall_seconds (the
  /// phase is common, per-job attribution would lie).
  std::vector<BuildStats> stats;
  /// The whole batch: summed solves and grid points, the width and wall
  /// time of the fan-out, and the engine counters delta'd once around it
  /// (engine_counters(); a shared aggregate when other extraction work
  /// runs concurrently).
  BuildStats totals;
  /// Canonical jobs skipped because the journal recorded them complete
  /// and the cache served their tables (a --resume relaunch's "no work
  /// re-done" evidence; cache hits without a journal entry don't count).
  std::size_t jobs_resumed = 0;
};

/// Characterises every job, deduplicated by cache key and fanned out as
/// one flat range of grid-point solves on options.pool (inline when the
/// caller is in a parallel region or an rt::SerialRegion).  Bit-identical
/// for any pool size.
BatchResult characterize_batch(const geom::Technology& tech,
                               const std::vector<BatchJob>& jobs,
                               const solver::SolveOptions& opt,
                               const BatchOptions& options = {});

/// Extracts every block's segment RLC concurrently (one task per block;
/// result[i] corresponds to blocks[i], bit-identical to the serial call).
/// The library must hold a provider for every block's structure class —
/// checked up front so a missing provider fails before any work runs.
std::vector<SegmentRlc> extract_segments_batch(
    const std::vector<geom::Block>& blocks, const InductanceLibrary& library,
    const ExtractOptions& options = {}, rt::Pool* pool = nullptr);

}  // namespace rlcx::core
