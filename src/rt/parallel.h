// Blocked parallel loops on rlcx::rt::Pool.
//
// Determinism contract: parallel_for guarantees nothing about execution
// order, so bodies must write disjoint output slots (the natural shape of
// grid solves and matrix fills) — then the result is bit-identical to
// serial for any worker count.
//
// Grain guidance: the scheduler costs ~1 lock/notify pair per chunk, so
// size chunks to >= ~10 us of work.  A 2-trace field solve or a PEEC
// matrix row is comfortably coarse at grain 1; light bodies (per-element
// arithmetic) want grains in the thousands.
//
// When a body throws for several chunks, the exception of the *lowest*
// chunk index is re-thrown (original type preserved) — the same failure a
// serial loop would hit first, so error reporting is deterministic too.
#pragma once

#include <cstddef>
#include <functional>

#include "rt/pool.h"

namespace rlcx::rt {

struct ParallelOptions {
  std::size_t grain = 1;  ///< indices per scheduled chunk (>= 1)
  Pool* pool = nullptr;   ///< nullptr = Pool::global()
};

/// Runs body(lo, hi) over disjoint sub-ranges covering [begin, end).
/// Runs inline when the range fits one chunk, the pool has one worker, or
/// the caller is already inside a parallel region.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelOptions& options = {});

}  // namespace rlcx::rt
