#include "rt/parallel.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>

#include "diag/warnings.h"
#include "run/control.h"

namespace rlcx::rt {

namespace {

/// Shared chunk-claiming loop: workers and the calling thread race on an
/// atomic cursor, so a long chunk on one thread never idles the others
/// (the load-balance failure of static sharding).  Exceptions keep the
/// lowest-index one.
struct ChunkRun {
  std::size_t begin, end, grain, chunks;
  const std::function<void(std::size_t, std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::mutex m;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  ChunkRun(std::size_t b, std::size_t e, std::size_t g, std::size_t c,
           const std::function<void(std::size_t, std::size_t)>& fn)
      : begin(b), end(e), grain(g), chunks(c), body(fn) {}

  void operator()() {
    while (true) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        // Cooperative cancellation/deadline point: between chunks, so a
        // triggered stop never interrupts a body mid-write — every chunk
        // either completes or never starts.  The thrown fault is captured
        // like any body exception (lowest chunk index wins) and re-thrown
        // with its type intact.
        run::checkpoint("rt");
        body(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
    }
  }
};

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelOptions& options) {
  if (end <= begin) return;
  Pool& pool = options.pool != nullptr ? *options.pool : Pool::global();
  const std::size_t grain = options.grain > 0 ? options.grain : 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  if (chunks <= 1 || pool.size() <= 1 || in_parallel_region()) {
    run::checkpoint("rt");
    body(begin, end);
    return;
  }
  ChunkRun run(begin, end, grain, chunks, body);
  {
    // Warn-once per parallel region: identical warnings raised by several
    // workers (the same degradation hit once per grid point) collapse to
    // one report instead of a thread-count-dependent flood.
    diag::ScopedWarningDedup dedup_region;
    TaskGroup group(pool);
    const std::size_t helpers = std::min<std::size_t>(
        static_cast<std::size_t>(pool.size()), chunks);
    for (std::size_t i = 0; i < helpers; ++i) group.run([&run] { run(); });
    {
      // The caller claims chunks too; mark it in-region so nested
      // constructs inside body() run inline here as on the workers.
      SerialRegion caller_in_region;
      run();
    }
    group.wait();
  }
  if (run.error) std::rethrow_exception(run.error);
}

}  // namespace rlcx::rt
