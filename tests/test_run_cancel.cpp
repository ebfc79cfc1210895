// Cancellation determinism through the rt pool: a cancelled parallel_for
// unwinds as a typed fault at chunk boundaries only, so every chunk's
// writes are all-or-nothing regardless of pool width, and warnings raised
// from worker threads inside one region are deduplicated.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "diag/error.h"
#include "diag/warnings.h"
#include "rt/parallel.h"
#include "rt/pool.h"
#include "run/control.h"

namespace rlcx::run {
namespace {

std::vector<int> pool_widths() {
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return {1, 2, 7, hw};
}

// Cancel after roughly half the chunks ran; assert the fault type and that
// every chunk either wrote all of its slots or none of them (the partial-
// write freedom ISSUE.md demands of cancellation).
TEST(CancelParallelFor, ChunksAreAllOrNothingAtEveryPoolWidth) {
  // Chunk count far above any plausible pool width: once half the chunks
  // have completed and requested cancellation, unclaimed chunks remain,
  // and each of those must observe the flag at its pre-body checkpoint.
  constexpr std::size_t kRange = 2048;
  constexpr std::size_t kGrain = 8;
  constexpr std::size_t kChunks = kRange / kGrain;
  for (int width : pool_widths()) {
    // A one-worker parallel_for runs the range as one inline chunk by
    // design: there is no chunk boundary to cancel at.
    if (width == 1) continue;
    rt::Pool pool(width);
    RunControl rc;
    ScopedRunControl scope(rc);
    std::vector<std::atomic<int>> written(kRange);
    for (auto& w : written) w.store(0, std::memory_order_relaxed);
    std::atomic<std::size_t> chunks_run{0};

    const auto body = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        written[i].fetch_add(1, std::memory_order_relaxed);
      if (chunks_run.fetch_add(1, std::memory_order_relaxed) + 1 ==
          kChunks / 2)
        rc.token.request();
    };
    bool cancelled = false;
    try {
      rt::ParallelOptions popt;
      popt.grain = kGrain;
      popt.pool = &pool;
      rt::parallel_for(0, kRange, body, popt);
    } catch (const diag::CancelledError& e) {
      cancelled = true;
      EXPECT_EQ(e.category(), diag::Category::kCancelled);
    }
    EXPECT_TRUE(cancelled) << "width " << width;

    // Chunk atomicity: within each grain-sized chunk, either every slot
    // was written exactly once or none was.
    for (std::size_t c = 0; c < kChunks; ++c) {
      const int first = written[c * kGrain].load(std::memory_order_relaxed);
      EXPECT_TRUE(first == 0 || first == 1);
      for (std::size_t i = 0; i < kGrain; ++i)
        EXPECT_EQ(written[c * kGrain + i].load(std::memory_order_relaxed),
                  first)
            << "width " << width << " chunk " << c << " slot " << i;
    }
    // Cancellation was prompt: not every chunk ran.
    EXPECT_LT(chunks_run.load(), kChunks) << "width " << width;
  }
}

TEST(CancelParallelFor, DeadlineUnwindsAsTypedFault) {
  for (int width : pool_widths()) {
    rt::Pool pool(width);
    RunControl rc;
    rc.deadline = Deadline::after(0.0);  // already expired
    ScopedRunControl scope(rc);
    rt::ParallelOptions popt;
    popt.grain = 1;
    popt.pool = &pool;
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(rt::parallel_for(0, 64,
                                  [&](std::size_t, std::size_t) {
                                    ran.fetch_add(1,
                                                  std::memory_order_relaxed);
                                  },
                                  popt),
                 diag::DeadlineExceeded)
        << "width " << width;
    // The pre-body checkpoint fires before any chunk runs.
    EXPECT_EQ(ran.load(), 0u) << "width " << width;
  }
}

TEST(CancelParallelFor, UncancelledRunIsUnaffectedByInstalledControl) {
  rt::Pool pool(4);
  RunControl rc;
  ScopedRunControl scope(rc);
  std::vector<int> out(100, 0);
  rt::ParallelOptions popt;
  popt.grain = 4;
  popt.pool = &pool;
  rt::parallel_for(0, out.size(),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       out[i] = static_cast<int>(i);
                   },
                   popt);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(CancelParallelFor, SerialInlinePathAlsoCheckpoints) {
  // One-chunk ranges run inline on the caller; cancellation must still be
  // observed there, not only on pool workers.
  RunControl rc;
  rc.token.request();
  ScopedRunControl scope(rc);
  bool ran = false;
  EXPECT_THROW(
      rt::parallel_for(0, 1, [&](std::size_t, std::size_t) { ran = true; }),
      diag::CancelledError);
  EXPECT_FALSE(ran);
}

// Satellite: warnings raised from rt worker threads inside one parallel
// region are deduplicated to a single emission.
// Two drivers on separate threads install independent controls; each
// thread's pool-fanned work must observe its *own* driver's control (the
// submit-time ambient snapshot rt::Pool adopts around task bodies), not
// whichever scope happens to be innermost process-wide.  This is the
// property the `rlcx serve` daemon's concurrent per-request deadlines
// rest on.
TEST(ScopedControl, ConcurrentScopesIsolatePerSubmitter) {
  rt::Pool pool(4);
  RunControl cancelled_rc;
  cancelled_rc.token.request();
  RunControl live_rc;

  std::atomic<int> cancelled_seen{0}, live_seen{0};
  std::thread cancelled_driver([&] {
    ScopedRunControl control(cancelled_rc);
    rt::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i)
      group.run([&] { cancelled_seen += stop_requested() ? 1 : 0; });
    group.wait();
  });
  std::thread live_driver([&] {
    ScopedRunControl control(live_rc);
    rt::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i)
      group.run([&] { live_seen += stop_requested() ? 1 : 0; });
    group.wait();
  });
  cancelled_driver.join();
  live_driver.join();

  EXPECT_EQ(cancelled_seen.load(), 8);
  EXPECT_EQ(live_seen.load(), 0);
}

// A nested cli::run-style scope chains by copying the ambient control:
// current_control() must surface the innermost scope of the calling
// thread so the copy shares its cancellation flag and deadline.
TEST(ScopedControl, CurrentControlSnapshotsTheInnermostScope) {
  RunControl none;
  EXPECT_FALSE(current_control(&none));

  RunControl outer;
  outer.deadline = Deadline::after(1000.0);
  ScopedRunControl scope(outer);
  RunControl seen;
  ASSERT_TRUE(current_control(&seen));
  EXPECT_EQ(seen.deadline.when(), outer.deadline.when());
  seen.token.request();  // the copy shares the ambient flag...
  EXPECT_TRUE(outer.token.requested());
  EXPECT_TRUE(stop_requested());  // ...so the ambient scope observes it
}

TEST(WarnDedup, IdenticalWarningsInsideOneRegionEmitOnce) {
  rt::Pool pool(4);
  std::vector<diag::Warning> seen;
  std::mutex seen_m;
  diag::ScopedWarningHandler handler([&](const diag::Warning& w) {
    std::lock_guard<std::mutex> lock(seen_m);
    seen.push_back(w);
  });

  rt::ParallelOptions popt;
  popt.grain = 1;
  popt.pool = &pool;
  rt::parallel_for(0, 64,
                   [&](std::size_t, std::size_t) {
                     diag::emit_warning(diag::Category::kNumeric, "sor",
                                        "slow convergence");
                   },
                   popt);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].message, "slow convergence");

  // Distinct warnings all get through.
  seen.clear();
  rt::parallel_for(0, 8,
                   [&](std::size_t lo, std::size_t) {
                     diag::emit_warning(diag::Category::kNumeric, "sor",
                                        "chunk " + std::to_string(lo));
                   },
                   popt);
  EXPECT_EQ(seen.size(), 8u);

  // And the dedup window closes with the region: the same warning emitted
  // after the loop is not suppressed.
  seen.clear();
  diag::emit_warning(diag::Category::kNumeric, "sor", "slow convergence");
  EXPECT_EQ(seen.size(), 1u);
}

}  // namespace
}  // namespace rlcx::run
