// The rlcx::rt runtime: pool sizing, work distribution, determinism of the
// ordered reduction, and exception fidelity across the pool boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "diag/error.h"
#include "diag/warnings.h"
#include "rt/parallel.h"
#include "rt/pool.h"

namespace rlcx::rt {
namespace {

TEST(Pool, ExplicitSizeIsHonored) {
  Pool p(3);
  EXPECT_EQ(p.size(), 3);
}

TEST(Pool, NegativeSizeIsAUsageFault) {
  EXPECT_THROW(Pool(-1), diag::UsageError);
  try {
    Pool p(-7);
    FAIL() << "Pool(-7) did not throw";
  } catch (const diag::Fault& f) {
    EXPECT_EQ(f.category(), diag::Category::kUsage);
  }
}

TEST(Pool, ZeroUsesDefaultThreads) {
  Pool p(0);
  EXPECT_GE(p.size(), 1);
}

TEST(Pool, GlobalOverrideResizes) {
  Pool::set_global_threads(2);
  EXPECT_EQ(Pool::global().size(), 2);
  Pool::set_global_threads(3);
  EXPECT_EQ(Pool::global().size(), 3);
  EXPECT_THROW(Pool::set_global_threads(-1), diag::UsageError);
  Pool::set_global_threads(0);  // back to RLCX_THREADS/hardware
  EXPECT_EQ(Pool::global().size(), Pool::default_threads());
}

TEST(Pool, EnvVariableSizesDefault) {
  ::setenv("RLCX_THREADS", "5", 1);
  EXPECT_EQ(Pool::default_threads(), 5);
  ::unsetenv("RLCX_THREADS");
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(Pool::default_threads(),
            hw > 0 ? static_cast<int>(hw) : 1);
}

TEST(Pool, MalformedEnvWarnsAndFallsBack) {
  std::vector<diag::Warning> warnings;
  {
    const diag::ScopedWarningHandler handler(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    ::setenv("RLCX_THREADS", "lots", 1);
    const int n = Pool::default_threads();
    ::unsetenv("RLCX_THREADS");
    EXPECT_GE(n, 1);
  }
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].category, diag::Category::kUsage);
  EXPECT_EQ(warnings[0].stage, "rt");
  EXPECT_NE(warnings[0].message.find("lots"), std::string::npos);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  Pool pool(4);
  const std::size_t n = 103;
  std::vector<int> hits(n, 0);
  ParallelOptions opt;
  opt.grain = 1;
  opt.pool = &pool;
  parallel_for(0, n,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++hits[i];
               },
               opt);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, EmptyAndSubGrainRanges) {
  Pool pool(2);
  std::atomic<int> calls{0};
  ParallelOptions opt;
  opt.grain = 64;
  opt.pool = &pool;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; }, opt);
  EXPECT_EQ(calls.load(), 0);
  parallel_for(0, 7, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 7u);
  }, opt);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, BodyRunsInsideParallelRegion) {
  Pool pool(2);
  std::vector<int> in_region(8, 0);
  ParallelOptions opt;
  opt.grain = 1;
  opt.pool = &pool;
  parallel_for(0, in_region.size(),
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i)
                   in_region[i] = in_parallel_region() ? 1 : 0;
               },
               opt);
  for (std::size_t i = 0; i < in_region.size(); ++i)
    EXPECT_EQ(in_region[i], 1) << i;
}

TEST(ParallelFor, SerialRegionForcesInlineExecution) {
  Pool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  SerialRegion serial;
  ParallelOptions opt;
  opt.grain = 1;
  opt.pool = &pool;
  parallel_for(0, 16,
               [&](std::size_t, std::size_t) {
                 EXPECT_EQ(std::this_thread::get_id(), caller);
               },
               opt);
}

TEST(ParallelFor, LowestChunkExceptionWins) {
  Pool pool(4);
  ParallelOptions opt;
  opt.grain = 1;
  opt.pool = &pool;
  // Several chunks throw; the deterministic winner is the one a serial run
  // would hit first (chunk 3), regardless of schedule.
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      parallel_for(0, 64,
                   [&](std::size_t lo, std::size_t) {
                     if (lo >= 3 && lo % 2 == 1)
                       throw diag::NumericError(
                           "test", "chunk " + std::to_string(lo));
                   },
                   opt);
      FAIL() << "no exception propagated";
    } catch (const diag::NumericError& e) {
      EXPECT_EQ(e.message(), "chunk 3");
    }
  }
}

TEST(TaskGroup, RunsEverythingBeforeWaitReturns) {
  Pool pool(3);
  std::atomic<int> done{0};
  TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) group.run([&done] { ++done; });
  group.wait();
  EXPECT_EQ(done.load(), 50);
}

TEST(TaskGroup, FaultTypeSurvivesThePoolBoundary) {
  Pool pool(2);
  TaskGroup group(pool);
  group.run([] {
    throw diag::CacheError("table-cache", "torn entry deadbeef");
  });
  try {
    group.wait();
    FAIL() << "wait() did not rethrow";
  } catch (const diag::Fault& f) {
    // The concrete diag type — category, stage and message — crossed the
    // worker/waiter boundary intact.
    EXPECT_EQ(f.category(), diag::Category::kCache);
    EXPECT_EQ(f.stage(), "table-cache");
    EXPECT_NE(f.message().find("deadbeef"), std::string::npos);
  }
}

TEST(TaskGroup, NestedRunExecutesInline) {
  Pool pool(2);
  std::atomic<int> inner{0};
  TaskGroup group(pool);
  group.run([&] {
    TaskGroup nested(pool);
    for (int i = 0; i < 4; ++i) nested.run([&inner] { ++inner; });
    nested.wait();
    EXPECT_EQ(inner.load(), 4);  // ran inline, inside this task
  });
  group.wait();
  EXPECT_EQ(inner.load(), 4);
}

TEST(TaskGroup, ShortLivedGroupsSurviveImmediateDestruction) {
  // Each group dies the moment wait() returns, while the worker that ran
  // its last task may still be inside task_done.  Completion must be
  // published under the group's lock so that the destructor cannot free
  // the group under that worker (ASan and TSan CI jobs run this).
  Pool pool(4);
  std::atomic<long> sum{0};
  long expect = 0;
  for (int g = 0; g < 10000; ++g) {
    const int tasks = 1 + g % 3;
    TaskGroup group(pool);
    for (int t = 0; t < tasks; ++t)
      group.run([&sum, g] { sum.fetch_add(g, std::memory_order_relaxed); });
    group.wait();
    expect += static_cast<long>(tasks) * g;
  }
  EXPECT_EQ(sum.load(), expect);
}

}  // namespace
}  // namespace rlcx::rt
