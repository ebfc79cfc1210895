// Tests for rlcx::run — cooperative cancellation/deadlines, the ambient
// run-control scope, the deterministic fault injector, the batch journal
// and the SIGINT bridge.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "diag/error.h"
#include "diag/warnings.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "run/journal.h"
#include "run/signal.h"
#include "support/scratch_dir.h"

namespace rlcx::run {
namespace {

namespace fs = std::filesystem;

using testing::ScratchDir;

// Collects warning messages emitted while alive (instead of stderr).
struct WarningCapture {
  std::vector<std::string> captured;
  diag::ScopedWarningHandler handler;
  WarningCapture()
      : handler([this](const diag::Warning& w) {
          captured.push_back(w.message);
        }) {}
  const std::vector<std::string>& messages() const { return captured; }
};

// ---------------------------------------------------------------- control

TEST(CancelToken, CopiesShareOneFlag) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(a.requested());
  b.request();
  EXPECT_TRUE(a.requested());
  EXPECT_TRUE(b.requested());
  b.request();  // idempotent
  EXPECT_TRUE(a.requested());
}

TEST(Deadline, DefaultIsInactiveAndNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.active());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 1e30);
}

TEST(Deadline, AfterZeroIsAlreadyExpired) {
  const Deadline d = Deadline::after(0.0);
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_seconds(), 0.0);
}

TEST(Deadline, FutureDeadlineReportsRemaining) {
  const Deadline d = Deadline::after(3600.0);
  EXPECT_TRUE(d.active());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3500.0);
}

TEST(Checkpoint, NoOpWithoutInstalledControl) {
  EXPECT_FALSE(control_active());
  EXPECT_FALSE(stop_requested());
  EXPECT_NO_THROW(checkpoint("test"));
}

TEST(Checkpoint, ThrowsTypedCancelledErrorAfterRequest) {
  RunControl rc;
  ScopedRunControl scope(rc);
  EXPECT_TRUE(control_active());
  EXPECT_NO_THROW(checkpoint("test"));
  rc.token.request();
  EXPECT_TRUE(stop_requested());
  try {
    checkpoint("stage-x");
    FAIL() << "checkpoint did not throw";
  } catch (const diag::CancelledError& e) {
    EXPECT_EQ(e.category(), diag::Category::kCancelled);
    EXPECT_EQ(e.stage(), "stage-x");
  }
}

TEST(Checkpoint, ThrowsDeadlineExceededWhenPastDeadline) {
  RunControl rc;
  rc.deadline = Deadline::after(0.0);
  ScopedRunControl scope(rc);
  EXPECT_TRUE(stop_requested());
  EXPECT_THROW(checkpoint("test"), diag::DeadlineExceeded);
}

TEST(Checkpoint, CancellationObservableFromOtherThreads) {
  RunControl rc;
  ScopedRunControl scope(rc);
  rc.token.request();
  bool threw = false;
  std::thread t([&] {
    try {
      checkpoint("worker");
    } catch (const diag::CancelledError&) {
      threw = true;
    }
  });
  t.join();
  EXPECT_TRUE(threw);
}

TEST(ScopedRunControl, ScopesNestInnermostWins) {
  RunControl outer;
  outer.token.request();  // outer is cancelled...
  ScopedRunControl outer_scope(outer);
  {
    RunControl inner;  // ...but the innermost (clean) control wins
    ScopedRunControl inner_scope(inner);
    EXPECT_NO_THROW(checkpoint("inner"));
  }
  // Outer restored on inner destruction.
  EXPECT_THROW(checkpoint("outer"), diag::CancelledError);
}

// --------------------------------------------------------- fault injector

struct InjectorReset {
  ~InjectorReset() { FaultInjector::global().clear(); }
};

TEST(FaultInjector, DisabledByDefaultAndCostsNothing) {
  InjectorReset reset;
  FaultInjector::global().clear();
  EXPECT_FALSE(fault_injection_enabled());
  EXPECT_FALSE(fault_point("cache_write"));
  EXPECT_EQ(FaultInjector::global().calls("cache_write"), 0u);
}

TEST(FaultInjector, ExactEntryFiresOnlyAtTheNthCall) {
  InjectorReset reset;
  FaultInjector::global().set_schedule("cache_write:3");
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_FALSE(fault_point("cache_write"));
  EXPECT_FALSE(fault_point("cache_write"));
  EXPECT_TRUE(fault_point("cache_write"));  // the 3rd call
  EXPECT_FALSE(fault_point("cache_write"));
  EXPECT_EQ(FaultInjector::global().calls("cache_write"), 4u);
  EXPECT_EQ(FaultInjector::global().triggered("cache_write"), 1u);
}

TEST(FaultInjector, PersistentEntryFiresFromTheNthCallOn) {
  InjectorReset reset;
  FaultInjector::global().set_schedule("cache_write:2+");
  EXPECT_FALSE(fault_point("cache_write"));
  EXPECT_TRUE(fault_point("cache_write"));
  EXPECT_TRUE(fault_point("cache_write"));
  EXPECT_EQ(FaultInjector::global().triggered("cache_write"), 2u);
}

TEST(FaultInjector, SitesAreIndependentAndUnscheduledSitesDoNotCount) {
  InjectorReset reset;
  FaultInjector::global().set_schedule("cache_write:1,journal_fsync:2");
  EXPECT_FALSE(fault_point("journal_fsync"));
  EXPECT_TRUE(fault_point("cache_write"));
  EXPECT_TRUE(fault_point("journal_fsync"));
  EXPECT_FALSE(fault_point("cache_read"));  // not scheduled
  EXPECT_EQ(FaultInjector::global().calls("cache_read"), 0u);
}

TEST(FaultInjector, BadGrammarIsAUsageError) {
  InjectorReset reset;
  FaultInjector& fi = FaultInjector::global();
  fi.clear();
  EXPECT_THROW(fi.set_schedule("cache_write"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:0"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:abc"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule(":3"), diag::UsageError);
  // set_schedule is parse-then-commit: a rejected schedule arms nothing.
  EXPECT_FALSE(fault_injection_enabled());
  // Whitespace and stray commas are tolerated.
  EXPECT_NO_THROW(fi.set_schedule(" cache_write:1 , ,journal_fsync:2 "));
  EXPECT_TRUE(fault_injection_enabled());
}

TEST(FaultInjector, CancelSiteRequestsCancellationAtTheNthCheckpoint) {
  InjectorReset reset;
  RunControl rc;
  ScopedRunControl scope(rc);
  FaultInjector::global().set_schedule("cancel:3");
  EXPECT_NO_THROW(checkpoint("test"));
  EXPECT_NO_THROW(checkpoint("test"));
  EXPECT_THROW(checkpoint("test"), diag::CancelledError);
  EXPECT_TRUE(rc.token.requested());
}

// ---------------------------------------------------------------- journal

TEST(BatchJournal, FreshFileRoundTrips) {
  const ScratchDir dir("rlcx_journal");
  const std::string path = dir.path + "/batch.journal";
  BatchJournal j(path);
  EXPECT_EQ(j.size(), 0u);
  j.record("00000000000000aa");
  j.record("00000000000000bb");
  j.record("00000000000000aa");  // idempotent
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.contains("00000000000000aa"));
  EXPECT_FALSE(j.contains("00000000000000cc"));

  // A second instance (a resumed process) sees exactly the same ids.
  BatchJournal reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains("00000000000000bb"));
  EXPECT_EQ(BatchJournal::load(path), j.completed());
}

TEST(BatchJournal, LoadOfMissingFileIsEmpty) {
  EXPECT_TRUE(BatchJournal::load("/nonexistent/rlcx.journal").empty());
}

TEST(BatchJournal, TornTailIsDroppedNotTrusted) {
  const ScratchDir dir("rlcx_journal_torn");
  const std::string path = dir.path + "/batch.journal";
  {
    BatchJournal j(path);
    j.record("00000000000000aa");
  }
  // Simulate a kill mid-append: a record without its terminating newline.
  {
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << "done 00000000000000bb";
  }
  BatchJournal j(path);
  EXPECT_TRUE(j.contains("00000000000000aa"));
  EXPECT_FALSE(j.contains("00000000000000bb"));  // torn: will be re-done
  EXPECT_EQ(j.size(), 1u);
}

TEST(BatchJournal, ForeignFileIsNotClobbered) {
  const ScratchDir dir("rlcx_journal_foreign");
  const std::string path = dir.path + "/notes.txt";
  fs::create_directories(dir.path);
  {
    std::ofstream os(path);
    os << "these are not the droids\n";
  }
  EXPECT_THROW(BatchJournal j(path), diag::IoError);
  // The original content survives the rejection.
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "these are not the droids");
}

TEST(BatchJournal, RejectsMalformedIds) {
  const ScratchDir dir("rlcx_journal_ids");
  BatchJournal j(dir.path + "/batch.journal");
  EXPECT_THROW(j.record(""), diag::UsageError);
  EXPECT_THROW(j.record("has space"), diag::UsageError);
  EXPECT_THROW(j.record("has\nnewline"), diag::UsageError);
}

TEST(BatchJournal, TornTailIsRepairedByteExactOnOpen) {
  const ScratchDir dir("rlcx_journal_repair");
  const std::string path = dir.path + "/batch.journal";
  {
    BatchJournal j(path);
    j.record("00000000000000aa");
    j.record("00000000000000bb");
  }
  std::string clean;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    clean = ss.str();
  }
  {
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << "done 00000000000000cc";  // torn: no newline
  }
  WarningCapture warnings;
  BatchJournal j(path);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.tail_dropped_bytes(),
            std::string("done 00000000000000cc").size());
  // The repair truncates back to the clean prefix, byte for byte.
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), clean);
  ASSERT_FALSE(warnings.messages().empty());
  EXPECT_NE(warnings.messages()[0].find("torn trailing bytes"),
            std::string::npos);
}

TEST(BatchJournal, TornHeaderFromCrashedCreationRecoversEmpty) {
  const ScratchDir dir("rlcx_journal_torn_header");
  const std::string path = dir.path + "/batch.journal";
  fs::create_directories(dir.path);
  {
    std::ofstream os(path, std::ios::binary);
    os << "rlcx-jour";  // killed while writing the header line
  }
  WarningCapture warnings;
  BatchJournal j(path);
  EXPECT_EQ(j.size(), 0u);
  j.record("00000000000000aa");
  BatchJournal reopened(path);
  EXPECT_TRUE(reopened.contains("00000000000000aa"));
  ASSERT_FALSE(warnings.messages().empty());
  EXPECT_NE(warnings.messages()[0].find("header torn"), std::string::npos);
}

// The satellite fuzz: truncate a multi-record journal at *every* byte
// offset and assert open() recovers exactly the whole-record prefix —
// and repairs the file to exactly those bytes.
TEST(BatchJournal, FuzzTruncateAtEveryByteOffsetRecoversExactPrefix) {
  const ScratchDir dir("rlcx_journal_fuzz");
  const std::string path = dir.path + "/full.journal";
  const std::vector<std::string> ids = {
      "00000000000000aa", "00000000000000bb", "00000000000000cc"};
  {
    BatchJournal j(path);
    for (const std::string& id : ids) j.record(id);
  }
  std::string content;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    content = ss.str();
  }
  ASSERT_GT(content.size(), 40u);
  for (std::size_t cut = 0; cut <= content.size(); ++cut) {
    const std::string truncated = content.substr(0, cut);
    // Expected: ids whose full "done <id>\n" line lies within the cut,
    // and the clean prefix ends at the last newline within the cut.
    std::set<std::string> expect;
    std::size_t clean = 0;
    std::size_t pos = 0;
    bool header_complete = false;
    while (pos < truncated.size()) {
      const std::size_t nl = truncated.find('\n', pos);
      if (nl == std::string::npos) break;
      const std::string line = truncated.substr(pos, nl - pos);
      pos = nl + 1;
      clean = pos;
      if (!header_complete) {
        header_complete = true;
        continue;
      }
      expect.insert(line.substr(5));
    }
    const std::string victim = dir.path + "/cut." + std::to_string(cut);
    {
      std::ofstream os(victim, std::ios::binary | std::ios::trunc);
      os << truncated;
    }
    WarningCapture warnings;
    BatchJournal j(victim);
    EXPECT_EQ(j.completed(), expect) << "cut at byte " << cut;
    std::ifstream is(victim, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    if (header_complete) {
      // Byte-exact repair: exactly the whole-record prefix remains.
      EXPECT_EQ(ss.str(), truncated.substr(0, clean))
          << "cut at byte " << cut;
    } else {
      // Header never completed: recovered as a fresh (empty) journal.
      EXPECT_EQ(ss.str(), "rlcx-journal 1\n") << "cut at byte " << cut;
    }
  }
}

TEST(BatchJournal, FsyncDurabilityCountsFlushes) {
  const ScratchDir dir("rlcx_journal_fsync");
  const std::string path = dir.path + "/batch.journal";
  BatchJournal j(path, Durability::kFsync);
  EXPECT_EQ(j.durability(), Durability::kFsync);
  const std::uint64_t after_open = j.fsyncs();
  EXPECT_GE(after_open, 1u);  // the header flush
  j.record("00000000000000aa");
  j.record("00000000000000bb");
  j.record("00000000000000aa");  // idempotent: no write, no fsync
  EXPECT_EQ(j.fsyncs(), after_open + 2);
}

TEST(BatchJournal, InjectedEnospcFailsTheAppendTyped) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_journal_enospc");
  BatchJournal j(dir.path + "/batch.journal");
  FaultInjector::global().set_schedule("io_enospc:1");
  EXPECT_THROW(j.record("00000000000000aa"), diag::IoError);
  // The failed append is not remembered as complete.
  EXPECT_FALSE(j.contains("00000000000000aa"));
  FaultInjector::global().clear();
  j.record("00000000000000aa");
  EXPECT_TRUE(j.contains("00000000000000aa"));
}

TEST(BatchJournal, InjectedTearLeavesRepairablePrefix) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_journal_tear");
  const std::string path = dir.path + "/batch.journal";
  {
    BatchJournal j(path);
    j.record("00000000000000aa");
    FaultInjector::global().set_schedule("journal_tear:1");
    EXPECT_THROW(j.record("00000000000000bb"), diag::IoError);
    FaultInjector::global().clear();
  }
  // Half of "done ...bb\n" is on disk; reopening repairs to the prefix.
  WarningCapture warnings;
  BatchJournal j(path);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_TRUE(j.contains("00000000000000aa"));
  EXPECT_GT(j.tail_dropped_bytes(), 0u);
}

TEST(BatchJournal, InjectedFsyncFailureIsTyped) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_journal_fsync_fail");
  BatchJournal j(dir.path + "/batch.journal", Durability::kFsync);
  FaultInjector::global().set_schedule("journal_fsync:1");
  EXPECT_THROW(j.record("00000000000000aa"), diag::IoError);
}

// ---------------------------------------------------- crash-action grammar

TEST(FaultInjector, CrashGrammarParsesAndRejectsMalformedEntries) {
  InjectorReset reset;
  FaultInjector& fi = FaultInjector::global();
  fi.clear();
  // The crash action parses in both exact and persistent forms (firing is
  // exercised in test_crash_recovery, where dying is the point).
  EXPECT_NO_THROW(fi.set_schedule("journal_tear:2!"));
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_NO_THROW(fi.set_schedule("cache_staged:1+!"));
  EXPECT_THROW(fi.set_schedule("cache_write:!"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:1!!"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:1!+"), diag::UsageError);
  EXPECT_THROW(fi.set_schedule("cache_write:0!"), diag::UsageError);
  // Parse-then-commit: the rejected schedules left the last good one armed.
  EXPECT_TRUE(fault_injection_enabled());
  fi.clear();
  EXPECT_FALSE(fault_injection_enabled());
}

TEST(FaultInjector, CrashEntriesDoNotFireBeforeTheirCall) {
  InjectorReset reset;
  // A crash armed at call 3 must leave calls 1-2 untouched — if this
  // test survives these two calls, the boundary is exact (firing would
  // kill the whole test binary).
  FaultInjector::global().set_schedule("unit_test_site:3!");
  EXPECT_FALSE(fault_point("unit_test_site"));
  EXPECT_FALSE(fault_point("unit_test_site"));
  EXPECT_EQ(FaultInjector::global().calls("unit_test_site"), 2u);
  FaultInjector::global().clear();  // never reach call 3
}

// ----------------------------------------------------------------- SIGINT

TEST(ScopedSigintCancel, SigintRequestsCancellation) {
  RunControl rc;
  ScopedRunControl scope(rc);
  {
    ScopedSigintCancel sigint(rc.token);
    std::raise(SIGINT);
    EXPECT_TRUE(rc.token.requested());
    EXPECT_THROW(checkpoint("post-sigint"), diag::CancelledError);
  }
}

TEST(ScopedSigintCancel, ScopesNestAndRestore) {
  CancelToken outer_token;
  ScopedSigintCancel outer(outer_token);
  {
    CancelToken inner_token;
    ScopedSigintCancel inner(inner_token);
    std::raise(SIGINT);
    EXPECT_TRUE(inner_token.requested());
    EXPECT_FALSE(outer_token.requested());
  }
  std::raise(SIGINT);
  EXPECT_TRUE(outer_token.requested());
}

}  // namespace
}  // namespace rlcx::run
