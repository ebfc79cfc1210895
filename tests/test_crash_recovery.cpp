// The kill-9 chaos harness (docs/robustness.md "Durability & crash
// recovery").  Each test forks a child, arms a crash-action fault schedule
// (`site:N!` — the process dies with _exit(137) at the Nth hit, no atexit,
// no buffers flushed, exactly what `kill -9` leaves behind), runs real
// journal/cache/batch work in the child, then asserts the recovery
// invariants from the parent:
//
//   * a reopened journal recovers exactly the whole-record prefix,
//     byte-for-byte — a torn tail is dropped, never trusted;
//   * a cache killed at any point of the staged write publishes nothing:
//     the entry is absent and the orphaned staging file is swept at the
//     next open;
//   * a restarted daemon never serves a torn table — the startup sweep
//     quarantines it and the request re-characterises;
//   * `batch --resume` after a mid-campaign kill re-solves zero completed
//     keys.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/table_builder.h"
#include "core/table_cache.h"
#include "diag/warnings.h"
#include "geom/technology.h"
#include "numeric/units.h"
#include "run/fault_injection.h"
#include "run/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/scratch_dir.h"

namespace rlcx {
namespace {

namespace fs = std::filesystem;
using units::um;

using testing::ScratchDir;

struct InjectorReset {
  ~InjectorReset() { run::FaultInjector::global().clear(); }
};

// Collects warning messages emitted while alive (instead of stderr).
struct WarningCapture {
  std::vector<std::string> captured;
  diag::ScopedWarningHandler handler;
  WarningCapture()
      : handler([this](const diag::Warning& w) {
          captured.push_back(w.message);
        }) {}
};

/// Forks; the child arms `schedule`, runs `body`, and exits 0 if it
/// survives (the armed crash should have killed it first).  Returns the
/// child's wait status for WIFEXITED/WEXITSTATUS assertions.
int run_doomed_child(const std::string& schedule,
                     const std::function<void()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: no gtest assertions in here — communicate via exit status
    // only.  An uncaught exception maps to a distinct code so the parent
    // can tell "crashed as scheduled" (137) from "threw instead" (7).
    try {
      run::FaultInjector::global().set_schedule(schedule);
      body();
    } catch (...) {
      ::_exit(7);
    }
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

#define ASSERT_DIED_137(status)                                       \
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";     \
  ASSERT_EQ(WEXITSTATUS(status), 137)                                 \
      << "child was expected to die at the armed crash site"

// ---------------------------------------------------------------- journal

TEST(CrashRecovery, JournalTearCrashReopensByteExact) {
  const ScratchDir dir("rlcx_crash_journal_tear");
  const std::string path = dir.path + "/batch.journal";
  {
    run::BatchJournal j(path);
    j.record("00000000000000aa");
  }
  const std::string clean = slurp(path);

  const int status = run_doomed_child("journal_tear:1!", [&] {
    run::BatchJournal j(path);
    j.record("00000000000000bb");  // dies mid-record, half a line on disk
  });
  ASSERT_DIED_137(status);
  const std::string torn = slurp(path);
  ASSERT_GT(torn.size(), clean.size()) << "crash left no torn bytes";
  ASSERT_EQ(torn.substr(0, clean.size()), clean);

  WarningCapture warnings;
  run::BatchJournal recovered(path);
  EXPECT_TRUE(recovered.contains("00000000000000aa"));
  EXPECT_FALSE(recovered.contains("00000000000000bb"));
  EXPECT_EQ(recovered.tail_dropped_bytes(), torn.size() - clean.size());
  // The repair is byte-exact: the file is the clean prefix again.
  EXPECT_EQ(slurp(path), clean);
  ASSERT_FALSE(warnings.captured.empty());
  EXPECT_NE(warnings.captured[0].find("torn trailing bytes"),
            std::string::npos);
}

TEST(CrashRecovery, CrashAtSecondRecordLeavesFirstIntact) {
  const ScratchDir dir("rlcx_crash_journal_nth");
  const std::string path = dir.path + "/batch.journal";
  const int status = run_doomed_child("journal_tear:2!", [&] {
    run::BatchJournal j(path);
    j.record("00000000000000aa");  // call 1: survives
    j.record("00000000000000bb");  // call 2: dies mid-record
  });
  ASSERT_DIED_137(status);
  run::BatchJournal recovered(path);
  EXPECT_TRUE(recovered.contains("00000000000000aa"));
  EXPECT_FALSE(recovered.contains("00000000000000bb"));
  EXPECT_EQ(recovered.size(), 1u);
}

TEST(CrashRecovery, FsyncModeCrashAtTheFlushCannotTear) {
  const ScratchDir dir("rlcx_crash_journal_fsync");
  const std::string path = dir.path + "/batch.journal";
  const int status = run_doomed_child("journal_fsync:1!", [&] {
    // The site guards the per-record flush — by the time it fires, the
    // record's bytes are fully written.
    run::BatchJournal j(path, run::Durability::kFsync);
    j.record("00000000000000aa");
  });
  ASSERT_DIED_137(status);
  run::BatchJournal recovered(path);
  EXPECT_TRUE(recovered.contains("00000000000000aa"));
  EXPECT_EQ(recovered.tail_dropped_bytes(), 0u);
}

// ------------------------------------------------------------ table cache

core::TableGrid tiny_grid() {
  core::TableGrid g;
  g.widths = {um(2), um(8)};
  g.spacings = {um(1), um(4)};
  g.lengths = {um(200), um(1000)};
  return g;
}

solver::SolveOptions fast_options() {
  solver::SolveOptions opt;
  opt.frequency = 1e9;
  opt.auto_mesh = false;
  opt.mesh.nw = 1;
  opt.mesh.nt = 1;
  return opt;
}

// Every fault site on the staged-write path, killed at first hit: the
// crash lands (a) before any bytes, (b) mid-tmp-write, (c) after the
// fsynced tmp but before the rename.  In every case the invariant is the
// same: nothing is published, and the next open sweeps the debris.
TEST(CrashRecovery, StoreCrashAtEverySiteNeverPublishes) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const core::TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  const std::string key = core::TableCache::key_text(
      tech, 6, geom::PlaneConfig::kNone, grid, opt);

  const std::vector<std::string> sites = {"cache_write:1!", "io_enospc:1!",
                                          "io_short_write:1!",
                                          "cache_staged:1!"};
  for (const std::string& site : sites) {
    const ScratchDir dir("rlcx_crash_store");
    {
      // Warm the directory (and prove the build works) without faults.
      core::TableCache plain(dir.path);
      EXPECT_TRUE(plain.load(key) == std::nullopt);
    }
    const int status = run_doomed_child(site, [&] {
      core::TableCache cache(dir.path);
      const core::InductanceTables tables = core::build_tables(
          tech, 6, geom::PlaneConfig::kNone, grid, opt);
      cache.store(key, tables);
    });
    ASSERT_DIED_137(status) << "site " << site;

    // No published entry, ever — and whatever staging debris the crash
    // left is swept before anything can be served.
    WarningCapture warnings;
    core::TableCache reopened(dir.path);
    EXPECT_EQ(reopened.stats().quarantined_at_startup, 0u) << site;
    EXPECT_TRUE(reopened.load(key) == std::nullopt) << site;
    for (const auto& e : fs::directory_iterator(dir.path))
      EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
          << "staging file survived the sweep after " << site << ": "
          << e.path();
  }
}

TEST(CrashRecovery, RestartedDaemonQuarantinesTornTableBeforeServing) {
  const ScratchDir dir("rlcx_crash_serve");
  serve::ServeConfig cfg;
  cfg.cache_dir = dir.path + "/cache";
  cfg.max_tables = 4;
  cfg.max_active = 2;
  cfg.queue_depth = 4;
  const std::string request = serve::join_request(
      {"extract", "--structure", "cpw", "--length-um", "6000", "--traces",
       "s:10,s:5", "--spacings", "2"});

  std::string first_out;
  {
    std::ostringstream diag;
    serve::Server server(cfg, diag);
    serve::MemoryStream stream(
        serve::encode_frame(serve::FrameKind::kRequest, request));
    server.handle_connection(stream);
    serve::MemoryStream replies(stream.output());
    serve::Frame f;
    ASSERT_TRUE(serve::read_frame(replies, &f));
    const serve::Response r = serve::parse_response(f.payload);
    ASSERT_EQ(r.status, 0) << r.err;
    first_out = r.out;
  }

  // Tear the published entry the way a kill mid-rename-less write cannot
  // (the atomic publish prevents it) but disk corruption still can.
  std::string entry;
  for (const auto& e : fs::directory_iterator(cfg.cache_dir))
    if (e.path().extension() == ".tbl") entry = e.path().string();
  ASSERT_FALSE(entry.empty());
  fs::resize_file(entry, 6);  // smaller than any legal bundle

  // The restarted daemon quarantines at open and re-characterises: the
  // client sees the same answer, never the torn bytes.
  WarningCapture warnings;
  std::ostringstream diag;
  serve::Server server(cfg, diag);
  serve::MemoryStream stream(
      serve::encode_frame(serve::FrameKind::kRequest, request) +
      serve::encode_frame(serve::FrameKind::kRequest, "stats"));
  server.handle_connection(stream);
  serve::MemoryStream replies(stream.output());
  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(replies, &f));
  const serve::Response r = serve::parse_response(f.payload);
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(r.out, first_out);
  ASSERT_TRUE(serve::read_frame(replies, &f));
  const serve::Response stats = serve::parse_response(f.payload);
  EXPECT_NE(stats.out.find("1 quarantined at startup"), std::string::npos)
      << stats.out;
}

// ------------------------------------------------------------------ batch

TEST(CrashRecovery, BatchKilledMidCampaignResumesWithZeroSolves) {
  const ScratchDir dir("rlcx_crash_batch");
  const std::vector<std::string> base{
      "batch",    "--table-cache", dir.path, "--layers", "6",
      "--points", "2",             "--planes-list",      "none"};

  // The child dies inside the journal append for the first completed job:
  // the table is stored, the completion record is torn.
  const int status = run_doomed_child("journal_tear:1!", [&] {
    std::ostringstream out;
    std::ostringstream err;
    cli::run(base, out, err);
  });
  ASSERT_DIED_137(status);

  // --resume: the torn record is dropped (so 0 resumed from the journal),
  // but the stored table makes the job a cache hit — zero re-solves.
  std::vector<std::string> resume = base;
  resume.push_back("--resume");
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(resume, out, err);
  ASSERT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("1 jobs"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("0 field solves"), std::string::npos)
      << out.str();
  // The stored table served the job: the cache, not the solver, did the
  // work.
  EXPECT_NE(out.str().find("1 hits"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace rlcx
