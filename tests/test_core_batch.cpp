// Batched characterisation/extraction: bit-identity with the serial
// single-job paths, key-level dedup, cache integration, checkpoint/resume
// via the batch journal, and the parallel per-level tree sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "clocktree/tree_netlist.h"
#include "core/batch_extractor.h"
#include "core/rlc_extractor.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "rt/pool.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "run/journal.h"
#include "solver/block_solver.h"
#include "support/scratch_dir.h"

namespace rlcx::core {
namespace {

namespace fs = std::filesystem;
using units::um;

using testing::ScratchDir;

TableGrid tiny_grid() {
  TableGrid g;
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

void expect_same_tables(const InductanceTables& a, const InductanceTables& b) {
  ASSERT_EQ(a.mutual.values().size(), b.mutual.values().size());
  for (std::size_t i = 0; i < a.mutual.values().size(); ++i)
    EXPECT_EQ(a.mutual.values()[i], b.mutual.values()[i]) << i;
  ASSERT_EQ(a.self.values().size(), b.self.values().size());
  for (std::size_t i = 0; i < a.self.values().size(); ++i)
    EXPECT_EQ(a.self.values()[i], b.self.values()[i]) << i;
  ASSERT_EQ(a.series_r.values().size(), b.series_r.values().size());
  for (std::size_t i = 0; i < a.series_r.values().size(); ++i)
    EXPECT_EQ(a.series_r.values()[i], b.series_r.values()[i]) << i;
}

TEST(CharacterizeBatch, MatchesSingleBuildsBitForBit) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  std::vector<BatchJob> jobs(2);
  jobs[0] = {6, geom::PlaneConfig::kNone, tiny_grid()};
  jobs[1] = {4, geom::PlaneConfig::kNone, tiny_grid()};

  rt::Pool pool(3);
  BatchOptions bopt;
  bopt.pool = &pool;
  const BatchResult batch = characterize_batch(tech, jobs, opt, bopt);

  ASSERT_EQ(batch.tables.size(), 2u);
  ASSERT_EQ(batch.stats.size(), 2u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const InductanceTables single = build_tables(
        tech, jobs[j].layer, jobs[j].planes, jobs[j].grid, opt);
    expect_same_tables(single, batch.tables[j]);
    EXPECT_EQ(batch.stats[j].solves, 16u) << j;
    EXPECT_EQ(batch.stats[j].grid_points, 16u) << j;
    EXPECT_EQ(batch.stats[j].threads, 3) << j;
  }
}

TEST(CharacterizeBatch, FoldsDuplicateJobs) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  std::vector<BatchJob> jobs(2);
  jobs[0] = {6, geom::PlaneConfig::kNone, tiny_grid()};
  jobs[1] = {6, geom::PlaneConfig::kNone, tiny_grid()};  // identical

  const BatchResult batch = characterize_batch(tech, jobs, opt);
  EXPECT_EQ(batch.totals.solves, 16u);  // one build, not two
  EXPECT_EQ(batch.stats[0].solves, 16u);
  EXPECT_EQ(batch.stats[1].solves, 0u);  // folded into job 0
  expect_same_tables(batch.tables[0], batch.tables[1]);
}

TEST(CharacterizeBatch, WarmCachePerformsZeroSolves) {
  const ScratchDir dir("rlcx_batch_cache");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  const std::vector<BatchJob> jobs = {{6, geom::PlaneConfig::kNone,
                                       tiny_grid()}};

  TableCache cache(dir.path);
  BatchOptions bopt;
  bopt.cache = &cache;
  const BatchResult cold = characterize_batch(tech, jobs, opt, bopt);
  EXPECT_EQ(cold.stats[0].solves, 16u);
  EXPECT_EQ(cache.stats().misses, 1u);

  TableCache warm(dir.path);
  BatchOptions wopt;
  wopt.cache = &warm;
  const BatchResult hit = characterize_batch(tech, jobs, opt, wopt);
  EXPECT_EQ(hit.totals.solves, 0u);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(hit.stats[0].solves, 0u);
  expect_same_tables(cold.tables[0], hit.tables[0]);
}

TEST(CharacterizeBatch, JournalRecordsEveryCompletedJob) {
  const ScratchDir dir("rlcx_batch_journal");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  const std::vector<BatchJob> jobs = {
      {6, geom::PlaneConfig::kNone, tiny_grid()},
      {4, geom::PlaneConfig::kNone, tiny_grid()}};

  TableCache cache(dir.path);
  run::BatchJournal journal(dir.path + "/batch.journal");
  BatchOptions bopt;
  bopt.cache = &cache;
  bopt.journal = &journal;
  const BatchResult res = characterize_batch(tech, jobs, opt, bopt);
  EXPECT_EQ(res.jobs_resumed, 0u);
  EXPECT_EQ(journal.size(), 2u);
  for (const BatchJob& job : jobs) {
    const std::string id = TableCache::key_id(
        TableCache::key_text(tech, job.layer, job.planes, job.grid, opt));
    EXPECT_TRUE(journal.contains(id)) << id;
    // Journal/cache consistency: a journaled id has its entry on disk.
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / (id + ".tbl"))) << id;
  }
}

TEST(CharacterizeBatch, JournaledKeyMissingFromCacheRebuildsWithWarning) {
  const ScratchDir dir("rlcx_batch_journal_miss");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  const std::vector<BatchJob> jobs = {
      {6, geom::PlaneConfig::kNone, tiny_grid()}};
  const std::string id = TableCache::key_id(TableCache::key_text(
      tech, jobs[0].layer, jobs[0].planes, jobs[0].grid, opt));

  TableCache cache(dir.path);
  run::BatchJournal journal(dir.path + "/batch.journal");
  journal.record(id);  // journaled complete, but the cache is empty

  std::vector<diag::Warning> warnings;
  const diag::ScopedWarningHandler handler(
      [&](const diag::Warning& w) { warnings.push_back(w); });
  BatchOptions bopt;
  bopt.cache = &cache;
  bopt.journal = &journal;
  const BatchResult res = characterize_batch(tech, jobs, opt, bopt);
  // Degrades to an ordinary rebuild, loudly.
  EXPECT_EQ(res.jobs_resumed, 0u);
  EXPECT_EQ(res.totals.solves, 16u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].message.find(id), std::string::npos);
  EXPECT_NE(warnings[0].message.find("re-characterising"), std::string::npos);
}

// The acceptance scenario: a campaign killed mid-flight (deterministically,
// via the `cancel` injection site) relaunches with the same journal and
// completes with ZERO re-solves for journaled jobs and tables byte-equal
// to an uninterrupted run.
TEST(CharacterizeBatch, InterruptedCampaignResumesWithZeroReSolves) {
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } injector_reset;

  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  std::vector<BatchJob> jobs(2);
  jobs[0] = {6, geom::PlaneConfig::kNone, tiny_grid()};
  jobs[1] = {4, geom::PlaneConfig::kNone, tiny_grid()};
  rt::Pool pool(1);  // single worker: a deterministic checkpoint sequence

  // Reference: an uninterrupted campaign.  The armed-but-unreachable
  // `cancel` entry counts the total checkpoints this workload passes.
  run::FaultInjector::global().set_schedule("cancel:1000000000");
  const ScratchDir ref_dir("rlcx_resume_ref");
  TableCache ref_cache(ref_dir.path);
  run::BatchJournal ref_journal(ref_dir.path + "/batch.journal");
  BatchOptions ref_opt;
  ref_opt.cache = &ref_cache;
  ref_opt.pool = &pool;
  ref_opt.journal = &ref_journal;
  BatchResult reference;
  {
    run::RunControl rc;
    run::ScopedRunControl scope(rc);
    reference = characterize_batch(tech, jobs, opt, ref_opt);
  }
  const std::uint64_t total_checkpoints =
      run::FaultInjector::global().calls("cancel");
  ASSERT_GT(total_checkpoints, 8u);
  EXPECT_EQ(ref_journal.size(), 2u);

  // Interrupted campaign: cancel at ~60% of those checkpoints — past the
  // first job's half of the flat range, inside the second job's.
  const ScratchDir dir("rlcx_resume");
  TableCache cache(dir.path);
  std::size_t done_after_interrupt = 0;
  {
    run::BatchJournal journal(dir.path + "/batch.journal");
    BatchOptions bopt;
    bopt.cache = &cache;
    bopt.pool = &pool;
    bopt.journal = &journal;
    run::FaultInjector::global().set_schedule(
        "cancel:" + std::to_string(3 * total_checkpoints / 5));
    run::RunControl rc;
    run::ScopedRunControl scope(rc);
    EXPECT_THROW(characterize_batch(tech, jobs, opt, bopt),
                 diag::CancelledError);
    done_after_interrupt = journal.size();
    // Partial progress, not none and not all; every journaled id is
    // durable in the cache (no partially-written entries).
    EXPECT_GE(done_after_interrupt, 1u);
    EXPECT_LT(done_after_interrupt, 2u);
    for (const std::string& id : journal.completed()) {
      EXPECT_TRUE(fs::exists(fs::path(dir.path) / (id + ".tbl"))) << id;
      EXPECT_TRUE(fs::exists(fs::path(dir.path) / (id + ".key"))) << id;
    }
  }
  run::FaultInjector::global().clear();

  // Resume: reopen the same journal and cache, rerun the same jobs.
  run::BatchJournal journal(dir.path + "/batch.journal");
  ASSERT_EQ(journal.size(), done_after_interrupt);
  TableCache warm(dir.path);
  BatchOptions ropt;
  ropt.cache = &warm;
  ropt.pool = &pool;
  ropt.journal = &journal;
  const BatchResult resumed = characterize_batch(tech, jobs, opt, ropt);
  // Zero re-solves for journaled jobs: only the unfinished ones build.
  EXPECT_EQ(resumed.jobs_resumed, done_after_interrupt);
  EXPECT_EQ(resumed.totals.solves,
            16u * (jobs.size() - done_after_interrupt));
  EXPECT_EQ(journal.size(), 2u);
  // Byte-identical tables vs the uninterrupted campaign.
  for (std::size_t j = 0; j < jobs.size(); ++j)
    expect_same_tables(reference.tables[j], resumed.tables[j]);
}

// BatchResult::totals is the one counter snapshot of a build: its solve
// count is the number of grid points built, and each of them is exactly one
// impedance solve.  A warm re-run builds nothing and counts nothing.
TEST(CharacterizeBatch, TotalsCountOneSolvePerBuiltGridPoint) {
  const ScratchDir dir("rlcx_batch_totals");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  const std::vector<BatchJob> jobs = {
      {6, geom::PlaneConfig::kNone, tiny_grid()},
      {4, geom::PlaneConfig::kNone, tiny_grid()},
      {6, geom::PlaneConfig::kNone, tiny_grid()}};  // folded duplicate

  TableCache cache(dir.path);
  BatchOptions bopt;
  bopt.cache = &cache;
  std::size_t dense0 = solver::solve_stats_total().dense_solves;
  const BatchResult cold = characterize_batch(tech, jobs, opt, bopt);
  const std::size_t cold_dense =
      solver::solve_stats_total().dense_solves - dense0;
  EXPECT_EQ(cold.totals.grid_points, 32u);
  EXPECT_EQ(cold.totals.solves, cold.totals.grid_points);
  EXPECT_EQ(cold_dense, cold.totals.solves);
  EXPECT_EQ(cold.totals.dense_solves, cold.totals.solves);
  EXPECT_GT(cold.totals.pair_lookups, 0u);
  EXPECT_GT(cold.totals.batch_runs, 0u);

  dense0 = solver::solve_stats_total().dense_solves;
  const BatchResult warm = characterize_batch(tech, jobs, opt, bopt);
  EXPECT_EQ(solver::solve_stats_total().dense_solves - dense0, 0u);
  EXPECT_EQ(warm.totals.solves, 0u);
  EXPECT_EQ(warm.totals.grid_points, 0u);
  EXPECT_EQ(warm.totals.dense_solves, 0u);
  EXPECT_EQ(warm.totals.threads, 1);  // nothing ran
}

// build_tables and build_tables_cached are one-job characterize_batch
// calls: every pool width, and the cache's cold and warm paths, return the
// one-job batch's tables bit for bit, and their stats are its totals.
TEST(CharacterizeBatch, OneJobCallsMatchTheBatchAtEveryWidth) {
  const ScratchDir dir("rlcx_batch_one_job");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions opt = fast_options();
  const TableGrid grid = tiny_grid();
  const BatchResult batch = characterize_batch(
      tech, {{6, geom::PlaneConfig::kNone, grid}}, opt);

  for (const int threads : {1, 2, 0}) {
    BuildStats st;
    const InductanceTables t = build_tables(
        tech, 6, geom::PlaneConfig::kNone, grid, opt, threads, &st);
    expect_same_tables(batch.tables[0], t);
    EXPECT_EQ(st.solves, 16u) << threads;
    EXPECT_EQ(st.dense_solves, 16u) << threads;
    const int width = threads == 0 ? rt::Pool::global().size() : threads;
    EXPECT_EQ(st.threads, width) << threads;
  }

  TableCache cache(dir.path);
  BuildStats cold;
  expect_same_tables(batch.tables[0],
                     build_tables_cached(tech, 6, geom::PlaneConfig::kNone,
                                         grid, opt, cache, &cold));
  EXPECT_EQ(cold.solves, 16u);
  EXPECT_EQ(cache.stats().misses, 1u);
  BuildStats warm;
  expect_same_tables(batch.tables[0],
                     build_tables_cached(tech, 6, geom::PlaneConfig::kNone,
                                         grid, opt, cache, &warm));
  EXPECT_EQ(warm.solves, 0u);
  EXPECT_EQ(warm.dense_solves, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ExtractSegmentsBatch, MatchesSerialExtraction) {
  const geom::Technology tech = geom::Technology::generic_025um();
  solver::SolveOptions sopt = fast_options();
  std::vector<geom::Block> blocks;
  blocks.push_back(geom::coplanar_waveguide(tech, 6, um(800), um(4), um(6), um(2)));
  blocks.push_back(geom::coplanar_waveguide(tech, 6, um(400), um(2), um(4), um(1)));
  blocks.push_back(geom::coplanar_waveguide(tech, 6, um(1500), um(6), um(8), um(3)));

  InductanceLibrary lib;
  lib.add(6, geom::PlaneConfig::kNone,
          std::make_shared<DirectInductanceModel>(&tech, 6,
                                                  geom::PlaneConfig::kNone,
                                                  sopt));

  rt::Pool pool(3);
  const std::vector<SegmentRlc> par =
      extract_segments_batch(blocks, lib, {}, &pool);
  ASSERT_EQ(par.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const SegmentRlc serial = extract_segment_rlc(
        blocks[i], lib.provider(6, geom::PlaneConfig::kNone));
    ASSERT_EQ(serial.resistance.size(), par[i].resistance.size());
    for (std::size_t t = 0; t < serial.resistance.size(); ++t)
      EXPECT_EQ(serial.resistance[t], par[i].resistance[t]);
    ASSERT_EQ(serial.inductance.rows(), par[i].inductance.rows());
    for (std::size_t r = 0; r < serial.inductance.rows(); ++r)
      for (std::size_t c = 0; c < serial.inductance.cols(); ++c)
        EXPECT_EQ(serial.inductance(r, c), par[i].inductance(r, c));
    for (std::size_t t = 0; t < serial.cap_ground.size(); ++t)
      EXPECT_EQ(serial.cap_ground[t], par[i].cap_ground[t]);
  }
}

TEST(ExtractSegmentsBatch, MissingProviderFailsBeforeAnyWork) {
  const geom::Technology tech = geom::Technology::generic_025um();
  std::vector<geom::Block> blocks;
  blocks.push_back(geom::coplanar_waveguide(tech, 6, um(800), um(4), um(6), um(2)));
  const InductanceLibrary empty;
  EXPECT_THROW(extract_segments_batch(blocks, empty), std::exception);
}

}  // namespace
}  // namespace rlcx::core

namespace rlcx::clocktree {
namespace {

using units::um;

TEST(ExtractTreeSegments, ParallelSweepMatchesPerLevelSerial) {
  const geom::Technology tech = geom::Technology::generic_025um();
  solver::SolveOptions sopt;
  sopt.frequency = 1e9;
  sopt.auto_mesh = false;
  sopt.mesh.nw = 1;
  sopt.mesh.nt = 1;

  const HTreeSpec spec = example_cpw_tree();  // 3 levels, all (6, none)
  core::InductanceLibrary lib;
  for (std::size_t lv = 0; lv < spec.levels.size(); ++lv) {
    const geom::Block blk = level_block(tech, spec, lv);
    if (!lib.has(blk.layer_index(), blk.planes()))
      lib.add(blk.layer_index(), blk.planes(),
              std::make_shared<core::DirectInductanceModel>(
                  &tech, blk.layer_index(), blk.planes(), sopt));
  }

  rt::Pool pool(3);
  const TreeSegments par = extract_tree_segments(tech, spec, lib, {}, &pool);
  ASSERT_EQ(par.blocks.size(), spec.levels.size());
  ASSERT_EQ(par.rlc.size(), spec.levels.size());
  for (std::size_t lv = 0; lv < spec.levels.size(); ++lv) {
    const geom::Block blk = level_block(tech, spec, lv);
    const core::SegmentRlc serial = core::extract_segment_rlc(
        blk, lib.provider(blk.layer_index(), blk.planes()));
    ASSERT_EQ(serial.inductance.rows(), par.rlc[lv].inductance.rows());
    for (std::size_t r = 0; r < serial.inductance.rows(); ++r)
      for (std::size_t c = 0; c < serial.inductance.cols(); ++c)
        EXPECT_EQ(serial.inductance(r, c), par.rlc[lv].inductance(r, c))
            << "level " << lv;
    for (std::size_t t = 0; t < serial.resistance.size(); ++t)
      EXPECT_EQ(serial.resistance[t], par.rlc[lv].resistance[t]);
  }
}

}  // namespace
}  // namespace rlcx::clocktree
