// Tests for the persistent table cache: content-addressed keys, hit/miss
// behaviour (a hit performs zero PEEC solves), atomic binary entries and
// the stat/list/purge maintenance surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/table_builder.h"
#include "core/table_cache.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "geom/technology.h"
#include "numeric/units.h"
#include "run/fault_injection.h"
#include "solver/frequency.h"
#include "support/scratch_dir.h"

namespace rlcx::core {
namespace {

namespace fs = std::filesystem;
using units::um;

using testing::ScratchDir;

// The smallest legal grid (2 points per axis -> 16 two-trace solves) over
// short narrow traces keeps each build fast.
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

TEST(TableCache, HitOnIdenticalInputsPerformsZeroSolves) {
  const ScratchDir dir("rlcx_cache_hit");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cold(dir.path);
  BuildStats stats;
  const InductanceTables built = build_tables_cached(
      tech, 6, geom::PlaneConfig::kNone, grid, opt, cold, &stats);
  EXPECT_EQ(cold.stats().misses, 1u);
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_GT(cold.stats().bytes_written, 0u);
  EXPECT_EQ(stats.solves, 16u);  // 2*2*2*2 grid points

  // A separate cache instance (a new process, in effect) on the same
  // directory with identical inputs must answer from disk: zero solves.
  TableCache warm(dir.path);
  const InductanceTables cached = build_tables_cached(
      tech, 6, geom::PlaneConfig::kNone, grid, opt, warm, &stats);
  EXPECT_EQ(stats.solves, 0u);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_GT(warm.stats().bytes_read, 0u);

  // The binary round trip is bit-exact, so lookups match the in-memory
  // build exactly — on-grid and interpolated alike.
  EXPECT_EQ(cached.frequency, built.frequency);
  EXPECT_EQ(cached.self.values(), built.self.values());
  EXPECT_EQ(cached.mutual.values(), built.mutual.values());
  const std::vector<double> q{um(4), um(5), um(2), um(700)};
  EXPECT_EQ(cached.mutual.lookup(q), built.mutual.lookup(q));
  EXPECT_EQ(cached.self.lookup({um(4), um(700)}),
            built.self.lookup({um(4), um(700)}));
}

TEST(TableCache, MissOnChangedFrequency) {
  const ScratchDir dir("rlcx_cache_freq");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path);
  build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt, cache);
  opt.frequency = 2e9;  // a different significant frequency: new key
  BuildStats stats;
  build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt, cache,
                      &stats);
  EXPECT_EQ(stats.solves, 16u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.list().size(), 2u);
}

TEST(TableCache, EntryKeyedUnderOlderVersionIsAMiss) {
  // Table values moved (the LDLᵀ impedance solve with a merged return)
  // while no keyed input changed, so the key version was bumped: an entry
  // stored under the version-4 key text must never be served for today's
  // inputs.
  const ScratchDir dir("rlcx_cache_version");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string current = "rlcx-cache-key 5\n";
  ASSERT_EQ(key.compare(0, current.size(), current), 0);
  const std::string old_key =
      "rlcx-cache-key 4\n" + key.substr(current.size());

  TableCache cache(dir.path);
  ASSERT_TRUE(cache.store(
      old_key, build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt)));
  EXPECT_NE(TableCache::key_id(old_key), TableCache::key_id(key));
  EXPECT_FALSE(cache.load(key).has_value());

  BuildStats stats;
  build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt, cache,
                      &stats);
  EXPECT_EQ(stats.solves, 16u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.list().size(), 2u);
}

TEST(TableCache, KeyTextCoversEveryInput) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  const std::string base =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  EXPECT_EQ(base,
            TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid,
                                 opt));
  EXPECT_NE(base, TableCache::key_text(tech, 7, geom::PlaneConfig::kNone,
                                       grid, opt));
  EXPECT_NE(base, TableCache::key_text(tech, 6, geom::PlaneConfig::kBelow,
                                       grid, opt));

  TableGrid grid2 = grid;
  grid2.lengths.push_back(um(2000));
  EXPECT_NE(base, TableCache::key_text(tech, 6, geom::PlaneConfig::kNone,
                                       grid2, opt));

  solver::SolveOptions opt2 = opt;
  opt2.frequency = 2e9;
  EXPECT_NE(base, TableCache::key_text(tech, 6, geom::PlaneConfig::kNone,
                                       grid, opt2));

  // A different layer stack (here: resistivity at temperature) must
  // repartition the cache even with identical geometry requests.
  const geom::Technology hot = tech.at_temperature(100.0);
  EXPECT_NE(base, TableCache::key_text(hot, 6, geom::PlaneConfig::kNone,
                                       grid, opt));
}

// docs/table-format.md §4.1 lists the key text line by line; the code
// must emit exactly those lines, in that order.  Each documented line
// contributes its literal prefix (the text before the first `<field>`);
// the per-layer line repeats once per technology layer.
TEST(TableCache, KeyTextLinesFollowTheDocumentedRecipe) {
  std::ifstream doc(std::string(RLCX_SOURCE_DIR) + "/docs/table-format.md");
  ASSERT_TRUE(doc) << "cannot read docs/table-format.md";
  struct DocLine {
    std::string prefix;
    bool per_layer;
  };
  std::vector<DocLine> recipe;
  bool in_section = false, in_fence = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("### ", 0) == 0) {
      if (in_section) break;
      in_section = line.rfind("### 4.1 ", 0) == 0;
      continue;
    }
    if (!in_section) continue;
    if (line.rfind("```", 0) == 0) {
      if (in_fence) break;
      in_fence = true;
      continue;
    }
    if (!in_fence) continue;
    const std::size_t field = line.find('<');
    const std::size_t comment = line.find('#');
    std::string prefix = line.substr(0, std::min(field, comment));
    if (field == std::string::npos)  // a literal line: drop trailing blanks
      prefix.erase(prefix.find_last_not_of(' ') + 1);
    recipe.push_back({prefix, line.find("# per layer") != std::string::npos});
  }
  ASSERT_FALSE(recipe.empty()) << "no key recipe found in §4.1";

  const geom::Technology tech = geom::Technology::generic_025um();
  const std::string key = TableCache::key_text(
      tech, 6, geom::PlaneConfig::kBelow, tiny_grid(), fast_options());
  std::vector<std::string> lines;
  std::istringstream in(key);
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  std::size_t k = 0;
  for (const DocLine& d : recipe) {
    ASSERT_LT(k, lines.size()) << "key text ends before \"" << d.prefix
                               << "\"";
    EXPECT_EQ(lines[k].rfind(d.prefix, 0), 0u)
        << "key line " << k << " \"" << lines[k] << "\" does not start with "
        << "the documented \"" << d.prefix << "\"";
    ++k;
    if (d.per_layer)
      while (k < lines.size() && lines[k].rfind(d.prefix, 0) == 0) ++k;
  }
  EXPECT_EQ(k, lines.size())
      << "undocumented key line: \"" << (k < lines.size() ? lines[k] : "")
      << "\"";
}

TEST(TableCache, CliDefaultClassKeyIdIsPinned) {
  // The class `rlcx tables --layer 6 --points 3` characterises at the
  // CLI's default 200 ps rise (1.6 GHz).  Every user's cache directory is
  // filed under ids like this one, so a change that moves it (a new
  // SolveOptions or PartialOptions field, a reformatted fingerprint)
  // silently orphans every cache.  Update the golden id only together
  // with a kCacheKeyVersion bump.
  solver::SolveOptions opt;
  opt.frequency = solver::significant_frequency(200e-12);
  const std::string key = TableCache::key_text(
      geom::Technology::generic_025um(), 6, geom::PlaneConfig::kNone,
      default_clock_grid(3), opt);
  EXPECT_EQ(TableCache::key_id(key), "07a6ebb4b4cf3703") << key;
}

TEST(TableCache, KeyHashIsStableFnv1a64) {
  // Pinned so entry file names stay valid across builds and platforms.
  EXPECT_EQ(TableCache::key_hash(""), 14695981039346656037ull);
  EXPECT_EQ(TableCache::key_hash("abc"), 0xe71fa2190541574bull);
}

TEST(TableCache, CorruptEntryFailsLoudlyUnderStrictPolicy) {
  const ScratchDir dir("rlcx_cache_corrupt");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path, CacheRecoveryPolicy::kStrict);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  cache.store(key, build_tables(tech, 6, geom::PlaneConfig::kNone, grid,
                                opt));

  // Overwrite the entry with garbage: strict loading must throw, not
  // silently serve or rebuild.
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".tbl") {
      std::ofstream os(de.path(), std::ios::binary | std::ios::trunc);
      os << "RLXBgarbage";
    }
  EXPECT_THROW(cache.load(key), std::runtime_error);
  EXPECT_THROW(cache.load(key), rlcx::diag::CacheError);
  // And a corrupt entry is not listed as well-formed.
  EXPECT_TRUE(cache.list().empty());
}

TEST(TableCache, CorruptEntryIsQuarantinedUnderRecoverPolicy) {
  const ScratchDir dir("rlcx_cache_recover");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path);  // kRecover is the default
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  cache.store(key, build_tables(tech, 6, geom::PlaneConfig::kNone, grid,
                                opt));
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".tbl") {
      std::ofstream os(de.path(), std::ios::binary | std::ios::trunc);
      os << "RLXBgarbage";
    }

  // The bad entry reads as a miss, a warning is emitted on the cache
  // channel, and the bytes are preserved under *.quarantine.
  std::vector<rlcx::diag::Warning> warnings;
  {
    rlcx::diag::ScopedWarningHandler capture(
        [&](const rlcx::diag::Warning& w) { warnings.push_back(w); });
    EXPECT_FALSE(cache.load(key).has_value());
  }
  EXPECT_EQ(cache.stats().quarantined, 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].category, rlcx::diag::Category::kCache);
  std::size_t quarantined_files = 0;
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".quarantine") ++quarantined_files;
  EXPECT_EQ(quarantined_files, 2u);  // entry + key sidecar

  // The slot is free again: a rebuild stores and then hits cleanly.
  build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt, cache);
  EXPECT_TRUE(cache.load(key).has_value());

  // purge() sweeps quarantined files along with live entries.
  EXPECT_EQ(cache.purge(), 1u);
  EXPECT_TRUE(fs::is_empty(dir.path));
}

TEST(TableCache, SidecarMismatchIsTreatedAsMiss) {
  const ScratchDir dir("rlcx_cache_sidecar");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  cache.store(key, build_tables(tech, 6, geom::PlaneConfig::kNone, grid,
                                opt));
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".key") {
      std::ofstream os(de.path(), std::ios::trunc);
      os << "some other key text\n";
    }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TableCache, ListReportsEntriesAndPurgeRemovesThem) {
  const ScratchDir dir("rlcx_cache_list");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path);
  build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt, cache);
  const std::vector<TableCache::Entry> entries = cache.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id.size(), 16u);
  EXPECT_EQ(entries[0].layer, 6);
  EXPECT_EQ(entries[0].planes, geom::PlaneConfig::kNone);
  EXPECT_EQ(entries[0].frequency, opt.frequency);
  EXPECT_GT(entries[0].bytes, 0u);

  EXPECT_EQ(cache.purge(), 1u);
  EXPECT_TRUE(cache.list().empty());
  // Purge also removes the key sidecars, leaving the directory empty.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path),
                          fs::directory_iterator()), 0);
}

TEST(TableCache, RejectsUnusableDirectory) {
  EXPECT_THROW(TableCache(""), std::invalid_argument);
}

TEST(TableCache, ConcurrentSameKeyStoresNeverTearTheEntry) {
  const ScratchDir dir("rlcx_cache_race");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  TableCache cache(dir.path);
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  // Eight writers hammer the same key.  Pre-fix, same-process writers
  // shared a pid-named temp file and could rename each other's
  // half-written bytes into place; now every store() stages uniquely.
  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i)
    writers.emplace_back([&] {
      for (int r = 0; r < 5; ++r) cache.store(key, built);
    });
  for (std::thread& w : writers) w.join();

  TableCache reader(dir.path, CacheRecoveryPolicy::kStrict);
  const std::optional<InductanceTables> loaded = reader.load(key);
  ASSERT_TRUE(loaded.has_value());  // strict: a torn entry would throw
  ASSERT_EQ(loaded->mutual.values().size(), built.mutual.values().size());
  for (std::size_t i = 0; i < built.mutual.values().size(); ++i)
    EXPECT_EQ(loaded->mutual.values()[i], built.mutual.values()[i]);

  // Every one of the 40 stores was counted, and no staging file survives.
  EXPECT_EQ(cache.stats().bytes_written % 40u, 0u);
  EXPECT_GT(cache.stats().bytes_written, 0u);
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    EXPECT_EQ(de.path().filename().string().find(".tmp."),
              std::string::npos)
        << de.path();
}

// --- store() retry ladder, driven by the deterministic fault injector ---

struct InjectorReset {
  ~InjectorReset() { run::FaultInjector::global().clear(); }
};

TEST(TableCacheRetry, TransientWriteFailureIsRetriedAndCounted) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_retry");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  TableCache cache(dir.path);
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  // First staging write fails once; the retry succeeds silently.
  run::FaultInjector::global().set_schedule("cache_write:1");
  EXPECT_TRUE(cache.store(key, built));
  EXPECT_EQ(cache.stats().write_retries, 1u);
  EXPECT_EQ(cache.stats().stores_dropped, 0u);

  // The entry is whole: a strict reader accepts it.
  TableCache reader(dir.path, CacheRecoveryPolicy::kStrict);
  EXPECT_TRUE(reader.load(key).has_value());
}

TEST(TableCacheRetry, PersistentFailureDegradesToWarnAndSkipUnderRecover) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_retry_drop");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  TableCache cache(dir.path);  // kRecover (default)
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  std::vector<diag::Warning> warnings;
  const diag::ScopedWarningHandler handler(
      [&](const diag::Warning& w) { warnings.push_back(w); });
  run::FaultInjector::global().set_schedule("cache_write:1+");  // a full disk
  EXPECT_FALSE(cache.store(key, built));
  EXPECT_EQ(cache.stats().write_retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(cache.stats().stores_dropped, 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].category, diag::Category::kCache);
  EXPECT_NE(warnings[0].message.find("re-characterised"), std::string::npos);

  run::FaultInjector::global().clear();
  EXPECT_FALSE(cache.load(key).has_value());  // nothing was published
}

TEST(TableCacheRetry, PersistentFailureThrowsUnderStrict) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_retry_strict");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  TableCache cache(dir.path, CacheRecoveryPolicy::kStrict);
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  run::FaultInjector::global().set_schedule("cache_write:1+");
  EXPECT_THROW(cache.store(key, built), diag::CacheError);
  EXPECT_EQ(cache.stats().stores_dropped, 1u);
}

TEST(TableCacheRetry, InjectedCorruptReadQuarantinesUnderRecover) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_read_inject");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  TableCache cache(dir.path);
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  ASSERT_TRUE(cache.store(key, built));

  std::vector<diag::Warning> warnings;
  const diag::ScopedWarningHandler handler(
      [&](const diag::Warning& w) { warnings.push_back(w); });
  run::FaultInjector::global().set_schedule("cache_read:1");
  EXPECT_FALSE(cache.load(key).has_value());  // treated as corrupt -> miss
  EXPECT_EQ(cache.stats().quarantined, 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].message.find("quarantined"), std::string::npos);
}

// --- crash-consistency: new staged-write fault sites + the startup sweep

TEST(TableCacheRetry, ShortWriteAndStagedFaultsAreAbsorbedByTheRetry) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_staged_retry");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  TableCache cache(dir.path);
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  // A torn tmp write, then a failure on the very rename boundary: both
  // transient, both retried, and the published entry is still whole.
  // Attempt 1 dies in the tmp write (so the staged site is never
  // reached); attempt 2 writes whole but fails on the rename boundary;
  // attempt 3 lands.
  run::FaultInjector::global().set_schedule(
      "io_short_write:1,cache_staged:1");
  EXPECT_TRUE(cache.store(key, built));
  EXPECT_EQ(cache.stats().write_retries, 2u);
  EXPECT_GT(cache.stats().fsyncs, 0u);
  TableCache reader(dir.path, CacheRecoveryPolicy::kStrict);
  EXPECT_TRUE(reader.load(key).has_value());
}

TEST(TableCacheRetry, PersistentEnospcDegradesPerPolicy) {
  InjectorReset reset;
  const ScratchDir dir("rlcx_cache_enospc");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  const InductanceTables built =
      build_tables(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);

  run::FaultInjector::global().set_schedule("io_enospc:1+");  // disk full
  {
    std::vector<diag::Warning> warnings;
    diag::ScopedWarningHandler capture(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    TableCache cache(dir.path);
    EXPECT_FALSE(cache.store(key, built));
    EXPECT_EQ(cache.stats().stores_dropped, 1u);
    ASSERT_FALSE(warnings.empty());
  }
  TableCache strict(dir.path, CacheRecoveryPolicy::kStrict);
  EXPECT_THROW(strict.store(key, built), diag::CacheError);
}

TEST(TableCacheSweep, OrphanedStagingFilesAreRemovedAtOpen) {
  const ScratchDir dir("rlcx_cache_sweep_tmp");
  fs::create_directories(dir.path);
  {
    std::ofstream os(dir.path + "/0123456789abcdef.tbl.tmp.1234");
    os << "half a staged entry from a killed writer";
  }
  std::vector<diag::Warning> warnings;
  diag::ScopedWarningHandler capture(
      [&](const diag::Warning& w) { warnings.push_back(w); });
  TableCache cache(dir.path);
  EXPECT_EQ(cache.stats().tmp_swept, 1u);
  EXPECT_EQ(cache.stats().quarantined_at_startup, 0u);
  EXPECT_FALSE(fs::exists(dir.path + "/0123456789abcdef.tbl.tmp.1234"));
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].message.find("staging"), std::string::npos);
}

TEST(TableCacheSweep, TornEntriesAreQuarantinedAtOpen) {
  const ScratchDir dir("rlcx_cache_sweep_torn");
  fs::create_directories(dir.path);
  {
    // Too small and without the RLXB magic: the signature of a torn
    // rename after power loss.
    std::ofstream os(dir.path + "/0123456789abcdef.tbl",
                     std::ios::binary);
    os << "RLX";
  }
  {
    // A healthy-looking foreign file must be left alone: not hex-named.
    std::ofstream os(dir.path + "/README.tbl");
    os << "not an entry";
  }
  std::vector<diag::Warning> warnings;
  diag::ScopedWarningHandler capture(
      [&](const diag::Warning& w) { warnings.push_back(w); });
  TableCache cache(dir.path);
  EXPECT_EQ(cache.stats().quarantined_at_startup, 1u);
  EXPECT_FALSE(fs::exists(dir.path + "/0123456789abcdef.tbl"));
  EXPECT_TRUE(fs::exists(dir.path + "/README.tbl"));
  ASSERT_FALSE(warnings.empty());
}

TEST(TableCacheSweep, TornEntriesFailLoudlyAtOpenUnderStrict) {
  const ScratchDir dir("rlcx_cache_sweep_strict");
  fs::create_directories(dir.path);
  {
    std::ofstream os(dir.path + "/0123456789abcdef.tbl",
                     std::ios::binary);
    os << "RLX";
  }
  EXPECT_THROW(TableCache(dir.path, CacheRecoveryPolicy::kStrict),
               diag::CacheError);
}

TEST(TableCacheSweep, HealthyEntriesSurviveTheSweep) {
  const ScratchDir dir("rlcx_cache_sweep_ok");
  const geom::Technology tech = geom::Technology::generic_025um();
  const TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();
  const std::string key =
      TableCache::key_text(tech, 6, geom::PlaneConfig::kNone, grid, opt);
  {
    TableCache cache(dir.path);
    cache.store(key, build_tables(tech, 6, geom::PlaneConfig::kNone, grid,
                                  opt));
    EXPECT_GE(cache.stats().fsyncs, 2u);  // staged file + directory
  }
  TableCache reopened(dir.path);
  EXPECT_EQ(reopened.stats().quarantined_at_startup, 0u);
  EXPECT_EQ(reopened.stats().tmp_swept, 0u);
  EXPECT_TRUE(reopened.load(key).has_value());
}

}  // namespace
}  // namespace rlcx::core
