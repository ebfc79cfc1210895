// Fault-injection harness: deliberately break inputs, caches and numerics
// and verify every failure surfaces as a categorized, diagnosable report —
// quarantine-and-rebuild for cache corruption, and `numeric` errors naming
// the poisoned table / diverging node / singular column.  Zero aborts, zero
// silent garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ckt/transient.h"
#include "core/inductance_model.h"
#include "core/table_builder.h"
#include "core/table_cache.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "geom/technology.h"
#include "numeric/units.h"
#include "run/fault_injection.h"
#include "support/lu_reference.h"
#include "support/scratch_dir.h"

namespace rlcx {
namespace {

namespace fs = std::filesystem;
using units::um;

// ---- Cache corruption ------------------------------------------------

using testing::ScratchDir;

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

// Rewrites the single .tbl entry in `dir` through `mutate(bytes)`.
void corrupt_entry(const std::string& dir,
                   const std::function<void(std::string&)>& mutate) {
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    if (de.path().extension() != ".tbl") continue;
    std::ifstream in(de.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    mutate(bytes);
    std::ofstream out(de.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

// Every corruption mode — truncation, header damage, version skew and a
// NaN-poisoned payload — must be quarantined and transparently rebuilt.
TEST(FaultInjectionCache, CorruptEntriesAreQuarantinedAndRebuilt) {
  const ScratchDir dir("rlcx_fault_cache");
  const geom::Technology tech = geom::Technology::generic_025um();
  const core::TableGrid grid = tiny_grid();
  const solver::SolveOptions opt = fast_options();

  const std::vector<
      std::pair<const char*, std::function<void(std::string&)>>>
      modes{
          {"truncated", [](std::string& b) { b.resize(b.size() / 3); }},
          {"bad magic", [](std::string& b) { b[0] = 'X'; }},
          {"future version", [](std::string& b) { b[4] = 99; }},
          {"NaN payload",
           [](std::string& b) {
             const double nan = std::numeric_limits<double>::quiet_NaN();
             std::memcpy(b.data() + b.size() - sizeof nan, &nan, sizeof nan);
           }},
      };

  core::TableCache cache(dir.path);  // kRecover: the default policy
  core::build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, opt,
                            cache);
  std::size_t expected_quarantines = 0;
  for (const auto& [label, mutate] : modes) {
    corrupt_entry(dir.path, mutate);
    std::vector<diag::Warning> warnings;
    core::BuildStats stats;
    {
      const diag::ScopedWarningHandler capture(
          [&](const diag::Warning& w) { warnings.push_back(w); });
      // Never aborts, never throws: the corrupt entry reads as a miss and
      // the tables are re-characterised from scratch.
      core::build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid,
                                opt, cache, &stats);
    }
    EXPECT_GT(stats.solves, 0u) << label;
    EXPECT_EQ(cache.stats().quarantined, ++expected_quarantines) << label;
    ASSERT_EQ(warnings.size(), 1u) << label;
    EXPECT_EQ(warnings[0].category, diag::Category::kCache) << label;
    EXPECT_NE(warnings[0].message.find("quarantined"), std::string::npos)
        << label;
  }
  // The evidence is preserved on disk (entry + key sidecar; a repeat
  // incident on the same entry overwrites the previous pair), and purge()
  // sweeps it along with the live entry.
  std::size_t quarantine_files = 0;
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".quarantine") ++quarantine_files;
  EXPECT_EQ(quarantine_files, 2u);
  cache.purge();
  EXPECT_TRUE(fs::is_empty(dir.path));
}

// ---- Poisoned table bundles ------------------------------------------

core::InductanceTables small_bundle() {
  core::InductanceTables t;
  t.layer = 6;
  t.planes = geom::PlaneConfig::kNone;
  t.frequency = 1e9;
  const std::vector<double> ax{1.0, 2.0};
  t.self = core::NdTable({"width", "length"}, {ax, ax}, {1, 2, 3, 4});
  std::vector<double> mv(16, 0.5);
  t.mutual = core::NdTable({"w1", "w2", "s", "l"}, {ax, ax, ax, ax}, mv);
  t.series_r = core::NdTable({"width", "length"}, {ax, ax}, {5, 6, 7, 8});
  return t;
}

TEST(FaultInjectionTables, NaNPoisonedBundleNamesTheTable) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  small_bundle().save(ss);
  std::string blob = ss.str();
  // The bundle's tail is the series-R value block; poison its last double.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(blob.data() + blob.size() - sizeof nan, &nan, sizeof nan);
  std::stringstream bad(blob, std::ios::in | std::ios::binary);
  try {
    core::InductanceTables::load(bad);
    FAIL() << "NaN payload must be rejected";
  } catch (const diag::NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("table 'series-R'"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.category(), diag::Category::kNumeric);
  }
}

TEST(FaultInjectionTables, TruncatedBundleIsAnIoError) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  small_bundle().save(ss);
  const std::string blob = ss.str();
  std::stringstream cut(blob.substr(0, blob.size() - 7),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(core::InductanceTables::load(cut), diag::IoError);
}

// ---- Singular linear systems -----------------------------------------

TEST(FaultInjectionLu, SingularSystemNamesColumnAndCondition) {
  // Column 1 is identically zero: elimination must fail there, not at the
  // end, and the report carries the breakdown column and system size.
  Matrix<double> a{{1.0, 0.0, 2.0}, {3.0, 0.0, 4.0}, {5.0, 0.0, 6.0}};
  try {
    LuDecomposition<double> lu(a);
    FAIL() << "singular matrix must be rejected";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.column(), 1u);
    EXPECT_EQ(e.dimension(), 3u);
    EXPECT_TRUE(std::isinf(e.condition_estimate()));
    EXPECT_NE(std::string(e.what()).find("zero pivot at column 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjectionLu, NonFinitePivotIsCategorized) {
  Matrix<double> a{{1.0, 2.0},
                   {std::numeric_limits<double>::quiet_NaN(), 3.0}};
  EXPECT_THROW(LuDecomposition<double> lu(a), diag::SingularSystem);
}

TEST(FaultInjectionLu, ConditionEstimateTracksPivotSpread) {
  Matrix<double> a{{1.0, 0.0}, {0.0, 1e-12}};
  const LuDecomposition<double> lu(a);
  EXPECT_NEAR(lu.condition_estimate(), 1e12, 1e9);
}

// ---- Diverging transients --------------------------------------------

TEST(FaultInjectionTransient, DivergenceGuardNamesStepAndNode) {
  // A perfectly healthy 1.8 V ramp against an (artificially tight) 0.5 V
  // bound: the march must halt the moment 'in' crosses it, naming the
  // step, the time and the node — not run to completion on garbage.
  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node("in");
  const ckt::NodeId out = nl.add_node("out");
  nl.add_vsource(in, ckt::kGround, ckt::SourceWaveform::ramp(1.8, 1e-9));
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, ckt::kGround, 1e-12);

  ckt::TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-12;
  opt.divergence_limit = 0.5;
  try {
    ckt::simulate(nl, opt);
    FAIL() << "the guard must halt the march";
  } catch (const diag::NumericError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 'in'"), std::string::npos) << what;
    EXPECT_NE(what.find("at step"), std::string::npos) << what;
    EXPECT_NE(what.find("divergence_limit"), std::string::npos) << what;
  }
  // The same circuit with the default (1 kV) limit completes normally.
  opt.divergence_limit = 1e3;
  EXPECT_NO_THROW(ckt::simulate(nl, opt));
}

}  // namespace
}  // namespace rlcx
