// Cold vs warm table pre-characterisation through the persistent cache.
//
// Section III's premise is that the field-solver sweep ("a few hours" in
// the paper, against Raphael RI3) is paid once and every later extraction
// is a lookup.  This bench quantifies our version of that premise: build
// the default clock grid cold (every 2-trace PEEC solve runs), then again
// warm through the on-disk cache (zero solves, one binary read), and
// report the gap.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/table_cache.h"
#include "geom/technology.h"
#include "numeric/units.h"
#include "solver/frequency.h"

using namespace rlcx;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rlcx_bench_cache")
          .string();
  const geom::Technology tech = geom::Technology::generic_025um();
  const core::TableGrid grid = core::default_clock_grid();
  solver::SolveOptions opt;
  opt.frequency = solver::significant_frequency(200e-12);

  std::printf("table cache cold/warm, default_clock_grid "
              "(%zu x %zu x %zu), coplanar partial-L, f = %.2f GHz\n\n",
              grid.widths.size(), grid.spacings.size(),
              grid.lengths.size(), units::to_ghz(opt.frequency));

  core::TableCache cache(dir);
  cache.purge();  // a true cold start even across bench re-runs

  core::BuildStats stats;
  auto t0 = std::chrono::steady_clock::now();
  const core::InductanceTables cold = core::build_tables_cached(
      tech, 6, geom::PlaneConfig::kNone, grid, opt, cache, &stats);
  const double cold_ms = ms_since(t0);
  const std::size_t cold_solves = stats.solves;

  // Warm: a fresh cache instance on the same directory, as a new process
  // would see it.  Best of five to report steady-state lookup cost.
  double warm_ms = 1e300;
  std::size_t warm_solves = 0;
  for (int rep = 0; rep < 5; ++rep) {
    core::TableCache warm_cache(dir);
    t0 = std::chrono::steady_clock::now();
    const core::InductanceTables warm = core::build_tables_cached(
        tech, 6, geom::PlaneConfig::kNone, grid, opt, warm_cache, &stats);
    warm_ms = std::min(warm_ms, ms_since(t0));
    warm_solves = stats.solves;
    if (warm.mutual.values() != cold.mutual.values()) {
      std::printf("ERROR: warm tables differ from cold build\n");
      return 1;
    }
  }

  std::uint64_t entry_bytes = 0;
  for (const core::TableCache::Entry& e : cache.list())
    entry_bytes += e.bytes;

  std::printf("%-28s %12s %12s\n", "", "cold", "warm");
  std::printf("%-28s %12.1f %12.3f\n", "build_tables_cached [ms]", cold_ms,
              warm_ms);
  std::printf("%-28s %12zu %12zu\n", "PEEC field solves", cold_solves,
              warm_solves);
  std::printf("\nwarm/cold speedup: %.0fx  (entry: %llu bytes on disk)\n",
              cold_ms / warm_ms,
              static_cast<unsigned long long>(entry_bytes));
  std::printf("paper analogue: 'a few hours' of RI3 pre-computation, "
              "reusable ever after;\nhere the reusable asset is a "
              "content-addressed cache entry, so any change to\nthe "
              "technology stack, grid or frequency re-characterises "
              "automatically.\n");
  return 0;
}
