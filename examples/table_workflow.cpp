// Table workflow: pre-characterise inductance tables with the field solver,
// persist them, reload, and compare spline lookups against direct solves —
// the complete Section III flow — then the persistent-cache version that
// makes the expensive step a one-time cost across processes.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/table_cache.h"
#include "numeric/units.h"
#include "solver/frequency.h"

using namespace rlcx;
using units::um;

int main() {
  const geom::Technology tech = geom::Technology::generic_025um();

  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(100e-12);

  // A compact grid keeps this example fast; production tables just use a
  // denser TableGrid.
  core::TableGrid grid;
  grid.widths = geomspace(um(2), um(16), 4);
  grid.spacings = geomspace(um(0.5), um(8), 4);
  grid.lengths = geomspace(um(250), um(4000), 4);

  std::printf("building coplanar (partial-L) tables: %zux%zux%zu grid...\n",
              grid.widths.size(), grid.spacings.size(), grid.lengths.size());
  const core::InductanceTables tables = core::build_tables(
      tech, 6, geom::PlaneConfig::kNone, grid, sopt);

  // Persist and reload the RLXB bundle (round-trip through a stream; a
  // file works the same via save_file/load_file).
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  tables.save(buf);
  const core::TableInductanceModel model(core::InductanceTables::load(buf));
  std::printf("tables saved and reloaded (%zu + %zu entries)\n",
              tables.self.values().size(), tables.mutual.values().size());

  // Off-grid queries vs direct field solves.
  const core::DirectInductanceModel direct(
      &tech, 6, geom::PlaneConfig::kNone, sopt);
  struct Q {
    double w1, w2, s, l;
  };
  const Q queries[] = {
      {um(3), um(3), um(1), um(1000)},
      {um(10), um(5), um(1), um(3000)},
      {um(6), um(12), um(3), um(500)},
  };
  std::printf("\n%-34s %12s %12s %8s\n", "query (w1,w2,s,l um)",
              "table nH", "solver nH", "err %");
  for (const Q& q : queries) {
    const double mt = model.mutual(q.w1, q.w2, q.s, q.l);
    const double md = direct.mutual(q.w1, q.w2, q.s, q.l);
    std::printf("M  (%4.1f,%4.1f,%4.1f,%6.0f)        %12.4f %12.4f %7.2f\n",
                units::to_um(q.w1), units::to_um(q.w2), units::to_um(q.s),
                units::to_um(q.l), units::to_nh(mt), units::to_nh(md),
                100.0 * (mt - md) / md);
    const double st = model.self(q.w1, q.l);
    const double sd = direct.self(q.w1, q.l);
    std::printf("L  (%4.1f,          %6.0f)        %12.4f %12.4f %7.2f\n",
                units::to_um(q.w1), units::to_um(q.l), units::to_nh(st),
                units::to_nh(sd), 100.0 * (st - sd) / sd);
  }
  std::printf("\nSection III claim: reduction to 1-/2-trace subproblems "
              "loses no accuracy;\nresidual error is spline interpolation "
              "only.\n");

  // The cache-first flow: identical inputs hit the on-disk entry and skip
  // every field solve (docs/table-format.md documents the key recipe).
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "rlcx_example_cache")
          .string();
  core::TableCache cache(cache_dir);
  cache.purge();
  core::build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, sopt,
                            cache);
  core::BuildStats warm;
  core::build_tables_cached(tech, 6, geom::PlaneConfig::kNone, grid, sopt,
                            cache, &warm);
  std::printf("\ntable cache %s: %zu hit(s), %zu miss(es), warm rebuild "
              "ran %zu solves\n",
              cache_dir.c_str(), cache.stats().hits, cache.stats().misses,
              warm.solves);
  return 0;
}
