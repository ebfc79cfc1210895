// E8 — the headline efficiency claim: table lookup replaces a field solve
// per block.  Plain steady_clock timings for both paths, plus the table
// build cost they amortise and the downstream netlist/simulation stages.
//
// Each measurement repeats its operation until kMinSeconds of wall time
// have passed (at least once) and prints the mean time per operation and
// the repetition count.
#include <chrono>
#include <cstddef>
#include <cstdio>

#include "ckt/transient.h"
#include "core/netlist_builder.h"
#include "core/rlc_extractor.h"
#include "core/table_builder.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "solver/frequency.h"

using namespace rlcx;
using units::um;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMinSeconds = 0.5;

/// Keeps `value` observable so the timed call cannot be optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Runs `op` until kMinSeconds have passed and prints its mean wall time.
template <typename Op>
void measure(const char* name, Op op) {
  std::size_t reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < kMinSeconds);
  const double per_op = elapsed / static_cast<double>(reps);
  if (per_op < 1e-3)
    std::printf("%-36s %12.3f us %10zu\n", name, per_op * 1e6, reps);
  else
    std::printf("%-36s %12.3f ms %10zu\n", name, per_op * 1e3, reps);
}

const geom::Technology& tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

solver::SolveOptions solve_options() {
  solver::SolveOptions o;
  o.frequency = solver::significant_frequency(100e-12);
  return o;
}

core::TableGrid grid_of(std::size_t n) {
  core::TableGrid grid;
  grid.widths = geomspace(um(1.5), um(16), n);
  grid.spacings = geomspace(um(0.5), um(8), n);
  grid.lengths = geomspace(um(200), um(4000), n);
  return grid;
}

/// Sweeps the first width over [3, 14) um so no two consecutive queries
/// repeat (defeats any caching).
double next_width(double w) { return w < um(14) ? w + um(0.01) : um(3); }

}  // namespace

int main() {
  std::printf("E8: table lookup vs per-block field solve "
              "(steady_clock, mean over >= %.1f s per row)\n\n",
              kMinSeconds);
  std::printf("%-36s %15s %10s\n", "measurement", "time/op", "reps");

  const core::TableInductanceModel table(core::build_tables(
      tech(), 6, geom::PlaneConfig::kNone, grid_of(4), solve_options()));

  double w = um(3);
  measure("table lookup (mutual)", [&] {
    keep(table.mutual(w, um(5), um(1.3), um(1234)));
    w = next_width(w);
  });

  const core::DirectInductanceModel direct(&tech(), 6,
                                           geom::PlaneConfig::kNone,
                                           solve_options());
  w = um(3);
  measure("direct solve (mutual)", [&] {
    keep(direct.mutual(w, um(5), um(1.3), um(1234)));
    w = next_width(w);
  });

  const core::DirectInductanceModel over_plane(&tech(), 6,
                                               geom::PlaneConfig::kBelow,
                                               solve_options());
  w = um(3);
  measure("direct solve (mutual, over plane)", [&] {
    keep(over_plane.mutual(w, um(5), um(1.3), um(1234)));
    w = next_width(w);
  });

  for (const std::size_t n : {std::size_t{2}, std::size_t{3}}) {
    const core::TableGrid grid = grid_of(n);
    char name[64];
    std::snprintf(name, sizeof name, "table build n=%zu (%zu entries)", n,
                  n * n * n * n + n * n);
    measure(name, [&] {
      keep(core::build_tables(tech(), 6, geom::PlaneConfig::kNone, grid,
                              solve_options()));
    });
  }

  const geom::Block segment =
      geom::coplanar_waveguide(tech(), 6, um(1500), um(6), um(6), um(1));
  measure("segment extraction (table)",
          [&] { keep(core::extract_segment_rlc(segment, table)); });

  const geom::Block net =
      geom::coplanar_waveguide(tech(), 6, um(6000), um(10), um(5), um(1));
  const core::SegmentRlc seg = core::extract_segment_rlc(net, table);
  measure("transient (8-section clock net)", [&] {
    ckt::Netlist nl;
    const ckt::NodeId vin = nl.add_node();
    const ckt::NodeId buf = nl.add_node();
    nl.add_vsource(vin, ckt::kGround,
                   ckt::SourceWaveform::ramp(1.8, 100e-12));
    nl.add_resistor(vin, buf, 40.0);
    core::LadderOptions lopt;
    lopt.sections = 8;
    const auto outs = core::stamp_segment(nl, net, seg, {buf}, lopt);
    nl.add_capacitor(outs[0], ckt::kGround, 50e-15);
    ckt::TransientOptions topt;
    topt.t_stop = 1e-9;
    topt.dt = 1e-12;
    keep(ckt::simulate(nl, topt));
  });
  return 0;
}
