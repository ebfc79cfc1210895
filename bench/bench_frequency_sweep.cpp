// A1 (ablation) — frequency dependence: skin/proximity effect on the
// Figure 1 net and the driving-point impedance the clock buffer sees.
//
// The paper runs its extractor at the significant frequency 0.32/t_r
// because "the inductance depends on the skin depth, which is a function
// of frequency".  This bench shows that dependence explicitly — the
// R(f)/L(f) curves a FastHenry-class solver produces — and how much the
// single-frequency table approximation matters across rise times.
#include <cstdio>
#include <complex>

#include "ckt/ac.h"
#include "core/inductance_model.h"
#include "core/netlist_builder.h"
#include "core/rlc_extractor.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/mesh.h"
#include "solver/block_solver.h"
#include "solver/frequency.h"

using namespace rlcx;
using units::um;

int main() {
  std::printf("=== A1 / ablation: frequency-dependent extraction ===\n\n");
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::Block net =
      geom::coplanar_waveguide(tech, 6, um(2000), um(10), um(5), um(1));

  std::printf("loop R and L of a 2000 um Figure-1 section vs frequency:\n");
  std::printf("%12s %12s %12s %14s %16s\n", "f (GHz)", "R (ohm)", "L (nH)",
              "skin depth um", "t_rise equiv ps");
  for (double f : {0.05e9, 0.2e9, 0.8e9, 1.6e9, 3.2e9, 6.4e9, 12.8e9,
                   25.6e9}) {
    solver::SolveOptions opt;
    opt.frequency = f;
    opt.max_filaments_per_dim = 5;
    const solver::LoopResult r = solver::extract_loop(net, opt);
    std::printf("%12.2f %12.4f %12.4f %14.3f %16.1f\n", units::to_ghz(f),
                r.resistance(0, 0), units::to_nh(r.inductance(0, 0)),
                units::to_um(peec::skin_depth(tech.layer(6).rho, f)),
                units::to_ps(solver::rise_time_for_frequency(f)));
  }
  std::printf("\nR rises and L falls with frequency as current crowds to "
              "the conductor\nedges — why tables are built at the "
              "significant frequency of the design's\nfastest edge, not at "
              "DC.\n");

  // Error of the single-frequency table when the design's rise time moves.
  std::printf("\nsingle-frequency table error vs actual rise time (table "
              "built at 3.2 GHz):\n");
  std::printf("%14s %14s %14s %10s\n", "t_rise (ps)", "L table nH",
              "L at f_sig nH", "err %");
  solver::SolveOptions tab_opt;
  tab_opt.frequency = 3.2e9;
  const double l_table =
      solver::extract_loop(net, tab_opt).inductance(0, 0);
  for (double tr : {50e-12, 100e-12, 200e-12, 400e-12, 800e-12}) {
    solver::SolveOptions opt;
    opt.frequency = solver::significant_frequency(tr);
    opt.max_filaments_per_dim = 5;
    const double l_true = solver::extract_loop(net, opt).inductance(0, 0);
    std::printf("%14.0f %14.4f %14.4f %10.2f\n", units::to_ps(tr),
                units::to_nh(l_table), units::to_nh(l_true),
                100.0 * (l_table - l_true) / l_true);
  }

  // Driving-point impedance of the full RLC netlist vs the RC netlist.
  std::printf("\n|Z_in(f)| seen by the clock buffer (6000 um net):\n");
  const geom::Block full =
      geom::coplanar_waveguide(tech, 6, um(6000), um(10), um(5), um(1));
  solver::SolveOptions sopt;
  sopt.frequency = 1.6e9;
  const core::DirectInductanceModel lmodel(&tech, 6,
                                           geom::PlaneConfig::kNone, sopt);
  const core::SegmentRlc seg = core::extract_segment_rlc(full, lmodel);

  auto build = [&](bool with_l) {
    ckt::Netlist nl;
    const ckt::NodeId in = nl.add_node("in");
    core::LadderOptions lopt;
    lopt.sections = 10;
    lopt.include_inductance = with_l;
    const auto outs = core::stamp_segment(nl, full, seg, {in}, lopt);
    nl.add_capacitor(outs[0], ckt::kGround, 200e-15);
    return nl;
  };
  const ckt::Netlist rlc = build(true);
  const ckt::Netlist rc = build(false);

  std::printf("%12s %14s %14s\n", "f (GHz)", "|Z| RLC (ohm)",
              "|Z| RC (ohm)");
  for (double f = 0.25e9; f <= 16e9; f *= 2.0) {
    const auto z1 = ckt::ac_input_impedance(rlc, f, rlc.node("in"));
    const auto z0 = ckt::ac_input_impedance(rc, f, rc.node("in"));
    std::printf("%12.2f %14.2f %14.2f\n", units::to_ghz(f), std::abs(z1),
                std::abs(z0));
  }
  std::printf("\nthe RLC input impedance flattens toward the line impedance "
              "and resonates;\nthe RC model keeps falling as 1/(wC) — "
              "another face of Figures 2-3.\n");
  return 0;
}
