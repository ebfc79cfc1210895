// Tests for the general PEEC network solver, pinned to the KKT oracle
// (tests/support/network_reference.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "diag/error.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/partial_inductance.h"
#include "res/budget.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "solver/block_solver.h"
#include "solver/frequency.h"
#include "solver/network.h"
#include "support/network_reference.h"
#include "support/partial_reference.h"

namespace rlcx::solver {
namespace {

using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

peec::Bar bar_at(double x_left, double w, double l, double y0 = 0.0) {
  peec::Bar b;
  b.axis = peec::Axis::kY;
  b.a_min = y0;
  b.length = l;
  b.t_min = x_left;
  b.t_width = w;
  b.z_min = tech().layer(6).z_bottom;
  b.z_thick = tech().layer(6).thickness;
  return b;
}

constexpr double kRho = 2e-8;
constexpr double kLowF = 1e6;

/// Largest |a - b| over the entries, relative to the largest |b|.
double max_rel_diff(const ComplexMatrix& a, const ComplexMatrix& b) {
  double scale = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      scale = std::max(scale, std::abs(b(i, j)));
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  return worst / scale;
}

/// One Table I branch: a signal between its two shields, w = s = 1.2 um.
struct TreeSegment {
  peec::Axis axis;
  double a0, len, t_center;
  int from_sig, from_gnd, to_sig, to_gnd;
};

/// The nodes of a Table I tree: (signal, ground) at a, b, c, d, and the
/// shorted far ends e and f.
struct TreeNodes {
  int as, ag, bs, bg, cs, cg, ds, dg, e, f;
  explicit TreeNodes(Network& net)
      : as(net.add_node()), ag(net.add_node()), bs(net.add_node()),
        bg(net.add_node()), cs(net.add_node()), cg(net.add_node()),
        ds(net.add_node()), dg(net.add_node()), e(net.add_node()),
        f(net.add_node()) {}
};

void add_tree(Network& net, const std::vector<TreeSegment>& segs) {
  const double w = 1.2e-6, pitch = 2.4e-6;
  peec::MeshOptions mesh;
  mesh.nw = 2;
  mesh.nt = 2;
  for (const TreeSegment& s : segs) {
    auto bar = [&](double t_off) {
      peec::Bar b;
      b.axis = s.axis;
      b.a_min = s.a0;
      b.length = s.len;
      b.t_min = s.t_center + t_off - 0.5 * w;
      b.t_width = w;
      b.z_min = tech().layer(6).z_bottom;
      b.z_thick = tech().layer(6).thickness;
      return b;
    };
    const double rho = tech().layer(6).rho;
    net.add_segment(s.from_sig, s.to_sig, bar(0.0), rho, mesh);
    net.add_segment(s.from_gnd, s.to_gnd, bar(-pitch), rho, mesh);
    net.add_segment(s.from_gnd, s.to_gnd, bar(pitch), rho, mesh);
  }
}

/// The two trees of Table I (bench_table1_cascading, E3): tree (a) with
/// close-by parallel branches, tree (b) with a perpendicular jog.  The
/// root port is (nodes.as, nodes.ag).
struct TableOneTree {
  Network net;
  TreeNodes nodes{net};
};

TableOneTree table_one_tree(bool tree_b) {
  TableOneTree t;
  const TreeNodes& n = t.nodes;
  const peec::Axis y = peec::Axis::kY;
  if (!tree_b)
    add_tree(t.net, {{y, 0.0, um(100), 0.0, n.as, n.ag, n.bs, n.bg},
                     {y, um(100), um(150), -um(4), n.bs, n.bg, n.cs, n.cg},
                     {y, um(250), um(250), -um(4), n.cs, n.cg, n.e, n.e},
                     {y, um(100), um(250), um(4), n.bs, n.bg, n.ds, n.dg},
                     {y, um(350), um(100), um(4), n.ds, n.dg, n.f, n.f}});
  else
    add_tree(t.net,
             {{y, 0.0, um(600), 0.0, n.as, n.ag, n.bs, n.bg},
              {y, um(600), um(300), -um(4), n.bs, n.bg, n.cs, n.cg},
              {peec::Axis::kX, -um(12), um(20), um(910), n.cs, n.cg, n.ds,
               n.dg},
              {y, um(910), um(600), -um(24), n.ds, n.dg, n.e, n.e},
              {y, um(600), um(600), um(4), n.bs, n.bg, n.f, n.f}});
  return t;
}

TEST(Network, TwoWireLoopMatchesAnalyticCombination) {
  // Go and return bars: Zloop = R1 + R2 + jw (L1 + L2 - 2 M).
  Network net;
  const int a = net.add_node();
  const int c = net.add_node();
  const int b = net.add_node();
  const peec::Bar go = bar_at(0.0, um(4), um(1000));
  const peec::Bar ret = bar_at(um(10), um(4), um(1000));
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;
  net.add_segment(a, c, go, kRho, m1, true);
  net.add_segment(c, b, ret, kRho, m1, false);  // current flows back (-y)

  const auto lz = net.loop_impedance(a, b, kLowF);
  const double l1 = peec::self_partial(go);
  const double l2 = peec::self_partial(ret);
  const double m = peec::mutual_partial(go, ret);
  const double expect_l = l1 + l2 - 2.0 * m;
  EXPECT_NEAR(lz.inductance, expect_l, 1e-6 * expect_l);
  const double expect_r = 2.0 * peec::bar_resistance(go, kRho);
  EXPECT_NEAR(lz.resistance, expect_r, 1e-6 * expect_r);
}

TEST(Network, MatchesBlockSolverOnGsg) {
  // The same G-S-G structure through the MNA path and through the Schur
  // reduction of extract_loop must agree to solver precision.
  const auto blk = geom::coplanar_waveguide(tech(), 6, um(1000), um(10),
                                            um(5), um(1));
  SolveOptions opt;
  opt.frequency = kLowF;
  opt.auto_mesh = false;
  opt.mesh.nw = 2;
  opt.mesh.nt = 2;
  const LoopResult ref = extract_loop(blk, opt);

  Network net;
  const int sig_near = net.add_node();
  const int gnd_near = net.add_node();
  const int far = net.add_node();
  for (std::size_t i = 0; i < blk.size(); ++i) {
    const geom::Trace& t = blk.trace(i);
    const peec::Bar bar = bar_at(t.x_left(), t.width, blk.length());
    const int from = t.role == geom::TraceRole::kSignal ? sig_near : gnd_near;
    net.add_segment(from, far, bar, tech().layer(6).rho, opt.mesh);
  }
  const auto lz = net.loop_impedance(sig_near, gnd_near, kLowF);
  EXPECT_NEAR(lz.inductance, ref.inductance(0, 0),
              1e-6 * ref.inductance(0, 0));
  EXPECT_NEAR(lz.resistance, ref.resistance(0, 0),
              1e-6 * ref.resistance(0, 0));
}

TEST(Network, SplittingSegmentsIsInvariant) {
  // Cutting every conductor at its midpoint must not change the loop
  // impedance: partial inductance decomposes exactly over series segments.
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;

  auto build = [&](bool split) {
    Network net;
    const int a = net.add_node();
    const int b = net.add_node();
    const double l = um(800);
    if (!split) {
      const int far = net.add_node();
      net.add_segment(a, far, bar_at(0.0, um(2), l), kRho, m1, true);
      net.add_segment(far, b, bar_at(um(8), um(2), l), kRho, m1, false);
    } else {
      const int mid_s = net.add_node();
      const int far = net.add_node();
      const int mid_g = net.add_node();
      net.add_segment(a, mid_s, bar_at(0.0, um(2), l / 2), kRho, m1, true);
      net.add_segment(mid_s, far, bar_at(0.0, um(2), l / 2, l / 2), kRho, m1,
                      true);
      net.add_segment(far, mid_g, bar_at(um(8), um(2), l / 2, l / 2), kRho,
                      m1, false);
      net.add_segment(mid_g, b, bar_at(um(8), um(2), l / 2), kRho, m1, false);
    }
    return net.loop_impedance(a, b, kLowF);
  };

  const auto whole = build(false);
  const auto split = build(true);
  EXPECT_NEAR(split.inductance, whole.inductance, 1e-6 * whole.inductance);
  EXPECT_NEAR(split.resistance, whole.resistance, 1e-6 * whole.resistance);
}

TEST(Network, TieMergesNodes) {
  Network net;
  const int a = net.add_node();
  const int b = net.add_node();
  const int c = net.add_node();
  const int d = net.add_node();
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;
  net.add_segment(a, c, bar_at(0.0, um(2), um(500)), kRho, m1, true);
  net.add_segment(d, b, bar_at(um(8), um(2), um(500)), kRho, m1, false);
  net.tie(c, d);  // join the far ends
  const auto lz = net.loop_impedance(a, b, kLowF);
  EXPECT_GT(lz.inductance, 0.0);
  EXPECT_GT(lz.resistance, 0.0);
}

TEST(Network, ParallelReturnHalvesReturnContribution) {
  // One signal with two symmetric returns: the return resistance halves.
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;

  Network net;
  const int a = net.add_node();
  const int b = net.add_node();
  const int far = net.add_node();
  net.add_segment(a, far, bar_at(-um(1), um(2), um(1000)), kRho, m1, true);
  net.add_segment(far, b, bar_at(-um(7), um(2), um(1000)), kRho, m1, false);
  net.add_segment(far, b, bar_at(um(5), um(2), um(1000)), kRho, m1, false);
  const auto lz = net.loop_impedance(a, b, kLowF);
  const double r1 = peec::bar_resistance(bar_at(0, um(2), um(1000)), kRho);
  EXPECT_NEAR(lz.resistance, r1 + 0.5 * r1, 1e-6 * r1);
}

TEST(Network, MultiportSymmetric) {
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;
  Network net;
  const int p1 = net.add_node();
  const int p2 = net.add_node();
  const int g = net.add_node();
  const int far = net.add_node();
  net.add_segment(p1, far, bar_at(0.0, um(2), um(600)), kRho, m1);
  net.add_segment(p2, far, bar_at(um(6), um(2), um(600)), kRho, m1);
  net.add_segment(g, far, bar_at(um(12), um(2), um(600)), kRho, m1);
  const auto z = net.port_impedance({{p1, g}, {p2, g}}, kLowF);
  EXPECT_NEAR(z(0, 1).imag(), z(1, 0).imag(),
              1e-9 * std::abs(z(0, 0).imag()));
  EXPECT_GT(z(0, 0).imag(), 0.0);
  EXPECT_GT(z(1, 1).imag(), 0.0);
}

TEST(Network, ErrorPaths) {
  Network net;
  EXPECT_THROW(net.loop_impedance(0, 1, kLowF), std::out_of_range);
  const int a = net.add_node();
  const int b = net.add_node();
  peec::MeshOptions m1;
  EXPECT_THROW(net.add_segment(a, a, bar_at(0, um(2), um(10)), kRho, m1),
               std::invalid_argument);
  net.add_segment(a, b, bar_at(0, um(2), um(10)), kRho, m1);
  EXPECT_THROW(net.loop_impedance(a, a, kLowF), std::invalid_argument);
  EXPECT_THROW(net.loop_impedance(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(net.port_impedance({}, kLowF), std::invalid_argument);
}

TEST(Network, MatchesKktOracleOnTableOneTrees) {
  // The nodal reduction against the KKT formulation it replaced, on the
  // E3 trees at the significant frequency of a 100 ps edge: junctions,
  // shorted far ends, a perpendicular jog and 60 filaments over 9 nodes.
  const double freq = significant_frequency(100e-12);
  for (const bool tree_b : {false, true}) {
    const TableOneTree t = table_one_tree(tree_b);
    const std::vector<std::pair<int, int>> port{{t.nodes.as, t.nodes.ag}};
    const ComplexMatrix z = t.net.port_impedance(port, freq);
    const ComplexMatrix want = kkt_port_impedance(t.net, port, freq);
    EXPECT_LE(max_rel_diff(z, want), 1e-9) << "tree " << (tree_b ? 'b' : 'a');
  }
}

TEST(Network, MatchesKktOracleMultiport) {
  // Three ports on tree (a) — the root, the junction c of branch 1, and
  // branch 2's signal at d against the root ground (the reference): the
  // full 3x3 matrix, transfer terms included, must match, and the nodal
  // reduction returns it exactly symmetric.
  const TableOneTree t = table_one_tree(false);
  const TreeNodes& n = t.nodes;
  const std::vector<std::pair<int, int>> ports{
      {n.as, n.ag}, {n.cs, n.cg}, {n.ds, n.ag}};
  const ComplexMatrix z = t.net.port_impedance(ports, kLowF);
  const ComplexMatrix want = kkt_port_impedance(t.net, ports, kLowF);
  EXPECT_LE(max_rel_diff(z, want), 1e-9);
  for (std::size_t i = 0; i < ports.size(); ++i)
    for (std::size_t j = 0; j < ports.size(); ++j)
      EXPECT_EQ(z(i, j), z(j, i));
}

TEST(Network, SolveOverBudgetIsRefused) {
  // The network solve reserves the solver-dense budget like any impedance
  // solve: a budget with room for the partial-inductance fill alone, not
  // for the factorisation behind it, is a typed refusal, not an OOM.
  const TableOneTree t = table_one_tree(false);
  res::Budget& budget = res::Budget::global();
  const std::uint64_t saved = budget.limit();
  budget.set_limit(budget.in_use() +
                   peec::estimate_fill_bytes(t.net.filament_count()));
  try {
    (void)t.net.loop_impedance(t.nodes.as, t.nodes.ag, kLowF);
    ADD_FAILURE() << "expected ResourceExhaustedError";
  } catch (const diag::ResourceExhaustedError& e) {
    EXPECT_EQ(e.stage(), "solver-dense");
  }
  budget.set_limit(saved);
}

TEST(Network, CancelSiteUnwindsTheSolve) {
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } injector_reset;
  const TableOneTree t = table_one_tree(false);
  run::CancelToken token;
  run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
  run::FaultInjector::global().set_schedule("cancel:1");
  EXPECT_THROW((void)t.net.loop_impedance(t.nodes.as, t.nodes.ag, kLowF),
               diag::CancelledError);
  EXPECT_EQ(run::FaultInjector::global().triggered("cancel"), 1u);
}

}  // namespace
}  // namespace rlcx::solver
