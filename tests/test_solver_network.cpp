// Tests for the general PEEC network (MNA) solver.
#include <gtest/gtest.h>

#include <cmath>

#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/partial_inductance.h"
#include "solver/block_solver.h"
#include "solver/network.h"
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

}  // namespace
}  // namespace rlcx::solver
