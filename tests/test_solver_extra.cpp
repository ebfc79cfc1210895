// Additional solver coverage: stripline, plane options, meshing choices,
// axis isotropy and mixed-orientation networks.
#include <gtest/gtest.h>

#include <cmath>

#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/partial_inductance.h"
#include "solver/block_solver.h"
#include "solver/network.h"
#include "support/network_reference.h"

namespace rlcx::solver {
namespace {

using geom::PlaneConfig;
using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

TEST(Stripline, TwoPlanesBeatOnePlane) {
  // A second return plane above can only lower the loop inductance.
  SolveOptions opt;
  opt.frequency = 3.2e9;
  opt.plane.strips = 9;
  const auto ms = geom::microstrip(tech(), 6, um(1500), um(6), um(6), um(1));
  const auto sl = geom::stripline(tech(), 6, um(1500), um(6), um(6), um(1));
  const double l_ms = extract_loop(ms, opt).inductance(0, 0);
  const double l_sl = extract_loop(sl, opt).inductance(0, 0);
  EXPECT_LT(l_sl, l_ms);
  EXPECT_GT(l_sl, 0.0);
}

TEST(Stripline, PlaneAboveOnlyWorksToo) {
  SolveOptions opt;
  opt.frequency = 3.2e9;
  opt.plane.strips = 9;
  const auto blk = geom::single_trace(tech(), 6, um(1000), um(6),
                                      PlaneConfig::kAbove);
  const LoopResult r = extract_loop(blk, opt);
  EXPECT_GT(r.inductance(0, 0), 0.0);
  EXPECT_GT(r.resistance(0, 0), 0.0);
}

TEST(PlaneOptions, MoreStripsConvergeLoopL) {
  // Refining the plane discretisation must converge: 25 -> 35 strips moves
  // the result far less than 7 -> 13.
  const auto ms = geom::microstrip(tech(), 6, um(1000), um(6), um(6), um(1));
  auto with_strips = [&](int n) {
    SolveOptions opt;
    opt.frequency = 3.2e9;
    opt.plane.strips = n;
    return extract_loop(ms, opt).inductance(0, 0);
  };
  const double l7 = with_strips(7);
  const double l13 = with_strips(13);
  const double l25 = with_strips(25);
  const double l35 = with_strips(35);
  EXPECT_LT(std::abs(l35 - l25), std::abs(l13 - l7) + 1e-15);
  EXPECT_NEAR(l35, l25, 0.02 * l25);
}

TEST(PlaneOptions, MarginFloorRespected) {
  const auto ms = geom::microstrip(tech(), 6, um(1000), um(6), um(6), um(1));
  PlaneOptions popt;
  popt.margin_factor = 0.1;  // absurdly small: the floor must kick in
  popt.min_margin = um(25);
  const auto strips = plane_strips(ms, ms.plane_layer_below(), popt);
  EXPECT_LE(strips.front().t_min, ms.trace(0).x_left() - um(25) + 1e-12);
}

TEST(Meshing, AutoMatchesManualAtLowFrequency) {
  // At 1 MHz the skin depth dwarfs the wires: auto meshing picks a single
  // filament and must equal an explicit 1x1 mesh.
  const auto blk =
      geom::coplanar_waveguide(tech(), 6, um(800), um(6), um(6), um(1));
  SolveOptions autoo;
  autoo.frequency = 1e6;
  SolveOptions manual = autoo;
  manual.auto_mesh = false;
  manual.mesh.nw = 1;
  manual.mesh.nt = 1;
  EXPECT_NEAR(extract_loop(blk, autoo).inductance(0, 0),
              extract_loop(blk, manual).inductance(0, 0), 1e-15);
}

TEST(Meshing, FinerCrossSectionConvergesAtHighFrequency) {
  const auto blk =
      geom::coplanar_waveguide(tech(), 6, um(800), um(10), um(10), um(1));
  auto with_mesh = [&](int n) {
    SolveOptions opt;
    opt.frequency = 10e9;
    opt.auto_mesh = false;
    opt.mesh.nw = n;
    opt.mesh.nt = 2;
    return extract_loop(blk, opt).resistance(0, 0);
  };
  const double r2 = with_mesh(2);
  const double r4 = with_mesh(4);
  const double r6 = with_mesh(6);
  // Refinement changes less and less.
  EXPECT_LT(std::abs(r6 - r4), std::abs(r4 - r2) + 1e-12);
}

TEST(TwoSignalLoop, MatrixShapeAndReciprocity) {
  // Two signals sharing the shields: full 2x2 loop matrix.
  std::vector<geom::Trace> traces{
      {geom::TraceRole::kGround, um(4), -um(9), "gl"},
      {geom::TraceRole::kSignal, um(4), -um(3), "s1"},
      {geom::TraceRole::kSignal, um(4), um(3), "s2"},
      {geom::TraceRole::kGround, um(4), um(9), "gr"},
  };
  const geom::Block blk(&tech(), 6, um(1000), std::move(traces),
                        PlaneConfig::kNone);
  SolveOptions opt;
  opt.frequency = 1e9;
  const LoopResult r = extract_loop(blk, opt);
  ASSERT_EQ(r.inductance.rows(), 2u);
  EXPECT_NEAR(r.inductance(0, 1), r.inductance(1, 0),
              1e-9 * r.inductance(0, 0));
  // Symmetric structure: equal diagonals.
  EXPECT_NEAR(r.inductance(0, 0), r.inductance(1, 1),
              1e-6 * r.inductance(0, 0));
  // Shared return couples the loops positively.
  EXPECT_GT(r.inductance(0, 1), 0.0);
  EXPECT_LT(r.inductance(0, 1), r.inductance(0, 0));
}

TEST(NetworkAxes, XAndYLoopsAreIsotropic) {
  // The same two-wire loop built along x and along y must agree exactly.
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;
  auto loop_along = [&](peec::Axis axis) {
    Network net;
    const int a = net.add_node();
    const int far = net.add_node();
    const int b = net.add_node();
    auto bar = [&](double offset) {
      peec::Bar w;
      w.axis = axis;
      w.length = um(700);
      w.t_min = offset;
      w.t_width = um(3);
      w.z_min = tech().layer(6).z_bottom;
      w.z_thick = tech().layer(6).thickness;
      return w;
    };
    net.add_segment(a, far, bar(0.0), 2e-8, m1, true);
    net.add_segment(far, b, bar(um(8)), 2e-8, m1, false);
    return net.loop_impedance(a, b, 1e8).inductance;
  };
  EXPECT_NEAR(loop_along(peec::Axis::kY), loop_along(peec::Axis::kX),
              1e-12 * loop_along(peec::Axis::kY));
}

TEST(NetworkAxes, PerpendicularLegsAddWithoutCoupling) {
  // An L-shaped loop (y-leg then x-leg) has no mutual between the legs, so
  // its inductance is the sum of the two straight loops'.
  peec::MeshOptions m1;
  m1.nw = 1;
  m1.nt = 1;
  const double z0 = tech().layer(6).z_bottom;
  const double zt = tech().layer(6).thickness;
  auto bar = [&](peec::Axis axis, double a0, double len, double t_min) {
    peec::Bar w;
    w.axis = axis;
    w.a_min = a0;
    w.length = len;
    w.t_min = t_min;
    w.t_width = um(3);
    w.z_min = z0;
    w.z_thick = zt;
    return w;
  };

  auto straight = [&](peec::Axis axis, double len) {
    Network net;
    const int a = net.add_node();
    const int far = net.add_node();
    const int b = net.add_node();
    net.add_segment(a, far, bar(axis, 0.0, len, 0.0), 2e-8, m1, true);
    net.add_segment(far, b, bar(axis, 0.0, len, um(8)), 2e-8, m1, false);
    return net.loop_impedance(a, b, 1e8).inductance;
  };

  Network lshape;
  const int a = lshape.add_node();
  const int mid_s = lshape.add_node();
  const int mid_g = lshape.add_node();
  const int far = lshape.add_node();
  const int b = lshape.add_node();
  // y-leg.
  lshape.add_segment(a, mid_s, bar(peec::Axis::kY, 0.0, um(500), 0.0), 2e-8,
                     m1, true);
  lshape.add_segment(mid_g, b, bar(peec::Axis::kY, 0.0, um(500), um(8)),
                     2e-8, m1, false);
  // x-leg, far from the y-leg so residual coupling vanishes.
  lshape.add_segment(mid_s, far, bar(peec::Axis::kX, um(1000), um(400),
                                     um(2000)),
                     2e-8, m1, true);
  lshape.add_segment(far, mid_g, bar(peec::Axis::kX, um(1000), um(400),
                                     um(2008)),
                     2e-8, m1, false);
  const double sum =
      straight(peec::Axis::kY, um(500)) + straight(peec::Axis::kX, um(400));
  EXPECT_NEAR(lshape.loop_impedance(a, b, 1e8).inductance, sum, 0.01 * sum);
  // The nodal reduction matches the KKT formulation on the L-shape.
  const ComplexMatrix z = lshape.port_impedance({{a, b}}, 1e8);
  const ComplexMatrix want = kkt_port_impedance(lshape, {{a, b}}, 1e8);
  EXPECT_LE(std::abs(z(0, 0) - want(0, 0)), 1e-9 * std::abs(want(0, 0)));
}

}  // namespace
}  // namespace rlcx::solver
