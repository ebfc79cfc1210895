// Tests for segment RLC extraction and netlist stamping.
#include <gtest/gtest.h>

#include "cap/models.h"
#include "core/netlist_builder.h"
#include "ckt/transient.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "solver/frequency.h"

namespace rlcx::core {
namespace {

using geom::PlaneConfig;
using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

solver::SolveOptions fast_opts() {
  solver::SolveOptions o;
  o.frequency = solver::significant_frequency(100e-12);
  o.max_filaments_per_dim = 2;
  o.plane.strips = 9;
  return o;
}

const DirectInductanceModel& cpw_model() {
  static const DirectInductanceModel m(&tech(), 6, PlaneConfig::kNone,
                                       fast_opts());
  return m;
}

TEST(SegmentRlc, PartialModeCoversAllTraces) {
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(1000), um(10), um(5), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, cpw_model());
  EXPECT_EQ(seg.kind, TableKind::kPartial);
  EXPECT_EQ(seg.l_traces.size(), 3u);
  EXPECT_EQ(seg.inductance.rows(), 3u);
  EXPECT_EQ(seg.resistance.size(), 3u);
  // Analytic R: rho l / (w t).
  EXPECT_NEAR(seg.resistance[1],
              cap::segment_resistance(um(10), um(2), um(1000), 2e-8), 1e-9);
  // Inductance symmetric, diagonally dominant.
  EXPECT_NEAR(seg.inductance(0, 1), seg.inductance(1, 0), 1e-18);
  EXPECT_GT(seg.inductance(1, 1), seg.inductance(0, 1));
  // Whole-segment capacitance values scale with length.
  const SegmentRlc seg2 =
      extract_segment_rlc(blk.with_length(um(2000)), cpw_model());
  EXPECT_NEAR(seg2.cap_ground[1], 2.0 * seg.cap_ground[1],
              1e-6 * seg2.cap_ground[1]);
}

TEST(SegmentRlc, LoopModeCoversSignalsOnly) {
  static const DirectInductanceModel loop_model(
      &tech(), 6, PlaneConfig::kBelow, fast_opts());
  const geom::Block blk =
      geom::microstrip(tech(), 6, um(1000), um(10), um(5), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, loop_model);
  EXPECT_EQ(seg.kind, TableKind::kLoop);
  ASSERT_EQ(seg.l_traces.size(), 1u);
  EXPECT_EQ(seg.l_traces[0], 1u);  // the middle (signal) trace
  EXPECT_EQ(seg.inductance.rows(), 1u);
  EXPECT_GT(seg.inductance(0, 0), 0.0);
  // Loop L below the partial self of the same trace.
  const geom::Block cpw =
      geom::coplanar_waveguide(tech(), 6, um(1000), um(10), um(5), um(1));
  const SegmentRlc pseg = extract_segment_rlc(cpw, cpw_model());
  EXPECT_LT(seg.inductance(0, 0), pseg.inductance(1, 1));
}

TEST(StampSegment, NodeBookkeeping) {
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(500), um(4), um(4), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, cpw_model());
  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node("in");
  LadderOptions lopt;
  lopt.sections = 3;
  const auto outs = stamp_segment(nl, blk, seg, {in}, lopt);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_NE(outs[0], in);
  EXPECT_FALSE(nl.inductors().empty());
  EXPECT_FALSE(nl.mutuals().empty());
  EXPECT_FALSE(nl.capacitors().empty());

  // Wrong input count throws.
  EXPECT_THROW(stamp_segment(nl, blk, seg, {in, in}, lopt),
               std::invalid_argument);
  LadderOptions bad;
  bad.sections = 0;
  EXPECT_THROW(stamp_segment(nl, blk, seg, {in}, bad),
               std::invalid_argument);
}

TEST(StampSegment, TotalsMatchExtractedValues) {
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(500), um(4), um(4), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, cpw_model());
  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node();
  LadderOptions lopt;
  lopt.sections = 5;
  stamp_segment(nl, blk, seg, {in}, lopt);

  // Sum of all inductors equals the trace self inductances.
  double l_total = 0.0;
  for (const auto& ind : nl.inductors()) l_total += ind.henries;
  const double l_expect =
      seg.inductance(0, 0) + seg.inductance(1, 1) + seg.inductance(2, 2);
  EXPECT_NEAR(l_total, l_expect, 1e-9 * l_expect);

  // Sum of all capacitors equals the signal's total C (shield-coupling
  // folded to ground, shields carry no C of their own).
  double c_total = 0.0;
  for (const auto& c : nl.capacitors()) c_total += c.farads;
  const double c_expect =
      seg.cap_ground[1] + seg.cap_coupling[0] + seg.cap_coupling[1];
  EXPECT_NEAR(c_total, c_expect, 1e-9 * c_expect);

  // Mutual-K sums match the extracted mutuals (3 trace pairs).
  double m_total = 0.0;
  for (const auto& m : nl.mutuals()) m_total += m.henries;
  const double m_expect = seg.inductance(0, 1) + seg.inductance(0, 2) +
                          seg.inductance(1, 2);
  EXPECT_NEAR(m_total, m_expect, 1e-9 * m_expect);
}

TEST(StampSegment, RcOnlyModeHasNoInductors) {
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(500), um(4), um(4), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, cpw_model());
  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node();
  LadderOptions lopt;
  lopt.sections = 1;  // stresses the shield-chain edge case
  lopt.include_inductance = false;
  stamp_segment(nl, blk, seg, {in}, lopt);
  EXPECT_TRUE(nl.inductors().empty());
  EXPECT_TRUE(nl.mutuals().empty());
  EXPECT_FALSE(nl.resistors().empty());
}

TEST(StampSegment, SimulatedDcResistanceMatches) {
  // Drive the stamped segment with a DC source through a known resistor and
  // check the final divider ratio implies the extracted wire resistance.
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(2000), um(4), um(4), um(1));
  const SegmentRlc seg = extract_segment_rlc(blk, cpw_model());
  ckt::Netlist nl;
  const ckt::NodeId src = nl.add_node();
  const ckt::NodeId in = nl.add_node();
  nl.add_vsource(src, ckt::kGround, ckt::SourceWaveform::dc(1.0));
  nl.add_resistor(src, in, 100.0);
  LadderOptions lopt;
  lopt.sections = 4;
  const auto outs = stamp_segment(nl, blk, seg, {in}, lopt);
  const ckt::NodeId end = outs[0];
  nl.add_resistor(end, ckt::kGround, 100.0);

  ckt::TransientOptions topt;
  topt.t_stop = 20e-9;
  topt.dt = 10e-12;
  const auto res = ckt::simulate(nl, topt);
  const ckt::Waveform w_end = res.waveform(end);
  const double v_end = w_end.sample(w_end.size() - 1);
  // Divider: 100 / (100 + R_wire + 100).
  const double r_wire = seg.resistance[1];
  EXPECT_NEAR(v_end, 100.0 / (200.0 + r_wire), 2e-3);
}

}  // namespace
}  // namespace rlcx::core
