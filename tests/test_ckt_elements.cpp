// Tests for sources, netlist bookkeeping and waveform measurements.
#include <gtest/gtest.h>

#include <cmath>

#include "ckt/netlist.h"
#include "ckt/sources.h"
#include "ckt/waveform.h"

namespace rlcx::ckt {
namespace {

TEST(Sources, RampShape) {
  const auto r = SourceWaveform::ramp(1.8, 100e-12);
  EXPECT_DOUBLE_EQ(r.eval(-1e-12), 0.0);
  EXPECT_DOUBLE_EQ(r.eval(0.0), 0.0);
  EXPECT_NEAR(r.eval(50e-12), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(r.eval(100e-12), 1.8);
  EXPECT_DOUBLE_EQ(r.eval(1e-9), 1.8);
}

TEST(Sources, DelayedRamp) {
  const auto r = SourceWaveform::ramp(1.0, 10e-12, 5e-12);
  EXPECT_DOUBLE_EQ(r.eval(5e-12), 0.0);
  EXPECT_NEAR(r.eval(10e-12), 0.5, 1e-12);
}

TEST(Sources, ClockPeriodicity) {
  const auto c = SourceWaveform::clock(1.0, 1e-9, 50e-12);
  EXPECT_DOUBLE_EQ(c.period(), 1e-9);
  EXPECT_NEAR(c.eval(0.3e-9), 1.0, 1e-12);   // high phase
  EXPECT_NEAR(c.eval(0.8e-9), 0.0, 1e-12);   // low phase
  EXPECT_NEAR(c.eval(1.3e-9), 1.0, 1e-12);   // next cycle
  EXPECT_NEAR(c.eval(25e-12), 0.5, 1e-12);   // mid-rise
}

TEST(Sources, PwlValidation) {
  EXPECT_THROW(SourceWaveform::pwl({}), std::invalid_argument);
  EXPECT_THROW(SourceWaveform::pwl({{1.0, 0.0}, {0.5, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(SourceWaveform::ramp(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SourceWaveform::clock(1.0, 1e-9, 0.6e-9),
               std::invalid_argument);
}

TEST(Sources, DcIsConstant) {
  const auto d = SourceWaveform::dc(2.5);
  EXPECT_DOUBLE_EQ(d.eval(0.0), 2.5);
  EXPECT_DOUBLE_EQ(d.eval(1.0), 2.5);
}

TEST(NetlistApi, NodesAndNames) {
  Netlist nl;
  const NodeId a = nl.add_node("in");
  const NodeId b = nl.add_node();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(nl.node("in"), a);
  EXPECT_EQ(nl.node_name(kGround), "gnd");
  EXPECT_THROW(nl.node("nope"), std::out_of_range);
  EXPECT_THROW(nl.node_name(99), std::out_of_range);
}

TEST(NetlistApi, ElementValidation) {
  Netlist nl;
  const NodeId a = nl.add_node();
  EXPECT_THROW(nl.add_resistor(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor(a, kGround, -1e-15), std::invalid_argument);
  EXPECT_THROW(nl.add_inductor(a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(a, 17, 1.0), std::out_of_range);
}

TEST(NetlistApi, MutualValidation) {
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  const std::size_t l1 = nl.add_inductor(a, kGround, 1e-9);
  const std::size_t l2 = nl.add_inductor(b, kGround, 4e-9);
  EXPECT_THROW(nl.add_mutual(l1, l1, 1e-10), std::invalid_argument);
  EXPECT_THROW(nl.add_mutual(l1, 9, 1e-10), std::out_of_range);
  // |M| must stay below sqrt(L1 L2) = 2e-9.
  EXPECT_THROW(nl.add_mutual(l1, l2, 2e-9), std::invalid_argument);
  nl.add_mutual(l1, l2, 1.9e-9);
  EXPECT_EQ(nl.mutuals().size(), 1u);
  nl.add_coupling(l1, l2, 0.5);
  EXPECT_NEAR(nl.mutuals()[1].henries, 1e-9, 1e-18);
  EXPECT_THROW(nl.add_coupling(l1, l2, 1.1), std::invalid_argument);
}

TEST(WaveformApi, InterpolationAndCrossing) {
  Waveform w(1e-12, {0.0, 0.2, 0.6, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(w.value_at(0.5e-12), 0.1);
  EXPECT_DOUBLE_EQ(w.value_at(99e-12), 1.0);
  const auto t = w.first_rise_through(0.5);
  ASSERT_TRUE(t.has_value());
  // Crosses 0.5 between samples 1 (0.2) and 2 (0.6): t = 1 + 0.75 ps.
  EXPECT_NEAR(*t, 1.75e-12, 1e-18);
  EXPECT_FALSE(w.first_rise_through(2.0).has_value());
}

TEST(WaveformApi, OvershootUndershoot) {
  Waveform w(1e-12, {0.0, -0.1, 0.5, 1.3, 1.1, 1.0});
  EXPECT_NEAR(w.max() - w.sample(w.size() - 1), 0.3, 1e-12);
  EXPECT_NEAR(w.undershoot(), 0.1, 1e-12);
  Waveform mono(1e-12, {0.0, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(mono.max(), mono.sample(mono.size() - 1));
  EXPECT_DOUBLE_EQ(mono.undershoot(), 0.0);
}

TEST(WaveformApi, DelayAndSkew) {
  Waveform ref(1e-12, {0.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  Waveform s1(1e-12, {0.0, 0.0, 0.0, 1.0, 1.0, 1.0});
  Waveform s2(1e-12, {0.0, 0.0, 0.0, 0.0, 1.0, 1.0});
  const double d1 = delay_50(ref, s1, 1.0);
  const double d2 = delay_50(ref, s2, 1.0);
  EXPECT_NEAR(d2 - d1, 1e-12, 1e-18);
  Waveform flat(1e-12, {0.0, 0.0});
  EXPECT_THROW(delay_50(ref, flat, 1.0), std::runtime_error);
  EXPECT_THROW(delay_50(ref, s1, 0.0), std::invalid_argument);
}

TEST(WaveformApi, Validation) {
  EXPECT_THROW(Waveform(0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(Waveform(1e-12, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rlcx::ckt
