// Randomised robustness sweep: arbitrary (deterministic-seeded) shielded
// structures through the whole pipeline — extraction, netlist stamping,
// a short transient — asserting the physical invariants that must hold for
// *every* valid input, not just the curated geometries.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/netlist_builder.h"
#include "ckt/transient.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "solver/block_solver.h"
#include "support/dense_transient_reference.h"

namespace rlcx {
namespace {

using units::um;

const geom::Technology& tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

struct FuzzCase {
  std::uint64_t seed;
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PipelineFuzz, InvariantsHoldOnRandomStructures) {
  std::mt19937_64 rng(GetParam().seed);
  auto uni = [&](double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(rng);
  };
  auto pick_uint = [&](std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> d(lo, hi);
    return d(rng);
  };

  // Random shielded bus: 1-3 signals between shields, random widths,
  // spacings, length and plane configuration.
  const std::size_t nsig = pick_uint(1, 3);
  std::vector<double> widths;
  std::vector<double> spacings;
  widths.push_back(um(uni(1.0, 12.0)));  // left shield
  for (std::size_t s = 0; s < nsig; ++s) {
    spacings.push_back(um(uni(0.5, 6.0)));
    widths.push_back(um(uni(1.0, 12.0)));
  }
  spacings.push_back(um(uni(0.5, 6.0)));
  widths.push_back(um(uni(1.0, 12.0)));  // right shield
  const double length = um(uni(150.0, 3000.0));
  const geom::PlaneConfig planes = pick_uint(0, 1) == 0
                                       ? geom::PlaneConfig::kNone
                                       : geom::PlaneConfig::kBelow;
  const geom::Block blk =
      geom::bus_block(tech(), 6, length, widths, spacings, planes);

  solver::SolveOptions sopt;
  sopt.frequency = uni(0.5e9, 8e9);
  sopt.max_filaments_per_dim = 2;
  sopt.plane.strips = 9;
  const core::DirectInductanceModel model(&tech(), 6, planes, sopt);
  const core::SegmentRlc seg = core::extract_segment_rlc(blk, model);

  // --- invariants on the extraction ---
  for (double r : seg.resistance) {
    EXPECT_GT(r, 0.0);
    EXPECT_TRUE(std::isfinite(r));
  }
  const std::size_t nl = seg.l_traces.size();
  for (std::size_t i = 0; i < nl; ++i) {
    EXPECT_GT(seg.inductance(i, i), 0.0);
    for (std::size_t j = 0; j < nl; ++j) {
      EXPECT_TRUE(std::isfinite(seg.inductance(i, j)));
      EXPECT_NEAR(seg.inductance(i, j), seg.inductance(j, i),
                  1e-6 * seg.inductance(i, i));
      if (i != j) {
        // Passivity: |M| < sqrt(Li Lj).
        EXPECT_LT(std::abs(seg.inductance(i, j)),
                  std::sqrt(seg.inductance(i, i) * seg.inductance(j, j)));
      }
    }
  }
  for (double c : seg.cap_ground) EXPECT_GT(c, 0.0);
  for (double c : seg.cap_coupling) EXPECT_GT(c, 0.0);

  // --- stamping + a short transient must stay finite and settle ---
  ckt::Netlist nlst;
  const ckt::NodeId vin = nlst.add_node();
  const ckt::NodeId buf = nlst.add_node();
  nlst.add_vsource(vin, ckt::kGround,
                   ckt::SourceWaveform::ramp(1.8, 100e-12));
  nlst.add_resistor(vin, buf, uni(15.0, 80.0));
  core::LadderOptions lopt;
  lopt.sections = static_cast<int>(pick_uint(1, 5));
  std::vector<ckt::NodeId> ins(blk.signal_indices().size(), buf);
  for (std::size_t k = 1; k < ins.size(); ++k) ins[k] = nlst.add_node();
  for (std::size_t k = 1; k < ins.size(); ++k)
    nlst.add_resistor(buf, ins[k], 1.0);  // weakly tie extra signals
  const auto outs = core::stamp_segment(nlst, blk, seg, ins, lopt);
  for (const ckt::NodeId o : outs)
    nlst.add_capacitor(o, ckt::kGround, uni(20e-15, 300e-15));

  ckt::TransientOptions topt;
  topt.t_stop = 3e-9;
  topt.dt = 1e-12;
  const ckt::TransientResult res = ckt::simulate(nlst, topt);
  for (const ckt::NodeId o : outs) {
    const ckt::Waveform w = res.waveform(o);
    for (std::size_t s = 0; s < w.size(); ++s)
      ASSERT_TRUE(std::isfinite(w.sample(s))) << "seed "
                                              << GetParam().seed;
    // Linear passive network driven to 1.8 V: bounded ringing only.
    EXPECT_LT(w.max(), 4.0);
    EXPECT_GT(w.min(), -2.5);
    EXPECT_NEAR(w.sample(w.size() - 1), 1.8, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(FuzzCase{1}, FuzzCase{2},
                                           FuzzCase{3}, FuzzCase{5},
                                           FuzzCase{8}, FuzzCase{13},
                                           FuzzCase{21}, FuzzCase{34},
                                           FuzzCase{55}, FuzzCase{89}));

// Seeded random RLCK netlists through the transient and the dense oracle.
// Seeds 1-32: a random spanning tree of R/L/C branches plus extra cross
// branches, a grounded ramp source and a floating one (between two
// non-ground nodes), and mutual K between randomly chosen — generally
// non-adjacent — inductors.  Each inductor takes part in at most two
// couplings of |k| <= 0.3, so L stays positive definite and the circuit
// passive.
ckt::Netlist random_netlist(std::mt19937_64& rng) {
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto log_uni = [&](double lo, double hi) {
    return std::exp(uni(std::log(lo), std::log(hi)));
  };

  ckt::Netlist nl;
  const int nodes = pick(4, 24);
  for (int n = 0; n < nodes; ++n) nl.add_node();
  std::vector<std::size_t> inductors;
  auto branch = [&](ckt::NodeId a, ckt::NodeId b) {
    switch (pick(0, 2)) {
      case 0: nl.add_resistor(a, b, log_uni(1.0, 1e3)); break;
      case 1: nl.add_capacitor(a, b, log_uni(1e-15, 1e-12)); break;
      default: inductors.push_back(nl.add_inductor(a, b, log_uni(1e-11, 1e-9)));
    }
  };
  // Node 1 is driven; every other node hangs off an earlier one (or
  // ground), so nothing dangles.
  nl.add_vsource(1, ckt::kGround,
                 ckt::SourceWaveform::ramp(uni(0.5, 2.0), uni(5e-12, 50e-12)));
  for (int n = 2; n <= nodes; ++n) branch(n, pick(0, n - 1));
  for (int e = pick(0, nodes); e > 0; --e) {
    const int a = pick(0, nodes), b = pick(1, nodes);
    if (a != b) branch(a, b);
  }
  // Floating source between two distinct nodes other than the driven one.
  const int fa = pick(2, nodes);
  int fb = pick(2, nodes);
  if (fb == fa) fb = fa == 2 ? 3 : 2;
  nl.add_vsource(fa, fb, ckt::SourceWaveform::ramp(uni(-1.0, 1.0),
                                                   uni(5e-12, 50e-12)));
  // Every branch needs some damping or it rings forever; a resistor in
  // parallel with each inductor keeps the march well conditioned.
  for (const std::size_t j : inductors)
    nl.add_resistor(nl.inductors()[j].a, nl.inductors()[j].b,
                    log_uni(10.0, 1e4));
  std::vector<int> couplings(inductors.size(), 0);
  for (int e = static_cast<int>(inductors.size()); e > 0; --e) {
    if (inductors.size() < 2) break;
    const std::size_t i = static_cast<std::size_t>(
        pick(0, static_cast<int>(inductors.size()) - 1));
    const std::size_t j = static_cast<std::size_t>(
        pick(0, static_cast<int>(inductors.size()) - 1));
    if (i == j || couplings[i] == 2 || couplings[j] == 2) continue;
    ++couplings[i];
    ++couplings[j];
    nl.add_coupling(inductors[i], inductors[j],
                    (pick(0, 1) == 0 ? 1.0 : -1.0) * uni(0.05, 0.3));
  }
  return nl;
}

// Seeds 33-64: ladder sections of the kind core::stamp_segment builds and
// the transient condenses (ckt/companion.h), to fuzz its classification.
// A ramp source behind a resistor feeds 1-4 groups of 1-4 traces in 1-3
// sections; every section's inductors are pairwise coupled at |k| <= 0.3,
// so L stays diagonally dominant.  A branch is R + private mid node + L,
// the same with a capacitor on the mid node (which must then stay a node),
// or a pure inductor; traces after the first may be shields, grounded at
// both ends; and a floating source sits directly across one inductor.
ckt::Netlist section_netlist(std::mt19937_64& rng) {
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto log_uni = [&](double lo, double hi) {
    return std::exp(uni(std::log(lo), std::log(hi)));
  };

  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node();
  const ckt::NodeId buf = nl.add_node();
  nl.add_vsource(in, ckt::kGround,
                 ckt::SourceWaveform::ramp(uni(0.5, 2.0), uni(5e-12, 50e-12)));
  nl.add_resistor(in, buf, log_uni(5.0, 100.0));
  std::vector<ckt::NodeId> taps{buf};  // where a group's signals start
  for (int group = pick(1, 4); group > 0; --group) {
    const int traces = pick(1, 4), sections = pick(1, 3);
    std::vector<ckt::NodeId> head(static_cast<std::size_t>(traces));
    std::vector<bool> shield(head.size());
    for (std::size_t t = 0; t < head.size(); ++t) {
      shield[t] = t > 0 && pick(0, 2) == 0;
      head[t] = shield[t] ? ckt::kGround
                          : taps[static_cast<std::size_t>(
                                pick(0, static_cast<int>(taps.size()) - 1))];
    }
    for (int s = 0; s < sections; ++s) {
      std::vector<std::size_t> section;
      for (std::size_t t = 0; t < head.size(); ++t) {
        const ckt::NodeId tail =
            shield[t] && s + 1 == sections ? ckt::kGround : nl.add_node();
        const double henries = log_uni(1e-11, 1e-9);
        const int kind = pick(0, 3);
        if (kind == 0 && head[t] != tail) {
          section.push_back(nl.add_inductor(head[t], tail, henries));
        } else {
          const ckt::NodeId mid = nl.add_node();
          nl.add_resistor(head[t], mid, log_uni(1.0, 100.0));
          if (kind == 1)
            nl.add_capacitor(mid, ckt::kGround, log_uni(1e-15, 1e-13));
          section.push_back(nl.add_inductor(mid, tail, henries));
        }
        if (tail != ckt::kGround)
          nl.add_capacitor(tail, ckt::kGround, log_uni(1e-15, 1e-12));
        head[t] = tail;
      }
      for (std::size_t i = 0; i < section.size(); ++i)
        for (std::size_t j = i + 1; j < section.size(); ++j)
          nl.add_coupling(section[i], section[j],
                          (pick(0, 1) == 0 ? 1.0 : -1.0) * uni(0.05, 0.3));
    }
    for (std::size_t t = 0; t < head.size(); ++t)
      if (!shield[t]) taps.push_back(head[t]);
  }
  const ckt::Inductor across = nl.inductors()[static_cast<std::size_t>(
      pick(0, static_cast<int>(nl.inductors().size()) - 1))];
  nl.add_vsource(across.a, across.b,
                 ckt::SourceWaveform::ramp(uni(-0.5, 0.5),
                                           uni(5e-12, 50e-12)));
  return nl;
}

class TransientFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransientFuzz, SparseMatchesDenseOracle) {
  std::mt19937_64 rng(GetParam());
  const ckt::Netlist nl =
      GetParam() <= 32 ? random_netlist(rng) : section_netlist(rng);
  ckt::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 200e-12;
  const std::string mismatch = testing::compare_waveforms(
      nl, ckt::simulate(nl, opt), testing::dense_transient_reference(nl, opt));
  EXPECT_TRUE(mismatch.empty()) << "seed " << GetParam() << ": " << mismatch;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransientFuzz,
                         ::testing::Range<std::uint64_t>(1, 65));

}  // namespace
}  // namespace rlcx
