// Tests for the N-D inductance table: lookup, range checks, persistence
// (the versioned binary format, docs/table-format.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <random>
#include <sstream>

#include "core/inductance_model.h"
#include "core/table.h"
#include "core/table_builder.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "numeric/units.h"
#include "support/spline_reference.h"

namespace {

// Heap allocations made on this thread while counting is on: the
// zero-allocation lookup check replaces the global operator new.
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;

}  // namespace

// GCC pairs the inlined malloc with the delete sites and flags the free
// as mismatched; the replacement pair is consistent by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rlcx::core {
namespace {

NdTable make_2d() {
  const std::vector<double> w{1.0, 2.0, 3.0};
  const std::vector<double> l{10.0, 20.0};
  std::vector<double> vals;
  for (double wi : w)
    for (double li : l) vals.push_back(wi * 100.0 + li);
  return NdTable({"width", "length"}, {w, l}, vals);
}

TEST(NdTable, ReproducesGridValues) {
  const NdTable t = make_2d();
  EXPECT_NEAR(t.lookup({1.0, 10.0}), 110.0, 1e-9);
  EXPECT_NEAR(t.lookup({3.0, 20.0}), 320.0, 1e-9);
  EXPECT_NEAR(t.at({2, 1}), 320.0, 1e-12);
}

TEST(NdTable, InterpolatesLinearData) {
  // The values are linear in both axes, which splines reproduce exactly.
  const NdTable t = make_2d();
  EXPECT_NEAR(t.lookup({1.5, 15.0}), 165.0, 1e-9);
  EXPECT_NEAR(t.lookup({2.7, 12.0}), 282.0, 1e-9);
}

TEST(NdTable, InRangeDetection) {
  const NdTable t = make_2d();
  EXPECT_TRUE(t.in_range({1.5, 15.0}));
  EXPECT_FALSE(t.in_range({0.5, 15.0}));
  EXPECT_FALSE(t.in_range({1.5, 25.0}));
  EXPECT_THROW(t.in_range({1.0}), std::invalid_argument);
}

TEST(NdTable, LinearExtrapolationBeyondGrid) {
  const NdTable t = make_2d();
  // Linear data extrapolates exactly.
  EXPECT_NEAR(t.lookup({4.0, 10.0}), 410.0, 1e-8);
}

TEST(NdTable, ExtrapolationCounterTracksCoverage) {
  const NdTable t = make_2d();
  EXPECT_EQ(t.extrapolation_count(), 0u);
  t.lookup({1.5, 15.0});  // inside
  EXPECT_EQ(t.extrapolation_count(), 0u);
  t.lookup({4.0, 15.0});  // outside width axis
  t.lookup({1.5, 25.0});  // outside length axis
  EXPECT_EQ(t.extrapolation_count(), 2u);
  NdTable copy = t;
  copy.reset_extrapolation_count();
  EXPECT_EQ(copy.extrapolation_count(), 0u);
}

TEST(NdTable, ConstructorValidation) {
  EXPECT_THROW(NdTable({"a"}, {{1.0, 2.0}, {1.0, 2.0}}, {1, 2, 3, 4}),
               std::invalid_argument);
  EXPECT_THROW(NdTable({"a"}, {{1.0, 2.0}}, {1.0, 2.0, 3.0}),
               std::invalid_argument);
}

NdTable make_4d() {
  const std::vector<double> ax{1.0, 2.0, 3.0};
  std::vector<double> vals;
  for (double a : ax)
    for (double b : ax)
      for (double c : ax)
        for (double d : ax) vals.push_back(a + 2 * b + 4 * c + 8 * d);
  return NdTable({"w1", "w2", "s", "l"}, {ax, ax, ax, ax}, vals);
}

TEST(NdTableBinary, RoundTripIsBitExact) {
  const NdTable t = make_2d();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save(ss);
  const NdTable r = NdTable::load(ss);
  ASSERT_EQ(r.dims(), 2u);
  EXPECT_EQ(r.axis_names(), t.axis_names());
  EXPECT_EQ(r.axes(), t.axes());
  EXPECT_EQ(r.values(), t.values());
  // Same grid bytes -> same spline -> bit-identical lookups, on and off
  // grid (EXPECT_EQ, not NEAR: the cache contract is bit-exactness).
  for (double w = 1.0; w <= 3.5; w += 0.37)
    for (double l = 9.0; l <= 21.0; l += 2.3)
      EXPECT_EQ(r.lookup({w, l}), t.lookup({w, l}));
}

TEST(NdTableBinary, RoundTripEmptyTable) {
  const NdTable t;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save(ss);
  const NdTable r = NdTable::load(ss);
  EXPECT_EQ(r.dims(), 0u);
}

TEST(NdTableBinary, RoundTripOneDimensional) {
  const NdTable t({"width"}, {{1.0, 2.0, 4.0}}, {1.0, 4.0, 16.0});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save(ss);
  const NdTable r = NdTable::load(ss);
  ASSERT_EQ(r.dims(), 1u);
  EXPECT_EQ(r.lookup({3.0}), t.lookup({3.0}));
}

TEST(NdTableBinary, RoundTripFourDimensionalMutual) {
  const NdTable t = make_4d();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save(ss);
  const NdTable r = NdTable::load(ss);
  ASSERT_EQ(r.dims(), 4u);
  EXPECT_EQ(r.values(), t.values());
  EXPECT_EQ(r.lookup({1.5, 2.5, 1.2, 2.9}), t.lookup({1.5, 2.5, 1.2, 2.9}));
}

TEST(NdTableBinary, RejectsCorruptedHeader) {
  std::stringstream garbage("XXXXjunkjunkjunk",
                            std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load(garbage), std::runtime_error);
  std::stringstream empty("", std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load(empty), std::runtime_error);
}

TEST(NdTableBinary, RejectsVersionMismatch) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  make_2d().save(ss);
  std::string bytes = ss.str();
  bytes[4] = 99;  // u32 version lives at offset 4 (docs/table-format.md)
  std::stringstream patched(bytes, std::ios::in | std::ios::binary);
  try {
    NdTable::load(patched);
    FAIL() << "version 99 must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(NdTableBinary, RejectsTruncation) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  make_2d().save(ss);
  const std::string bytes = ss.str();
  std::stringstream cut(bytes.substr(0, bytes.size() - 5),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load(cut), std::runtime_error);
}

TEST(NdTable, ConstructorRejectsNonFiniteValues) {
  std::vector<double> vals{110.0, 120.0, 210.0, 220.0, 310.0,
                           std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(NdTable({"width", "length"}, {{1.0, 2.0, 3.0}, {10.0, 20.0}},
                       vals),
               rlcx::diag::NumericError);
}

TEST(NdTableBinary, RejectsNonFiniteValues) {
  const NdTable t = make_2d();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save(ss);
  // Poison the last stored double (values are the file's tail) with NaN.
  std::string blob = ss.str();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(blob.data() + blob.size() - sizeof nan, &nan, sizeof nan);
  std::stringstream bad(blob, std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load(bad), std::runtime_error);
  // The category is numeric — a poisoned value, not a framing problem.
  std::stringstream bad2(blob, std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load(bad2), rlcx::diag::NumericError);
}

TEST(NdTable, FourDimensionalMutualShape) {
  // The mutual table shape of the paper: (w1, w2, s, l).
  const std::vector<double> ax{1.0, 2.0};
  std::vector<double> vals;
  for (double a : ax)
    for (double b : ax)
      for (double c : ax)
        for (double d : ax) vals.push_back(a + 2 * b + 4 * c + 8 * d);
  const NdTable t({"w1", "w2", "s", "l"}, {ax, ax, ax, ax}, vals);
  EXPECT_EQ(t.dims(), 4u);
  EXPECT_NEAR(t.lookup({1.5, 1.5, 1.5, 1.5}), 1.5 * 15.0, 1e-9);
}

/// Largest relative deviation the table lookup may have from the
/// spline-of-splines oracle (docs/performance.md).
constexpr double kOracleTol = 1e-12;

/// A 4-D mutual-shaped table with smooth positive values on geometric
/// axes, and its oracle.
struct Mutual4d {
  std::vector<std::vector<double>> axes;
  std::vector<double> values;
  NdTable table;
  double oracle(const std::vector<double>& q) const {
    return reference_tensor_spline(axes, values, q);
  }
};

Mutual4d make_mutual(ExtrapolationPolicy policy) {
  Mutual4d m;
  m.axes = {geomspace(1.0, 20.0, 5), geomspace(1.0, 20.0, 5),
            geomspace(0.5, 10.0, 5), geomspace(100.0, 6000.0, 5)};
  for (double a : m.axes[0])
    for (double b : m.axes[1])
      for (double s : m.axes[2])
        for (double l : m.axes[3])
          m.values.push_back(l * std::log(1.0 + 2.0 * l / (a + b + s)));
  m.table = NdTable({"w1", "w2", "s", "l"}, m.axes, m.values);
  m.table.set_extrapolation_policy(policy);
  return m;
}

std::vector<double> random_query(const Mutual4d& m, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-0.3, 1.3);
  std::vector<double> q;
  for (const std::vector<double>& ax : m.axes)
    q.push_back(ax.front() + (ax.back() - ax.front()) * u(rng));
  return q;
}

TEST(NdTable, MatchesOracleUnderEveryPolicy) {
  const diag::ScopedWarningHandler quiet([](const diag::Warning&) {});
  std::mt19937_64 rng(18001);
  const Mutual4d warn = make_mutual(ExtrapolationPolicy::kWarn);
  const Mutual4d clamp = make_mutual(ExtrapolationPolicy::kClamp);
  const Mutual4d refuse = make_mutual(ExtrapolationPolicy::kThrow);
  std::size_t outside = 0;
  for (int n = 0; n < 400; ++n) {
    const std::vector<double> q = random_query(warn, rng);
    const double want = warn.oracle(q);
    EXPECT_LE(std::abs(warn.table.lookup(q) - want),
              kOracleTol * std::abs(want));
    std::vector<double> c = q;
    for (std::size_t d = 0; d < c.size(); ++d)
      c[d] = std::clamp(c[d], clamp.axes[d].front(), clamp.axes[d].back());
    const double want_clamped = clamp.oracle(c);
    EXPECT_LE(std::abs(clamp.table.lookup(q) - want_clamped),
              kOracleTol * std::abs(want_clamped));
    if (refuse.table.in_range(q)) {
      EXPECT_LE(std::abs(refuse.table.lookup(q) - want),
                kOracleTol * std::abs(want));
    } else {
      ++outside;
      EXPECT_THROW(refuse.table.lookup(q), diag::NumericError);
    }
  }
  // Both paths were exercised, and every policy counted each excursion.
  EXPECT_GT(outside, 100u);
  EXPECT_LT(outside, 400u);
  EXPECT_EQ(warn.table.extrapolation_count(), outside);
  EXPECT_EQ(clamp.table.extrapolation_count(), outside);
  EXPECT_EQ(refuse.table.extrapolation_count(), outside);
}

TEST(NdTable, LookupMeanMatchesBothOrdersOfTheOracle) {
  const diag::ScopedWarningHandler quiet([](const diag::Warning&) {});
  std::mt19937_64 rng(18002);
  for (const ExtrapolationPolicy policy :
       {ExtrapolationPolicy::kWarn, ExtrapolationPolicy::kClamp}) {
    const Mutual4d m = make_mutual(policy);
    for (int n = 0; n < 200; ++n) {
      const std::vector<double> q = random_query(m, rng);
      std::vector<double> r = q;
      std::swap(r[0], r[1]);
      const double want = 0.5 * (m.table.lookup(q) + m.table.lookup(r));
      EXPECT_LE(std::abs(m.table.lookup_mean(q, r) - want),
                kOracleTol * std::abs(want));
    }
  }
  // Each order is range-checked on its own.
  const Mutual4d m = make_mutual(ExtrapolationPolicy::kThrow);
  const std::vector<double> q{2.0, 40.0, 1.0, 500.0}, r{40.0, 2.0, 1.0, 500.0};
  EXPECT_THROW(m.table.lookup_mean(q, r), diag::NumericError);
  EXPECT_EQ(m.table.extrapolation_count(), 1u);
}

TEST(NdTable, ResidentBytesCountOneValueArray) {
  const Mutual4d m = make_mutual(ExtrapolationPolicy::kWarn);
  const std::size_t values = m.values.size() * sizeof(double);
  EXPECT_GT(m.table.resident_bytes(), values);
  // The operators are O(axis points): far less than a second value copy.
  EXPECT_LT(m.table.resident_bytes(), values + values / 2);
}

/// Tables on `g` with smooth synthetic values, in the layout the table
/// builder produces.
InductanceTables synthetic_tables(const TableGrid& g) {
  InductanceTables t;
  std::vector<double> self, mutual;
  for (double w : g.widths)
    for (double l : g.lengths) self.push_back(2e-7 * l * std::log(l / w));
  for (double a : g.widths)
    for (double b : g.widths)
      for (double s : g.spacings)
        for (double l : g.lengths)
          mutual.push_back(2e-7 * l * std::log(1.0 + 2.0 * l / (a + b + s)));
  t.self = NdTable({"width", "length"}, {g.widths, g.lengths}, self);
  t.mutual = NdTable({"w1", "w2", "spacing", "length"},
                     {g.widths, g.widths, g.spacings, g.lengths}, mutual);
  t.series_r = t.self;
  return t;
}

TEST(NdTable, LookupsMakeNoHeapAllocation) {
  using units::um;
  const diag::ScopedWarningHandler quiet([](const diag::Warning&) {});
  TableGrid cli;  // the CLI's --points 4 grid
  cli.widths = geomspace(um(1), um(20), 4);
  cli.spacings = geomspace(um(0.5), um(10), 4);
  cli.lengths = geomspace(um(100), um(6000), 4);
  for (const TableGrid& grid : {default_clock_grid(), cli}) {
    const TableInductanceModel model(synthetic_tables(grid));
    // The once-per-table extrapolation warning is the one lookup that may
    // allocate (it formats a message); spend it before counting.
    (void)model.self(um(30), um(50));
    (void)model.mutual(um(30), um(2), um(20), um(50));
    (void)model.series_resistance(um(30), um(50));
    std::mt19937_64 rng(18003);
    std::uniform_real_distribution<double> u(0.5, 2.0);  // some extrapolate
    double sink = 0.0;
    g_allocations = 0;
    g_counting = true;
    for (int n = 0; n < 1000; ++n) {
      const double w1 = um(12) * u(rng), w2 = um(12) * u(rng);
      const double s = um(6) * u(rng), l = um(4000) * u(rng);
      sink += model.self(w1, l) + model.mutual(w1, w2, s, l) +
              model.series_resistance(w2, l);
    }
    g_counting = false;
    EXPECT_EQ(g_allocations, 0u);
    // The counter does see an allocation made under it.
    g_counting = true;
    const std::vector<double> probe(8 + rng() % 8, 1.0);
    g_counting = false;
    EXPECT_EQ(g_allocations, 1u);
    sink += probe.back();
    EXPECT_TRUE(std::isfinite(sink));
    EXPECT_GT(model.tables().mutual.extrapolation_count(), 100u);
  }
}

}  // namespace
}  // namespace rlcx::core
