// Tests for the N-D inductance table: lookup, range checks, persistence
// (text and versioned binary formats, docs/table-format.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/table.h"
#include "diag/error.h"
#include "support/scratch_dir.h"

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

TEST(NdTable, SaveLoadRoundTrip) {
  const NdTable t = make_2d();
  std::stringstream ss;
  t.save(ss);
  const NdTable r = NdTable::load(ss);
  EXPECT_EQ(r.dims(), 2u);
  EXPECT_EQ(r.axis_names()[0], "width");
  EXPECT_EQ(r.axis_names()[1], "length");
  for (double w = 1.0; w <= 3.0; w += 0.37)
    for (double l = 10.0; l <= 20.0; l += 2.3)
      EXPECT_NEAR(r.lookup({w, l}), t.lookup({w, l}), 1e-12);
}

TEST(NdTable, LoadRejectsGarbage) {
  std::stringstream bad1("not-a-table 1\n");
  EXPECT_THROW(NdTable::load(bad1), std::runtime_error);
  std::stringstream bad2("rlcx-table 9\n");
  EXPECT_THROW(NdTable::load(bad2), std::runtime_error);
  std::stringstream bad3("rlcx-table 1\n2\nwidth 3 1 2 3\n");
  EXPECT_THROW(NdTable::load(bad3), std::runtime_error);
}

TEST(NdTable, FileRoundTrip) {
  const NdTable t = make_2d();
  const testing::ScratchDir scratch("rlcx_table");
  const std::string path = scratch.file("table.txt");
  t.save_file(path);
  const NdTable r = NdTable::load_file(path);
  EXPECT_NEAR(r.lookup({2.0, 15.0}), t.lookup({2.0, 15.0}), 1e-12);
  EXPECT_THROW(NdTable::load_file("/nonexistent/nope.txt"),
               std::runtime_error);
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
  t.save_binary(ss);
  const NdTable r = NdTable::load_binary(ss);
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
  t.save_binary(ss);
  const NdTable r = NdTable::load_binary(ss);
  EXPECT_EQ(r.dims(), 0u);
}

TEST(NdTableBinary, RoundTripOneDimensional) {
  const NdTable t({"width"}, {{1.0, 2.0, 4.0}}, {1.0, 4.0, 16.0});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save_binary(ss);
  const NdTable r = NdTable::load_binary(ss);
  ASSERT_EQ(r.dims(), 1u);
  EXPECT_EQ(r.lookup({3.0}), t.lookup({3.0}));
}

TEST(NdTableBinary, RoundTripFourDimensionalMutual) {
  const NdTable t = make_4d();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  t.save_binary(ss);
  const NdTable r = NdTable::load_binary(ss);
  ASSERT_EQ(r.dims(), 4u);
  EXPECT_EQ(r.values(), t.values());
  EXPECT_EQ(r.lookup({1.5, 2.5, 1.2, 2.9}), t.lookup({1.5, 2.5, 1.2, 2.9}));
}

TEST(NdTableBinary, RejectsCorruptedHeader) {
  std::stringstream garbage("XXXXjunkjunkjunk",
                            std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load_binary(garbage), std::runtime_error);
  std::stringstream empty("", std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load_binary(empty), std::runtime_error);
}

TEST(NdTableBinary, RejectsVersionMismatch) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  make_2d().save_binary(ss);
  std::string bytes = ss.str();
  bytes[4] = 99;  // u32 version lives at offset 4 (docs/table-format.md)
  std::stringstream patched(bytes, std::ios::in | std::ios::binary);
  try {
    NdTable::load_binary(patched);
    FAIL() << "version 99 must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(NdTableBinary, RejectsTruncation) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  make_2d().save_binary(ss);
  const std::string bytes = ss.str();
  std::stringstream cut(bytes.substr(0, bytes.size() - 5),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load_binary(cut), std::runtime_error);
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
  t.save_binary(ss);
  // Poison the last stored double (values are the file's tail) with NaN.
  std::string blob = ss.str();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(blob.data() + blob.size() - sizeof nan, &nan, sizeof nan);
  std::stringstream bad(blob, std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load_binary(bad), std::runtime_error);
  // The category is numeric — a poisoned value, not a framing problem.
  std::stringstream bad2(blob, std::ios::in | std::ios::binary);
  EXPECT_THROW(NdTable::load_binary(bad2), rlcx::diag::NumericError);
}

TEST(NdTableBinary, LoadFileSniffsBothFormats) {
  const NdTable t = make_2d();
  const testing::ScratchDir scratch("rlcx_table");
  const std::string bin_path = scratch.file("bin.tbl");
  const std::string txt_path = scratch.file("txt.tbl");
  t.save_file_binary(bin_path);
  t.save_file(txt_path);
  const NdTable rb = NdTable::load_file(bin_path);
  const NdTable rt = NdTable::load_file(txt_path);
  EXPECT_EQ(rb.values(), t.values());
  EXPECT_NEAR(rt.lookup({2.0, 15.0}), t.lookup({2.0, 15.0}), 1e-12);
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

}  // namespace
}  // namespace rlcx::core
