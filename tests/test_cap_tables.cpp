// Tests for the pre-characterised capacitance tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cap/cap_tables.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "support/scratch_dir.h"
#include "support/spline_reference.h"

namespace rlcx::cap {
namespace {

using units::um;

const geom::Technology& tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

Fd2dOptions fd() {
  Fd2dOptions o;
  o.cell = 0.5e-6;
  o.margin = 8e-6;
  return o;
}

const CapTables& tables() {
  static const CapTables t = [] {
    CapTableGrid grid;
    grid.widths = {um(2), um(4), um(8)};
    // Coupling falls off like ~1/s: the spacing axis needs density where
    // the curvature lives.
    grid.spacings = {um(1.5), um(2.5), um(4), um(6)};
    return CapTables::build(tech(), 6, geom::PlaneConfig::kNone, grid, fd());
  }();
  return t;
}

TEST(CapTables, MetadataAndPhysicalValues) {
  EXPECT_EQ(tables().layer(), 6);
  EXPECT_EQ(tables().planes(), geom::PlaneConfig::kNone);
  EXPECT_FALSE(tables().empty());
  // On-grid magnitudes in the plausible band (tens of fF/mm each).
  const double cg = tables().cg(um(4), um(3));
  const double cc = tables().cc(um(4), um(3));
  EXPECT_GT(cg, 1e-12);   // > 1 fF/mm
  EXPECT_LT(cg, 1e-9);
  EXPECT_GT(cc, 1e-12);
  EXPECT_LT(cc, 1e-9);
}

TEST(CapTables, MatchesDirectFdSolveOnGrid) {
  // On a grid node the spline must reproduce the characterisation solve.
  const geom::Block sub = geom::uniform_array(tech(), 6, 1e-4, 3, um(4),
                                              um(2.5));
  const RealMatrix c = fd_block_capacitance(sub, fd());
  double row = 0.0;
  for (std::size_t j = 0; j < 3; ++j) row += c(1, j);
  EXPECT_NEAR(tables().cg(um(4), um(2.5)), row, 1e-6 * row);
  EXPECT_NEAR(tables().cc(um(4), um(2.5)), -c(1, 2), 1e-6 * (-c(1, 2)));
}

TEST(CapTables, InterpolatesOffGridWithinFewPercent) {
  const geom::Block sub = geom::uniform_array(tech(), 6, 1e-4, 3, um(5.5),
                                              um(3.2));
  const RealMatrix c = fd_block_capacitance(sub, fd());
  double row = 0.0;
  for (std::size_t j = 0; j < 3; ++j) row += c(1, j);
  EXPECT_NEAR(tables().cg(um(5.5), um(3.2)), row, 0.05 * row);
  EXPECT_NEAR(tables().cc(um(5.5), um(3.2)), -c(1, 2), 0.10 * (-c(1, 2)));
}

TEST(CapTables, TrendsAreMonotone) {
  // Wider -> more ground cap; closer -> more coupling.
  EXPECT_GT(tables().cg(um(8), um(3)), tables().cg(um(2), um(3)));
  EXPECT_GT(tables().cc(um(4), um(1.5)), tables().cc(um(4), um(6)));
}

TEST(CapTables, RoundTripThroughStream) {
  std::stringstream ss;
  tables().save(ss);
  const CapTables r = CapTables::load(ss);
  EXPECT_EQ(r.layer(), tables().layer());
  EXPECT_NEAR(r.cg(um(3), um(2)), tables().cg(um(3), um(2)), 1e-20);
  EXPECT_NEAR(r.cc(um(3), um(2)), tables().cc(um(3), um(2)), 1e-20);
}

TEST(CapTables, FileRoundTripAndErrors) {
  const testing::ScratchDir scratch("rlcx_cap_tables");
  const std::string path = scratch.file("cap_tables.txt");
  tables().save_file(path);
  const CapTables r = CapTables::load_file(path);
  EXPECT_FALSE(r.empty());
  EXPECT_THROW(CapTables::load_file("/nonexistent/c.txt"),
               std::runtime_error);
  std::stringstream bad("nope 1 6 0\n");
  EXPECT_THROW(CapTables::load(bad), std::runtime_error);
}

TEST(CapTables, LookupMatchesSplineOracle) {
  // The grid and both value planes, read back from the text form.
  std::stringstream ss;
  tables().save(ss);
  std::string header;
  std::getline(ss, header);
  std::vector<std::vector<double>> axes(2);
  for (std::vector<double>& ax : axes) {
    std::size_t n = 0;
    ss >> n;
    ax.resize(n);
    for (double& v : ax) ss >> v;
  }
  std::vector<double> cg(axes[0].size() * axes[1].size()), cc(cg.size());
  for (double& v : cg) ss >> v;
  for (double& v : cc) ss >> v;
  ASSERT_TRUE(ss);
  // In range and extrapolated below and above either axis.
  for (const double w : {um(1), um(2), um(3.3), um(5.5), um(8), um(11)})
    for (const double s : {um(1), um(1.5), um(2.2), um(4.7), um(6), um(9)}) {
      const double want_g = reference_tensor_spline(axes, cg, {w, s});
      const double want_c = reference_tensor_spline(axes, cc, {w, s});
      EXPECT_LE(std::abs(tables().cg(w, s) - want_g),
                1e-12 * std::abs(want_g));
      EXPECT_LE(std::abs(tables().cc(w, s) - want_c),
                1e-12 * std::abs(want_c));
    }
}

TEST(CapTables, BuildValidation) {
  CapTableGrid bad;
  bad.widths = {um(2)};
  bad.spacings = {um(1), um(2)};
  EXPECT_THROW(
      CapTables::build(tech(), 6, geom::PlaneConfig::kNone, bad, fd()),
      std::invalid_argument);
  CapTables empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.cg(um(2), um(2)), std::logic_error);
}

}  // namespace
}  // namespace rlcx::cap
