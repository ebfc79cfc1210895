// Tests for the AC-resistance tables and the bundled table persistence.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cap/models.h"
#include "core/rlc_extractor.h"
#include "core/table_builder.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "solver/frequency.h"
#include "support/scratch_dir.h"

namespace rlcx::core {
namespace {

using geom::PlaneConfig;
using geom::Technology;
using units::um;

const Technology& tech() {
  static const Technology t = Technology::generic_025um();
  return t;
}

solver::SolveOptions hf_opts() {
  solver::SolveOptions o;
  o.frequency = 10e9;  // deep skin-effect regime for 10 um wires
  o.max_filaments_per_dim = 4;
  return o;
}

const InductanceTables& tables() {
  static const InductanceTables t = [] {
    TableGrid g;
    g.widths = {um(2), um(6), um(14)};
    g.spacings = {um(1), um(3), um(8)};
    g.lengths = {um(300), um(1000), um(3000)};
    return build_tables(tech(), 6, PlaneConfig::kNone, g, hf_opts());
  }();
  return t;
}

TEST(AcResistanceTable, CharacterisedAndAboveDc) {
  EXPECT_EQ(tables().series_r.dims(), 2u);
  const TableInductanceModel model(tables());
  const double r_ac = model.series_resistance(um(14), um(3000));
  const double r_dc =
      cap::segment_resistance(um(14), um(2), um(3000), 2e-8);
  EXPECT_GT(r_ac, r_dc);          // skin effect raises R
  EXPECT_LT(r_ac, 5.0 * r_dc);    // but not absurdly
}

TEST(AcResistanceTable, MatchesDirectProvider) {
  const TableInductanceModel model(tables());
  const DirectInductanceModel direct(&tech(), 6, PlaneConfig::kNone,
                                     hf_opts());
  const double rt = model.series_resistance(um(6), um(1000));
  const double rd = direct.series_resistance(um(6), um(1000));
  EXPECT_NEAR(rt, rd, 0.02 * rd);  // on-grid point
}

TEST(AcResistanceTable, ProviderWithoutTableReportsUnavailable) {
  InductanceTables bare = tables();
  bare.series_r = NdTable();
  const TableInductanceModel model(bare);
  EXPECT_LT(model.series_resistance(um(6), um(1000)), 0.0);
}

TEST(AcResistanceTable, ExtractionOptionSwitchesR) {
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(1000), um(14), um(14), um(1));
  const TableInductanceModel model(tables());
  const SegmentRlc dc = extract_segment_rlc(blk, model);
  ExtractOptions eopt;
  eopt.ac_resistance = true;
  const SegmentRlc ac = extract_segment_rlc(blk, model, eopt);
  EXPECT_GT(ac.resistance[1], dc.resistance[1]);
  // DC path still matches the analytic value exactly.
  EXPECT_NEAR(dc.resistance[1],
              cap::segment_resistance(um(14), um(2), um(1000), 2e-8), 1e-9);
}

TEST(AcResistanceTable, FallsBackWhenUncharacterised) {
  InductanceTables bare = tables();
  bare.series_r = NdTable();
  const TableInductanceModel model(bare);
  const geom::Block blk =
      geom::coplanar_waveguide(tech(), 6, um(1000), um(6), um(6), um(1));
  ExtractOptions eopt;
  eopt.ac_resistance = true;
  const SegmentRlc seg = extract_segment_rlc(blk, model, eopt);
  EXPECT_NEAR(seg.resistance[1],
              cap::segment_resistance(um(6), um(2), um(1000), 2e-8), 1e-9);
}

TEST(TablesBundle, RoundTripThroughStream) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  tables().save(ss);
  EXPECT_EQ(ss.str().substr(0, 4), "RLXB");
  const InductanceTables r = InductanceTables::load(ss);
  EXPECT_EQ(r.layer, tables().layer);
  EXPECT_EQ(r.planes, tables().planes);
  EXPECT_EQ(r.frequency, tables().frequency);
  EXPECT_EQ(r.self.values(), tables().self.values());
  EXPECT_EQ(r.mutual.values(), tables().mutual.values());
  EXPECT_EQ(r.series_r.values(), tables().series_r.values());
  const TableInductanceModel a(tables());
  const TableInductanceModel b(r);
  EXPECT_NEAR(a.self(um(4), um(700)), b.self(um(4), um(700)), 1e-18);
  EXPECT_NEAR(a.mutual(um(4), um(8), um(2), um(700)),
              b.mutual(um(4), um(8), um(2), um(700)), 1e-18);
  EXPECT_NEAR(a.series_resistance(um(4), um(700)),
              b.series_resistance(um(4), um(700)), 1e-12);
}

TEST(TablesBundle, EmptyResistanceTableRoundTrips) {
  InductanceTables bare = tables();
  bare.series_r = NdTable();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  bare.save(ss);
  const InductanceTables r = InductanceTables::load(ss);
  EXPECT_EQ(r.series_r.dims(), 0u);
}

TEST(TablesBundle, FileRoundTripAndErrors) {
  const testing::ScratchDir scratch("rlcx_tables_bundle");
  const std::string path = scratch.file("bundle.tbl");
  tables().save_file(path);
  const InductanceTables r = InductanceTables::load_file(path);
  EXPECT_EQ(r.self.dims(), 2u);
  EXPECT_EQ(r.mutual.values(), tables().mutual.values());
  EXPECT_THROW(InductanceTables::load_file("/nonexistent/x.tbl"),
               std::runtime_error);
  std::stringstream bad("garbage 1 6 0 1e9\n",
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(InductanceTables::load(bad), std::runtime_error);
}

TEST(TablesBundle, LoadFileRefusesTextFormat) {
  // RLXB is the one table format: an `rlcx-tables 1` text bundle is
  // refused on its magic, not parsed.
  const testing::ScratchDir scratch("rlcx_tables_bundle");
  const std::string path = scratch.file("bundle.txt");
  {
    std::ofstream os(path);
    os << "rlcx-tables 1 6 0 1.6e9\nrlcx-table 1\n2\n"
          "width 2 1 2\nlength 2 10 20\n4 1 2 3 4\n";
  }
  try {
    InductanceTables::load_file(path);
    FAIL() << "a text-format bundle must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rlcx::core
