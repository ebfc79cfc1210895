// Resource governance (src/res): the memory budget, its estimators,
// dense-or-refuse impedance solves, the transient's result reservation,
// cost-based admission and bad_alloc containment.
//
// The contract under test (docs/robustness.md "Resource governance"):
//   * estimators predict a stage's resident bytes to within 2x of the
//     measured allocation peak;
//   * an impedance solve either fits its dense reservation or is refused;
//   * a refusal is the typed diag::ResourceExhaustedError (exit code 7),
//     raised at the coarse serial reservation points — each of which is
//     the `alloc_fail` injection site, so every refusal is drivable
//     without real memory pressure;
//   * the refuse decision is identical across pool widths;
//   * std::bad_alloc is contained at the request boundary as exit code 7.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ckt/transient.h"
#include "cli/cli.h"
#include "core/table_builder.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "geom/block.h"
#include "geom/technology.h"
#include "numeric/matrix.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "res/budget.h"
#include "rt/parallel.h"
#include "rt/pool.h"
#include "run/fault_injection.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/table_store.h"
#include "solver/block_solver.h"
#include "support/scratch_dir.h"

namespace rlcx {
namespace {

namespace fs = std::filesystem;
using units::um;

const geom::Technology& tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

/// Every test runs against the process-global budget, so each one starts
/// unlimited with the injector disarmed and restores what it found.
class ResTest : public ::testing::Test {
 protected:
  void SetUp() override {
    run::FaultInjector::global().clear();
    saved_limit_ = res::Budget::global().limit();
    res::Budget::global().set_limit(0);
  }
  void TearDown() override {
    run::FaultInjector::global().clear();
    res::Budget::global().set_limit(saved_limit_);
  }

 private:
  std::uint64_t saved_limit_ = 0;
};

geom::Block make_block(int traces, double trace_um, double spacing_um,
                       double length_um) {
  std::vector<geom::Trace> ts;
  double center = 0.0;
  for (int i = 0; i < traces; ++i) {
    ts.push_back({geom::TraceRole::kSignal, um(trace_um), center,
                  std::string("t").append(std::to_string(i))});
    center += um(trace_um + spacing_um);
  }
  return geom::Block(&tech(), 6, um(length_um), std::move(ts),
                     geom::PlaneConfig::kNone);
}

solver::SolveOptions meshed_options(int nw, int nt) {
  solver::SolveOptions opt;
  opt.frequency = 1e9;
  opt.auto_mesh = false;
  opt.mesh.nw = nw;
  opt.mesh.nt = nt;
  return opt;
}

peec::Bar strip_bar(double t_min, double width) {
  peec::Bar b;
  b.axis = peec::Axis::kY;
  b.a_min = 0.0;
  b.length = um(400);
  b.t_min = t_min;
  b.t_width = width;
  b.z_min = 0.0;
  b.z_thick = um(0.5);
  return b;
}

std::vector<peec::Filament> strip_mesh(std::size_t n) {
  std::vector<peec::Filament> fils;
  for (std::size_t i = 0; i < n; ++i)
    fils.push_back({strip_bar(static_cast<double>(i) * um(3), um(1)),
                    1.0, 0.1});
  return fils;
}

core::TableGrid tiny_grid(double length_scale = 1.0) {
  core::TableGrid g;
  g.widths = {um(2), um(8)};
  g.spacings = {um(1), um(4)};
  g.lengths = {um(200 * length_scale), um(1000 * length_scale)};
  return g;
}

using testing::ScratchDir;

// ---- Accounting ------------------------------------------------------

TEST_F(ResTest, AccountingTracksAndPeaks) {
  res::Budget& b = res::Budget::global();
  const std::uint64_t base = b.tracked();
  b.reset_peak();
  b.account(1000);
  EXPECT_EQ(b.tracked(), base + 1000);
  EXPECT_GE(b.peak(), base + 1000);
  b.unaccount(1000);
  EXPECT_EQ(b.tracked(), base);
  EXPECT_GE(b.peak(), base + 1000);  // the high-water survives the release
  b.reset_peak();
  EXPECT_EQ(b.peak(), b.in_use());
}

TEST_F(ResTest, MatrixAllocationsAreTracked) {
  res::Budget& b = res::Budget::global();
  const std::uint64_t base = b.tracked();
  {
    const Matrix<double> m(64, 64);
    EXPECT_GE(b.tracked(), base + 64 * 64 * sizeof(double));
  }
  EXPECT_EQ(b.tracked(), base);
}

TEST_F(ResTest, DefaultLimitReadsEnvironment) {
  ::setenv("RLCX_MEM_BUDGET", "64", 1);
  EXPECT_EQ(res::default_limit_bytes(), 64ull * 1024 * 1024);
  ::setenv("RLCX_MEM_BUDGET", "0", 1);
  EXPECT_EQ(res::default_limit_bytes(), 0u);
  ::setenv("RLCX_MEM_BUDGET", "not-a-number", 1);
  std::vector<diag::Warning> warnings;
  {
    const diag::ScopedWarningHandler capture(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    EXPECT_GT(res::default_limit_bytes(), 0u);  // falls back to RAM/2
  }
  ASSERT_FALSE(warnings.empty());
  EXPECT_EQ(warnings[0].category, diag::Category::kUsage);
  ::unsetenv("RLCX_MEM_BUDGET");
}

// ---- Estimators vs measured peaks ------------------------------------

TEST_F(ResTest, FillEstimateWithin2xOfMeasuredPeak) {
  const std::vector<peec::Filament> fils = strip_mesh(120);
  res::Budget& b = res::Budget::global();
  const std::uint64_t before = b.in_use();
  b.reset_peak();
  {
    // The ambient cover makes the fill skip its own reservation, so the
    // peak delta is pure tracked allocation (plus the 1 KiB cover).
    const res::ScopedReservation cover("test-cover", 1024);
    const RealMatrix lp =
        peec::partial_inductance_matrix(fils, peec::PartialOptions{});
    EXPECT_EQ(lp.rows(), fils.size());
  }
  const std::uint64_t measured = b.peak() - before;
  const std::size_t estimate = peec::estimate_fill_bytes(fils.size());
  EXPECT_LE(measured, 2 * estimate) << "estimate " << estimate;
  EXPECT_GE(2 * measured, estimate) << "measured " << measured;
}

TEST_F(ResTest, DenseSolveEstimateWithin2xOfMeasuredPeak) {
  const geom::Block blk = make_block(3, 2.0, 4.0, 800.0);
  const solver::SolveOptions opt = meshed_options(5, 5);
  const std::size_t estimate = solver::estimate_extract_bytes(blk, opt);
  res::Budget& b = res::Budget::global();
  const std::uint64_t before = b.in_use();
  b.reset_peak();
  const solver::PartialResult r = solver::extract_partial(blk, opt);
  EXPECT_GT(r.inductance(0, 0), 0.0);
  // The peak includes the solver's own reservation (which equals the
  // estimate by construction); the remainder is the measured allocation.
  const std::uint64_t peak_delta = b.peak() - before;
  ASSERT_GE(peak_delta, estimate);
  const std::uint64_t measured = peak_delta - estimate;
  EXPECT_LE(measured, 2 * estimate)
      << "dense solve allocated " << measured << " vs estimate "
      << estimate;
  EXPECT_GE(2 * measured, estimate)
      << "dense solve allocated " << measured << " vs estimate "
      << estimate;
}

// ---- Dense or refuse ------------------------------------------------

TEST_F(ResTest, BudgetOneByteShortOfDenseRefusesTyped) {
  // 4 traces x 5 x 8 = 160 filaments: a dense footprint of ~24 n^2 bytes.
  const geom::Block blk = make_block(4, 2.0, 4.0, 1200.0);
  const solver::SolveOptions opt = meshed_options(5, 8);
  res::Budget& b = res::Budget::global();
  const std::size_t dense_est = solver::estimate_extract_bytes(blk, opt);

  // Oracle first, unlimited.
  const solver::PartialResult unlimited = solver::extract_partial(blk, opt);

  // A budget one byte short of the dense reservation refuses the solve,
  // typed and without a warning: there is no cheaper path to fall to.
  const res::Stats s0 = b.stats();
  b.set_limit(b.in_use() + dense_est - 1);
  std::vector<diag::Warning> warnings;
  {
    const diag::ScopedWarningHandler capture(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    try {
      (void)solver::extract_partial(blk, opt);
      ADD_FAILURE() << "expected ResourceExhaustedError";
    } catch (const diag::ResourceExhaustedError& e) {
      EXPECT_EQ(e.stage(), "solver-dense");
    }
  }
  b.set_limit(0);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(b.stats().refusals - s0.refusals, 1u);

  // With room for the reservation the same solve runs, and the budget
  // does not change the answer.
  b.set_limit(b.in_use() + 2 * dense_est);
  const solver::PartialResult budgeted = solver::extract_partial(blk, opt);
  b.set_limit(0);
  EXPECT_EQ(budgeted.inductance(0, 0), unlimited.inductance(0, 0));
  EXPECT_EQ(budgeted.inductance(0, 3), unlimited.inductance(0, 3));
  EXPECT_EQ(b.stats().refusals - s0.refusals, 1u);
}

TEST_F(ResTest, BudgetBelowBothPathsRefusesTyped) {
  const geom::Block blk = make_block(4, 2.0, 4.0, 1200.0);
  const solver::SolveOptions opt = meshed_options(5, 8);
  res::Budget& b = res::Budget::global();
  const res::Stats s0 = b.stats();
  b.set_limit(1);  // nothing fits (but not 0 = unlimited)
  std::vector<diag::Warning> warnings;
  {
    const diag::ScopedWarningHandler capture(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    EXPECT_THROW(solver::extract_partial(blk, opt),
                 diag::ResourceExhaustedError);
  }
  b.set_limit(0);
  const res::Stats s1 = b.stats();
  EXPECT_EQ(s1.refusals - s0.refusals, 1u);
}

// ---- alloc_fail at every reservation site ----------------------------

TEST_F(ResTest, AllocFailAtPeecFillThrowsTyped) {
  const std::vector<peec::Filament> fils = strip_mesh(16);
  run::FaultInjector::global().set_schedule("alloc_fail:1");
  EXPECT_THROW(
      peec::partial_inductance_matrix(fils, peec::PartialOptions{}),
      diag::ResourceExhaustedError);
}

TEST_F(ResTest, AllocFailAtTableGridFailsBeforeFirstSolve) {
  const std::size_t solves0 = solver::solve_stats_total().dense_solves;
  run::FaultInjector::global().set_schedule("alloc_fail:1");
  EXPECT_THROW(core::build_tables(tech(), 6, geom::PlaneConfig::kNone,
                                  tiny_grid(), meshed_options(1, 1),
                                  /*threads=*/1),
               diag::ResourceExhaustedError);
  // The refusal happened at grid construction — zero field solves ran.
  EXPECT_EQ(solver::solve_stats_total().dense_solves, solves0);
}

TEST_F(ResTest, AllocFailAtDenseReservationRefusesTyped) {
  const geom::Block blk = make_block(3, 2.0, 4.0, 800.0);
  const solver::SolveOptions opt = meshed_options(4, 4);
  const res::Stats s0 = res::Budget::global().stats();
  run::FaultInjector::global().set_schedule("alloc_fail:1");
  try {
    (void)solver::extract_partial(blk, opt);
    ADD_FAILURE() << "expected ResourceExhaustedError";
  } catch (const diag::ResourceExhaustedError& e) {
    EXPECT_EQ(e.stage(), "solver-dense");
  }
  // The dense reservation is the solve's only reservation point.
  EXPECT_EQ(run::FaultInjector::global().calls("alloc_fail"), 1u);
  const res::Stats s1 = res::Budget::global().stats();
  EXPECT_EQ(s1.refusals - s0.refusals, 1u);
  // The schedule fired once; the same solve now runs.
  EXPECT_GT(solver::extract_partial(blk, opt).inductance(0, 0), 0.0);
}

TEST_F(ResTest, PersistentAllocFailExhaustsTheLadder) {
  const geom::Block blk = make_block(3, 2.0, 4.0, 800.0);
  const solver::SolveOptions opt = meshed_options(4, 4);
  const res::Stats s0 = res::Budget::global().stats();
  run::FaultInjector::global().set_schedule("alloc_fail:1+");
  std::vector<diag::Warning> warnings;
  {
    const diag::ScopedWarningHandler capture(
        [&](const diag::Warning& w) { warnings.push_back(w); });
    EXPECT_THROW(solver::extract_partial(blk, opt),
                 diag::ResourceExhaustedError);
  }
  const res::Stats s1 = res::Budget::global().stats();
  EXPECT_GE(s1.refusals - s0.refusals, 1u);
}

TEST_F(ResTest, AllocFailAtAdmissionRefuses) {
  const res::Stats s0 = res::Budget::global().stats();
  run::FaultInjector::global().set_schedule("alloc_fail:1");
  EXPECT_TRUE(res::admission_exhausted(4096));
  run::FaultInjector::global().clear();
  EXPECT_FALSE(res::admission_exhausted(4096));  // unlimited budget
  const res::Stats s1 = res::Budget::global().stats();
  EXPECT_EQ(s1.refusals - s0.refusals, 1u);
}

// ---- The transient's result block -------------------------------------

/// A driven RC divider: three nodes, so its transient result is
/// steps x 3 doubles.
ckt::Netlist rc_divider() {
  ckt::Netlist nl;
  const ckt::NodeId in = nl.add_node();
  const ckt::NodeId out = nl.add_node();
  nl.add_vsource(in, ckt::kGround, ckt::SourceWaveform::ramp(1.0, 1e-11));
  nl.add_resistor(in, out, 100.0);
  nl.add_capacitor(out, ckt::kGround, 1e-13);
  return nl;
}

TEST_F(ResTest, TransientResultOverBudgetIsRefusedTyped) {
  const ckt::Netlist nl = rc_divider();
  ckt::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 1e-6;  // 10^6 + 1 steps: a 24 MB result block
  res::Budget& b = res::Budget::global();
  b.set_limit(std::uint64_t{1} << 20);
  const res::Stats s0 = b.stats();
  try {
    (void)ckt::simulate(nl, opt);
    ADD_FAILURE() << "expected ResourceExhaustedError";
  } catch (const diag::ResourceExhaustedError& e) {
    EXPECT_EQ(e.stage(), "transient");
  }
  EXPECT_EQ(b.stats().refusals - s0.refusals, 1u);
  // Refused before the block was allocated: nothing stays charged.
  EXPECT_EQ(b.stats().reserved_bytes, s0.reserved_bytes);
  b.set_limit(0);
}

TEST_F(ResTest, AllocFailAtTransientReservationThrowsTyped) {
  const ckt::Netlist nl = rc_divider();
  ckt::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 1e-10;
  run::FaultInjector::global().set_schedule("alloc_fail:1");
  try {
    (void)ckt::simulate(nl, opt);
    ADD_FAILURE() << "expected ResourceExhaustedError";
  } catch (const diag::ResourceExhaustedError& e) {
    EXPECT_EQ(e.stage(), "transient");
  }
  // The result reservation is the transient's only reservation point.
  EXPECT_EQ(run::FaultInjector::global().calls("alloc_fail"), 1u);
  // The schedule fired once; the same transient now runs.
  EXPECT_EQ(ckt::simulate(nl, opt).steps(), 101u);
}

// ---- Pool-width determinism ------------------------------------------

TEST_F(ResTest, RefusalIdenticalAcrossPoolWidths) {
  const geom::Block blk = make_block(3, 2.0, 4.0, 800.0);
  const solver::SolveOptions opt = meshed_options(4, 4);
  for (const int width : {1, 2, 7, 0}) {
    rt::Pool::set_global_threads(width);
    const res::Stats s0 = res::Budget::global().stats();
    run::FaultInjector::global().set_schedule("alloc_fail:1");
    // The reservation point is serial by design, so the decision — one
    // reservation attempt, refused once, before any fan-out — must not
    // depend on pool width.
    EXPECT_THROW(solver::extract_partial(blk, opt),
                 diag::ResourceExhaustedError)
        << "width " << width;
    EXPECT_EQ(run::FaultInjector::global().calls("alloc_fail"), 1u)
        << "width " << width;
    run::FaultInjector::global().clear();
    EXPECT_EQ(res::Budget::global().stats().refusals - s0.refusals, 1u)
        << "width " << width;
  }
  rt::Pool::set_global_threads(0);
}

// ---- bad_alloc containment -------------------------------------------

TEST_F(ResTest, PoolRethrowsBadAllocAtTheCallSite) {
  // A worker's bad_alloc must surface at the parallel_for call site (where
  // the request boundary can contain it), not kill the worker thread.
  EXPECT_THROW(
      rt::parallel_for(0, 64,
                       [](std::size_t, std::size_t) {
                         throw std::bad_alloc();
                       }),
      std::bad_alloc);
}

struct ThrowingSource final : cli::ProviderSource {
  std::shared_ptr<const core::InductanceProvider> provider(
      const cli::ProviderRequest&, std::ostream&) override {
    throw std::bad_alloc();
  }
};

TEST_F(ResTest, CliContainsBadAllocAsExitCode7) {
  ThrowingSource source;
  std::ostringstream out, err;
  const res::Stats s0 = res::Budget::global().stats();
  const int code = cli::run({"extract", "--structure", "cpw",
                             "--length-um", "400"},
                            out, err, &source);
  const res::Stats s1 = res::Budget::global().stats();
  EXPECT_EQ(code, 7);
  EXPECT_NE(err.str().find("resource-exhausted"), std::string::npos);
  EXPECT_EQ(s1.contained_bad_allocs - s0.contained_bad_allocs, 1u);
}

// ---- CLI surface ------------------------------------------------------

TEST_F(ResTest, CliMemBudgetFlagValidatesAndRefuses) {
  std::ostringstream out1, err1;
  EXPECT_EQ(cli::run({"extract", "--structure", "cpw", "--length-um",
                      "400", "--mem-budget", "-3"},
                     out1, err1),
            2);
  EXPECT_NE(err1.str().find("--mem-budget"), std::string::npos);

  // A 1 MiB budget cannot fit any extract once the first reservation is
  // checked — exit code 7 end to end, with the typed category in stderr.
  std::ostringstream out2, err2;
  run::FaultInjector::global().set_schedule("alloc_fail:1+");
  EXPECT_EQ(cli::run({"extract", "--structure", "cpw", "--length-um",
                      "400"},
                     out2, err2),
            7);
  EXPECT_NE(err2.str().find("resource-exhausted"), std::string::npos);
}

TEST_F(ResTest, HelpDocumentsBudgetFlagAndExitCode) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("--mem-budget"), std::string::npos);
  EXPECT_NE(out.str().find("resource-exhausted"), std::string::npos);
}

TEST_F(ResTest, ExitCodeAndLabelMapping) {
  EXPECT_EQ(diag::exit_code(diag::Category::kResourceExhausted), 7);
  EXPECT_STREQ(diag::to_string(diag::Category::kResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(serve::status_label(7), "resource-exhausted");
}

// ---- Serve admission + warm store ------------------------------------

TEST_F(ResTest, AdmissionQueueRefusesOverBudgetCost) {
  res::Budget::global().set_limit(4096);
  serve::AdmissionQueue q(1, 1);
  run::CancelToken token;
  EXPECT_EQ(q.enter(token, 1 << 20),
            serve::AdmissionQueue::Admission::kRefused);
  EXPECT_EQ(q.stats().refused, 1u);
  EXPECT_EQ(q.stats().admitted, 0u);
  // Zero-cost (non-extract) requests are exempt from the cost gate.
  EXPECT_EQ(q.enter(token, 0),
            serve::AdmissionQueue::Admission::kAdmitted);
  q.leave();
  res::Budget::global().set_limit(0);
}

TEST_F(ResTest, EstimateRequestBytesCostsExtractOnly) {
  EXPECT_GT(cli::estimate_request_bytes({"extract", "--structure", "cpw",
                                         "--length-um", "400"}),
            0u);
  EXPECT_EQ(cli::estimate_request_bytes({"help"}), 0u);
  EXPECT_EQ(cli::estimate_request_bytes({"extract", "oops"}), 0u);
}

TEST_F(ResTest, WarmStoreByteBudgetEvictsButKeepsOne) {
  const ScratchDir dir("rlcx_res_warm");
  res::Budget& b = res::Budget::global();
  const std::uint64_t base = b.tracked();
  {
    // A 1-byte cap: every insert is over budget, yet one model must stay
    // resident (evicting the only entry would just rebuild it next time).
    serve::WarmTableStore store(dir.path, /*max_tables=*/8,
                                /*max_bytes=*/1);
    cli::ProviderRequest req;
    req.tech = &tech();
    req.layer = 6;
    req.planes = geom::PlaneConfig::kNone;
    req.grid = tiny_grid();
    req.options = meshed_options(1, 1);
    std::ostringstream sink;
    store.provider(req, sink);
    req.grid = tiny_grid(2.0);  // a different content address
    store.provider(req, sink);
    const serve::WarmTableStore::Stats s = store.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.resident, 1u);
    EXPECT_GT(s.resident_bytes, 0u);
    const std::vector<serve::WarmTableStore::EntryInfo> entries =
        store.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].bytes, s.resident_bytes);
    EXPECT_FALSE(entries[0].id.empty());
    // The resident entry is charged to the budget's tracked counter.
    EXPECT_GE(b.tracked(), base + s.resident_bytes);
  }
  // Destroying the store returns its charge.
  EXPECT_EQ(b.tracked(), base);
}

}  // namespace
}  // namespace rlcx
