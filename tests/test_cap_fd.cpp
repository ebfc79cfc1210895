// Validation of the 2-D finite-difference capacitance solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cap/fd2d.h"
#include "cap/models.h"
#include "diag/error.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "run/control.h"
#include "run/fault_injection.h"

namespace rlcx::cap {
namespace {

using units::um;

Fd2dOptions coarse() {
  Fd2dOptions o;
  o.cell = 0.5e-6;
  o.margin = 10e-6;
  return o;
}

TEST(Fd2d, ParallelPlateLimit) {
  // A very wide conductor close to the plane: C ~ eps w / h plus fringe.
  const double w = um(40), h = um(1), t = um(1);
  std::vector<FdConductor> cs{{0.0, w, h, h + t}};
  Fd2dOptions opt = coarse();
  opt.cell = 0.25e-6;
  const RealMatrix c = fd_capacitance_matrix(cs, 3.9, 0.0, opt);
  const double plate = parallel_plate_cul(w, h, 3.9);
  EXPECT_GT(c(0, 0), plate);         // fringe adds
  EXPECT_LT(c(0, 0), 1.35 * plate);  // but is modest for w/h = 40
}

TEST(Fd2d, MatrixSignsAndSymmetry) {
  std::vector<FdConductor> cs{
      {0.0, um(4), um(2), um(4)},
      {um(6), um(10), um(2), um(4)},
      {um(13), um(17), um(2), um(4)},
  };
  const RealMatrix c = fd_capacitance_matrix(cs, 3.9, 0.0, coarse());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(c(i, i), 0.0);
    double row = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_LT(c(i, j), 0.0);
      }
      EXPECT_DOUBLE_EQ(c(i, j), c(j, i));
      row += c(i, j);
    }
    EXPECT_GT(row, 0.0);  // every conductor holds net cap to ground
  }
}

TEST(Fd2d, CouplingDecaysWithSpacing) {
  auto coupling = [&](double s_um) {
    std::vector<FdConductor> cs{
        {0.0, um(4), um(2), um(4)},
        {um(4) + um(s_um), um(8) + um(s_um), um(2), um(4)},
    };
    const RealMatrix c = fd_capacitance_matrix(cs, 3.9, 0.0, coarse());
    return -c(0, 1);
  };
  const double c1 = coupling(1.0);
  const double c2 = coupling(2.0);
  const double c4 = coupling(4.0);
  EXPECT_GT(c1, c2);
  EXPECT_GT(c2, c4);
  EXPECT_GT(c4, 0.0);
}

TEST(Fd2d, AgreesWithSakuraiWithinModelSpread) {
  // Single line over a plane: FD total vs the Sakurai closed form.  These
  // are independent models; 25% agreement is the expected band.
  const double w = um(4), t = um(2), h = um(2);
  std::vector<FdConductor> cs{{0.0, w, h, h + t}};
  const RealMatrix c = fd_capacitance_matrix(cs, 3.9, 0.0, coarse());
  const double sak = sakurai_total_cul(w, t, h, 3.9);
  EXPECT_NEAR(c(0, 0), sak, 0.25 * sak);
}

TEST(Fd2d, BlockWrapperMatchesManualSetup) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::Block blk =
      geom::coplanar_waveguide(tech, 6, um(100), um(4), um(4), um(1));
  const RealMatrix c = fd_block_capacitance(blk, coarse());
  ASSERT_EQ(c.rows(), 3u);
  EXPECT_GT(c(1, 1), 0.0);
  EXPECT_LT(c(0, 1), 0.0);
  // Symmetric structure: both couplings equal.
  EXPECT_NEAR(c(0, 1), c(1, 2), 0.03 * std::abs(c(0, 1)));
}

TEST(Fd2d, ExtractFdTrendsMatchClosedForms) {
  // Gaps must span several grid cells or the sidewall field is unresolved:
  // with 0.25 um cells, a 1.5 um gap has 6 cells across.
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::Block tight =
      geom::coplanar_waveguide(tech, 6, um(100), um(4), um(4), um(1.5));
  const geom::Block loose =
      geom::coplanar_waveguide(tech, 6, um(100), um(4), um(4), um(4));
  Fd2dOptions fine = coarse();
  fine.cell = 0.25e-6;
  const FdCapResult ct = extract_cap_fd(tight, fine);
  const FdCapResult cl = extract_cap_fd(loose, fine);
  ASSERT_EQ(ct.cc.size(), 2u);
  EXPECT_GT(ct.cc[0], cl.cc[0]);  // closer -> more coupling
  EXPECT_LT(ct.cg[1], cl.cg[1]);  // closer neighbours shield the plane
}

TEST(Fd2d, ErrorPaths) {
  EXPECT_THROW(fd_capacitance_matrix({}, 3.9, 0.0, coarse()),
               std::invalid_argument);
  std::vector<FdConductor> degenerate{{0.0, 0.0, um(1), um(2)}};
  EXPECT_THROW(fd_capacitance_matrix(degenerate, 3.9, 0.0, coarse()),
               std::invalid_argument);
  std::vector<FdConductor> overlap{{0.0, um(4), um(1), um(2)},
                                   {um(2), um(6), um(1), um(2)}};
  EXPECT_THROW(fd_capacitance_matrix(overlap, 3.9, 0.0, coarse()),
               std::invalid_argument);
  std::vector<FdConductor> ok{{0.0, um(4), um(1), um(2)}};
  Fd2dOptions bad = coarse();
  bad.cell = 0.0;
  EXPECT_THROW(fd_capacitance_matrix(ok, 3.9, 0.0, bad),
               std::invalid_argument);
  EXPECT_THROW(fd_capacitance_matrix(ok, 0.0, 0.0, coarse()),
               std::invalid_argument);
  // Plane above the conductors is rejected.
  EXPECT_THROW(fd_capacitance_matrix(ok, 3.9, um(5), coarse()),
               std::invalid_argument);
  // A grid past kFdMaxGridNodes is a usage error, refused before it is
  // allocated.
  Fd2dOptions fine = coarse();
  fine.cell = 0.01e-6;
  EXPECT_THROW(fd_capacitance_matrix(ok, 3.9, 0.0, fine), diag::UsageError);
}

TEST(Fd2d, MirrorLayoutGivesMirrorMatrix) {
  // Three equal traces placed symmetrically on grid nodes (with the coarse
  // cell the x nodes run 0..72 and the traces span 20-28, 32-40, 44-52):
  // the discrete problem is its own mirror image, so the exact discrete
  // solution gives the outer traces equal self capacitance and equal
  // coupling to the middle one, with or without the ground plane.
  const std::vector<FdConductor> cs{
      {0.0, um(4), um(2), um(4)},
      {um(6), um(10), um(2), um(4)},
      {um(12), um(16), um(2), um(4)},
  };
  for (const double plane_z :
       {0.0, -std::numeric_limits<double>::infinity()}) {
    const RealMatrix c = fd_capacitance_matrix(cs, 3.9, plane_z, coarse());
    EXPECT_LE(std::abs(c(0, 0) - c(2, 2)), 1e-12 * c(0, 0))
        << "plane_z=" << plane_z;
    EXPECT_LE(std::abs(c(0, 1) - c(1, 2)), 1e-12 * c(0, 0))
        << "plane_z=" << plane_z;
  }
}

TEST(Fd2d, CancelSiteUnwindsAtEveryCheckpoint) {
  // The solve checks the run control before its one factorisation and
  // before each drive; a cancellation at any of them unwinds as
  // CancelledError, and a rerun under a fresh control is bit-identical.
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } injector_reset;
  const std::vector<FdConductor> cs{
      {0.0, um(4), um(2), um(4)},
      {um(6), um(10), um(2), um(4)},
  };
  RealMatrix reference;
  std::uint64_t checkpoints = 0;
  {
    run::CancelToken token;
    run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
    run::FaultInjector::global().set_schedule("cancel:1000000000");
    reference = fd_capacitance_matrix(cs, 3.9, 0.0, coarse());
    checkpoints = run::FaultInjector::global().calls("cancel");
    run::FaultInjector::global().clear();
  }
  EXPECT_EQ(checkpoints, 1u + cs.size());
  for (std::uint64_t k = 1; k <= checkpoints; ++k) {
    run::CancelToken token;
    run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
    run::FaultInjector::global().set_schedule("cancel:" + std::to_string(k));
    EXPECT_THROW((void)fd_capacitance_matrix(cs, 3.9, 0.0, coarse()),
                 diag::CancelledError)
        << "checkpoint " << k;
    run::FaultInjector::global().clear();
  }
  run::CancelToken token;
  run::ScopedRunControl control(run::RunControl{token, run::Deadline{}});
  const RealMatrix rerun = fd_capacitance_matrix(cs, 3.9, 0.0, coarse());
  for (std::size_t i = 0; i < cs.size(); ++i)
    for (std::size_t j = 0; j < cs.size(); ++j)
      EXPECT_EQ(rerun(i, j), reference(i, j));
}

TEST(Fd2d, GridRefinementConverges) {
  const double w = um(4), t = um(2), h = um(2);
  std::vector<FdConductor> cs{{0.0, w, h, h + t}};
  Fd2dOptions o1 = coarse();
  o1.cell = 1.0e-6;
  Fd2dOptions o2 = coarse();
  o2.cell = 0.5e-6;
  Fd2dOptions o3 = coarse();
  o3.cell = 0.25e-6;
  const double c1 = fd_capacitance_matrix(cs, 3.9, 0.0, o1)(0, 0);
  const double c2 = fd_capacitance_matrix(cs, 3.9, 0.0, o2)(0, 0);
  const double c3 = fd_capacitance_matrix(cs, 3.9, 0.0, o3)(0, 0);
  EXPECT_LT(std::abs(c3 - c2), std::abs(c2 - c1) + 1e-18);
}

}  // namespace
}  // namespace rlcx::cap
