// The relative-geometry kernel memo (PairKey) and the two-pass matrix fill.
//
// Contracts pinned here:
//  * PairKey is invariant under translation only (not under mirror
//    reflection or bar exchange), and separates genuinely different
//    geometry;
//  * the memoized fill equals the direct-fill oracle
//    (tests/support/direct_fill_reference.h) element-exactly — on a
//    dyadic uniform mesh (where translation-equal pairs are bit-identical
//    and the memo collapses them), on a perturbed mesh (where every pair
//    is its own class) and on a graded skin-depth mesh whose filaments
//    chunk at different counts;
//  * the memo hit rate clears 90 % on a skin-depth-meshed microstrip block
//    (the geometry the paper's tables are built from);
//  * the fill is element-exact deterministic across pool widths.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "diag/error.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/mesh.h"
#include "peec/partial_inductance.h"
#include "rt/pool.h"
#include "support/direct_fill_reference.h"
#include "support/partial_reference.h"

namespace rlcx::peec {
namespace {

using units::um;

Bar make_bar(double w, double t, double l, double x = 0.0, double z = 0.0,
             double y0 = 0.0, Axis axis = Axis::kY) {
  Bar b;
  b.axis = axis;
  b.a_min = y0;
  b.length = l;
  b.t_min = x;
  b.t_width = w;
  b.z_min = z;
  b.z_thick = t;
  return b;
}

TEST(PairKey, TranslationInvariant) {
  const double q = 1e-12;
  const Bar a1 = make_bar(1.0, 0.5, 40.0, 0.0, 0.0);
  const Bar b1 = make_bar(2.0, 0.5, 40.0, 3.0, 1.0);
  // The same pair, rigidly moved in all three directions.
  const Bar a2 = make_bar(1.0, 0.5, 40.0, 10.0, -2.0, 7.0);
  const Bar b2 = make_bar(2.0, 0.5, 40.0, 13.0, -1.0, 7.0);
  EXPECT_EQ(make_pair_key(a1, b1, q), make_pair_key(a2, b2, q));
}

TEST(PairKey, MirrorAndExchangeKeptApart) {
  // The key is translation-only: mirrored copies and the exchanged pair
  // are mathematically equal but sum the bracket's cancelling terms in a
  // different order, so merging them would break the memo's bit-exactness.
  const double q = 1e-12;
  const Bar a = make_bar(1.0, 0.5, 40.0, 0.0, 0.0);
  const Bar b = make_bar(2.0, 0.25, 40.0, 3.0, 1.5, 5.0);
  // Mirror the pair about the t = 0 plane (centers negate, widths keep).
  const Bar am = make_bar(1.0, 0.5, 40.0, -1.0, 0.0);
  const Bar bm = make_bar(2.0, 0.25, 40.0, -5.0, 1.5, 5.0);
  EXPECT_NE(make_pair_key(a, b, q), make_pair_key(am, bm, q));
  EXPECT_NE(make_pair_key(a, b, q), make_pair_key(b, a, q));
}

TEST(PairKey, SeparatesDifferentGeometry) {
  const double q = 1e-12;
  const Bar a = make_bar(1.0, 0.5, 40.0, 0.0, 0.0);
  const Bar b = make_bar(1.0, 0.5, 40.0, 3.0, 0.0);
  const Bar b_far = make_bar(1.0, 0.5, 40.0, 3.5, 0.0);
  const Bar b_fat = make_bar(1.25, 0.5, 40.0, 3.0, 0.0);
  EXPECT_NE(make_pair_key(a, b, q), make_pair_key(a, b_far, q));
  EXPECT_NE(make_pair_key(a, b, q), make_pair_key(a, b_fat, q));
  EXPECT_NE(make_pair_key(a, b, q), make_self_key(a, q));
}

TEST(ChunkLengthwise, ExactCover) {
  const Bar b = make_bar(1.0, 0.5, 300.0);
  const std::vector<Bar> chunks = chunk_lengthwise(b, 128.0);
  ASSERT_GT(chunks.size(), 1u);
  double len = 0.0;
  for (const Bar& c : chunks) len += c.length;
  EXPECT_NEAR(len, b.length, 1e-12 * b.length);
  EXPECT_DOUBLE_EQ(chunks.front().a_min, b.a_min);
}

/// Uniform dyadic mesh: 8x8 cells of a 1.0 x 0.5 cross-section, so every
/// cell boundary is an exact power-of-two fraction and equivalent pairs
/// present bit-identical inputs to the kernel.
std::vector<Filament> dyadic_mesh() {
  MeshOptions mo;
  mo.nw = 8;
  mo.nt = 8;
  mo.grading = 1.0;
  std::vector<Filament> fils;
  for (const Bar& b : mesh_cross_section(make_bar(1.0, 0.5, 64.0), mo))
    fils.push_back({b, 1.0, 0.0});
  return fils;
}

TEST(MemoFill, ElementExactOnUniformMesh) {
  const std::vector<Filament> fils = dyadic_mesh();
  const RealMatrix direct = direct_partial_inductance_matrix(fils);
  FillStats on;
  const RealMatrix memo =
      partial_inductance_matrix(fils, PartialOptions{}, nullptr, &on);

  ASSERT_EQ(direct.rows(), memo.rows());
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(direct(i, j), memo(i, j)) << "(" << i << "," << j << ")";

  // Every filament shares the axis: the fill looks up the whole upper
  // triangle, each lookup either evaluated or served by the memo.
  EXPECT_EQ(on.pair_lookups, fils.size() * (fils.size() + 1) / 2);
  EXPECT_EQ(on.kernel_evals + on.memo_hits, on.pair_lookups);
  // 64 filaments = 2080 pairs; the uniform grid collapses them to the
  // O(n) distinct signed (di, dj) offset classes.
  EXPECT_GT(on.hit_rate(), 0.9);
}

TEST(MemoFill, ElementExactOnPerturbedMesh) {
  // Every filament gets its own cross-section (distinct shrink per cell),
  // so no two pairs share a class and the memo must degrade gracefully to
  // the direct fill, element-exactly.
  std::vector<Filament> fils = dyadic_mesh();
  for (std::size_t i = 0; i < fils.size(); ++i) {
    const double shrink = 1.0 - 1e-4 * static_cast<double>(i + 1);
    fils[i].bar.t_width *= shrink;
    fils[i].bar.z_thick *= shrink;
  }
  const RealMatrix direct = direct_partial_inductance_matrix(fils);
  FillStats on;
  const RealMatrix memo =
      partial_inductance_matrix(fils, PartialOptions{}, nullptr, &on);
  EXPECT_EQ(on.memo_hits, 0u);
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(direct(i, j), memo(i, j)) << "(" << i << "," << j << ")";
}

TEST(MemoFill, SignsFoldedLikeDirectFill) {
  std::vector<Filament> fils = dyadic_mesh();
  for (std::size_t i = 0; i < fils.size(); ++i)
    fils[i].sign = (i % 3 == 0) ? -1.0 : 1.0;
  const RealMatrix direct = direct_partial_inductance_matrix(fils);
  const RealMatrix memo = partial_inductance_matrix(fils);
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(direct(i, j), memo(i, j));
}

/// A microstrip block the way the solver meshes one: a signal trace over a
/// ground plane split into identical uniform-pitch strips, every conductor
/// cross-section meshed for the skin depth at 5 GHz.
std::vector<Filament> microstrip_filaments() {
  const double rho = 2.2e-8;       // copper-ish [ohm m]
  const double f = 5e9;            // significant frequency [Hz]
  const double depth = skin_depth(rho, f);
  const double length = um(400);

  std::vector<Filament> fils;
  const auto add_meshed = [&](const Bar& envelope) {
    const MeshOptions mo = mesh_for_skin_depth(envelope, depth);
    for (const Bar& b : mesh_cross_section(envelope, mo))
      fils.push_back({b, 1.0, bar_resistance(b, rho)});
  };

  // Signal trace: 4 um x 1 um, centered over the plane.
  add_meshed(make_bar(um(4), um(1), length, -um(2), um(2)));
  // Ground plane: 64 strips of 4 um x 0.8 um at exact 4 um pitch.
  const int strips = 64;
  for (int i = 0; i < strips; ++i)
    add_meshed(
        make_bar(um(4), um(0.8), length, um(4) * (i - strips / 2), 0.0));
  return fils;
}

TEST(MemoFill, HitRateAbove90PercentOnMicrostrip) {
  const std::vector<Filament> fils = microstrip_filaments();
  FillStats stats;
  const RealMatrix lp =
      partial_inductance_matrix(fils, PartialOptions{}, nullptr, &stats);
  EXPECT_EQ(stats.pair_lookups,
            fils.size() * (fils.size() + 1) / 2);
  EXPECT_EQ(stats.kernel_evals + stats.memo_hits, stats.pair_lookups);
  EXPECT_GT(stats.hit_rate(), 0.9)
      << "kernel_evals=" << stats.kernel_evals
      << " lookups=" << stats.pair_lookups;
  // Sanity: symmetric, positive diagonal.
  for (std::size_t i = 0; i < lp.rows(); ++i) {
    EXPECT_GT(lp(i, i), 0.0);
    for (std::size_t j = i + 1; j < lp.cols(); ++j)
      EXPECT_EQ(lp(i, j), lp(j, i));
  }
}

TEST(MemoFill, ElementExactOnGradedMeshWithMixedChunkCounts) {
  // A signal over six ground strips, every cross-section meshed for the
  // skin depth with 2x grading (edge cells half the middle one), so the
  // filaments chunk at different counts and the engine cuts each aligned
  // pair at the larger count of its two bars.  Dyadic coordinates keep
  // translation-equal pairs bit-identical, as on the uniform mesh.
  const double depth = 1.5;
  std::vector<Filament> fils;
  const auto add_meshed = [&](const Bar& envelope) {
    const MeshOptions mo = mesh_for_skin_depth(envelope, depth);
    for (const Bar& b : mesh_cross_section(envelope, mo))
      fils.push_back({b, 1.0, 0.0});
  };
  add_meshed(make_bar(4.0, 1.0, 2048.0, -2.0, 2.0));
  for (int i = 0; i < 6; ++i)
    add_meshed(make_bar(4.0, 0.5, 2048.0, 4.0 * (i - 3), 0.0));

  PartialOptions opt;
  std::set<int> counts;
  for (const Filament& f : fils)
    counts.insert(chunk_count(f.bar, opt.max_aspect));
  ASSERT_GT(counts.size(), 1u);

  const RealMatrix direct = direct_partial_inductance_matrix(fils, opt);
  FillStats on;
  const RealMatrix memo = partial_inductance_matrix(fils, opt, nullptr, &on);
  EXPECT_GT(on.memo_hits, 0u);
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_EQ(direct(i, j), memo(i, j)) << "(" << i << "," << j << ")";
}

TEST(MemoFill, DeterministicAcrossPoolWidths) {
  const std::vector<Filament> fils = microstrip_filaments();
  rt::Pool one(1);
  rt::Pool three(3);
  const RealMatrix a =
      partial_inductance_matrix(fils, PartialOptions{}, &one);
  const RealMatrix b =
      partial_inductance_matrix(fils, PartialOptions{}, &three);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_EQ(a(i, j), b(i, j));
}

TEST(MemoFill, GlobalCountersAggregate) {
  // The process totals only grow; a fill adds exactly its own counters
  // (nothing else in this test binary fills concurrently).
  const std::vector<Filament> fils = dyadic_mesh();
  const FillStats before = fill_stats_total();
  FillStats local;
  partial_inductance_matrix(fils, PartialOptions{}, nullptr, &local);
  const FillStats after = fill_stats_total();
  EXPECT_EQ(after.pair_lookups - before.pair_lookups, local.pair_lookups);
  EXPECT_EQ(after.kernel_evals - before.kernel_evals, local.kernel_evals);
  EXPECT_EQ(after.memo_hits - before.memo_hits, local.memo_hits);
}

TEST(MemoFill, CoincidentBarsStillRejected) {
  // Two distinct filaments occupying the same volume must hit the
  // disjointness guard even though their pair key degenerates.
  std::vector<Filament> fils;
  fils.push_back({make_bar(1.0, 0.5, 64.0), 1.0, 0.0});
  fils.push_back({make_bar(1.0, 0.5, 64.0), 1.0, 0.0});
  EXPECT_THROW(partial_inductance_matrix(fils, PartialOptions{}),
               diag::GeometryError);
}

}  // namespace
}  // namespace rlcx::peec
