// The blocked LU against the textbook scalar oracle
// (tests/support/lu_reference.h), and the sparse LU of the circuit
// simulator against the dense LU.
//
// The cache-blocked factorisation reorders floating-point sums, so it is not
// bit-identical to the reference for systems wider than one panel — but it
// must agree to ~1e-13 relative on well-conditioned systems, real and
// complex, including pivot-hostile ones, and must keep the singularity and
// condition-estimate contracts of the scalar version.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include <cstdlib>

#include "diag/error.h"
#include "numeric/lu.h"
#include "numeric/lu_simd.h"
#include "numeric/matrix.h"
#include "numeric/simd.h"
#include "numeric/sparse_lu.h"
#include "support/lu_reference.h"

namespace rlcx {
namespace {

using C = std::complex<double>;

/// Deterministic LCG in [-1, 1); tests must not depend on libc rand.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  double next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return 2.0 * static_cast<double>(s_ >> 11) / 9007199254740992.0 - 1.0;
  }

 private:
  std::uint64_t s_;
};

/// Random diagonally-dominated system: well conditioned at every size.
Matrix<double> random_real(std::size_t n, Rng& rng) {
  Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next();
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) += (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(n);
  return a;
}

Matrix<C> random_complex(std::size_t n, Rng& rng) {
  Matrix<C> a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = C(rng.next(), rng.next());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += C(0.25, static_cast<double>(n));
  return a;
}

template <typename T>
double max_rel_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double scale = 0.0;
  for (const T& v : a) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  return worst;
}

template <typename T>
double max_rel_diff(const Matrix<T>& a, const Matrix<T>& b) {
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      scale = std::max(scale, std::abs(a(i, j)));
  if (scale == 0.0) scale = 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)) / scale);
  return worst;
}

// Sizes straddling the panel width (48): scalar degenerate case, one panel
// exactly, one panel plus a sliver, and several panels with a ragged tail.
const std::size_t kSizes[] = {1, 2, 3, 7, 16, 47, 48, 49, 96, 130, 200};

TEST(BlockedLu, MatchesReferenceRealAcrossSizes) {
  Rng rng(12345);
  for (const std::size_t n : kSizes) {
    Matrix<double> a = random_real(n, rng);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.next();
    const LuDecomposition<double> blocked(a);
    const ReferenceLu<double> ref(a);
    EXPECT_LT(max_rel_diff(blocked.solve(b), ref.solve(b)), 1e-13)
        << "n=" << n;
  }
}

TEST(BlockedLu, MatchesReferenceComplexAcrossSizes) {
  Rng rng(99991);
  for (const std::size_t n : kSizes) {
    Matrix<C> a = random_complex(n, rng);
    std::vector<C> b(n);
    for (auto& v : b) v = C(rng.next(), rng.next());
    const LuDecomposition<C> blocked(a);
    const ReferenceLu<C> ref(a);
    EXPECT_LT(max_rel_diff(blocked.solve(b), ref.solve(b)), 1e-13)
        << "n=" << n;
  }
}

TEST(BlockedLu, BitIdenticalToReferenceWithinOnePanel) {
  // Up to the panel width the blocked code performs exactly the textbook
  // operation sequence, so the factors and solutions are bit-identical.
  Rng rng(4242);
  for (const std::size_t n : {1u, 5u, 31u, 48u}) {
    Matrix<C> a = random_complex(n, rng);
    std::vector<C> b(n);
    for (auto& v : b) v = C(rng.next(), rng.next());
    const std::vector<C> xb = LuDecomposition<C>(a).solve(b);
    const std::vector<C> xr = ReferenceLu<C>(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(xb[i], xr[i]) << "n=" << n;
  }
}

TEST(BlockedLu, PivotHostileSystemAcrossPanels) {
  // Zero diagonal everywhere: every panel column must pivot.  The cyclic
  // shift structure spans panel boundaries, so swaps hit rows owned by
  // later panels.
  const std::size_t n = 130;
  Rng rng(777);
  Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = 0.01 * rng.next();
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 0.0;
    a((i + 1) % n, i) = 4.0 + static_cast<double>(i % 3);  // subdiagonal pivots
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.next();
  const LuDecomposition<double> blocked(a);
  const ReferenceLu<double> ref(a);
  EXPECT_LT(max_rel_diff(blocked.solve(b), ref.solve(b)), 1e-13);
  // The solution really solves the system.
  const std::vector<double> r = a * blocked.solve(b);
  EXPECT_LT(max_rel_diff(r, b), 1e-12);
}

TEST(BlockedLu, MultiRhsMatchesColumnwiseSolves) {
  Rng rng(31337);
  for (const std::size_t n : {3u, 48u, 97u, 200u}) {
    const Matrix<C> a = random_complex(n, rng);
    const std::size_t nrhs = 7;
    Matrix<C> rhs(n, nrhs);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < nrhs; ++j)
        rhs(i, j) = C(rng.next(), rng.next());
    const LuDecomposition<C> lu(a);
    const Matrix<C> x = lu.solve(rhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
      std::vector<C> col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = rhs(i, j);
      const std::vector<C> xc = lu.solve(col);
      double scale = 0.0, worst = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, std::abs(xc[i]));
      for (std::size_t i = 0; i < n; ++i)
        worst = std::max(worst, std::abs(x(i, j) - xc[i]) / scale);
      EXPECT_LT(worst, 1e-13) << "n=" << n << " col=" << j;
    }
  }
}

TEST(BlockedLu, MultiRhsResidualSmall) {
  Rng rng(2025);
  const std::size_t n = 160, nrhs = 33;  // tail block + >1 column tile shape
  const Matrix<double> a = random_real(n, rng);
  Matrix<double> rhs(n, nrhs);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nrhs; ++j) rhs(i, j) = rng.next();
  const Matrix<double> x = LuDecomposition<double>(a).solve(rhs);
  EXPECT_LT(max_rel_diff(a * x, rhs), 1e-12);
}

TEST(BlockedLu, SingularThrowsBeyondFirstPanel) {
  // A zero column past the first panel: every trailing update subtracts an
  // exact zero there, so the pivot search at column 90 must find all-zero
  // candidates and throw — regardless of how the updates are grouped.
  const std::size_t n = 100;
  Rng rng(55);
  Matrix<double> a = random_real(n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, 90) = 0.0;
  EXPECT_THROW(LuDecomposition<double>{a}, diag::SingularSystem);
}

TEST(BlockedLu, ConditionEstimateStillSane) {
  const auto id = Matrix<double>::identity(128);
  const LuDecomposition<double> lu(id);
  EXPECT_DOUBLE_EQ(lu.condition_estimate(), 1.0);
}

TEST(BlockedLu, InverseRoundTripLarge) {
  Rng rng(808);
  const std::size_t n = 96;
  const Matrix<double> a = random_real(n, rng);
  const Matrix<double> prod = a * inverse(a);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      worst = std::max(worst,
                       std::abs(prod(i, j) - (i == j ? 1.0 : 0.0)));
  EXPECT_LT(worst, 1e-11);
}

// ---------------------------------------------------------------------------
// The runtime-dispatched rank-4 micro-kernel (numeric/lu_simd.h): the AVX2
// body must be BIT-identical to the portable body — not merely close — so a
// factorisation does not depend on which ISA served it.

/// Forces a SIMD mode for the scope, restoring the environment policy.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(numeric::SimdMode m) { numeric::simd_force_mode(m); }
  ~ScopedSimdMode() {
    numeric::simd_force_mode(
        numeric::simd_mode_from_env(std::getenv("RLCX_SIMD")));
  }
};

#if defined(RLCX_HAVE_AVX2)
TEST(LuSimd, RankUpdateComplexAvx2BitIdenticalToScalar) {
  if (!numeric::simd_avx2_supported())
    GTEST_SKIP() << "no AVX2 on this machine/build";
  Rng rng(60602);
  constexpr std::size_t kCols = 31;  // odd: one 128-bit complex tail lane
  constexpr std::size_t kRows = 6;
  std::vector<std::vector<C>> rows(kRows, std::vector<C>(kCols));
  std::vector<const C*> src;
  for (auto& r : rows) {
    for (C& v : r) v = C(rng.next(), rng.next());
    src.push_back(r.data());
  }
  std::vector<C> coef(kRows);
  for (C& v : coef) v = C(rng.next(), rng.next());
  coef[4] = C(0.0, 0.0);
  for (const std::size_t m : {1u, 2u, 4u, 6u}) {
    for (const std::size_t cbeg : {0u, 1u, 4u}) {
      std::vector<C> ds(kCols), dv(kCols);
      for (std::size_t c = 0; c < kCols; ++c)
        ds[c] = dv[c] = C(rng.next(), rng.next());
      numeric::lu_scalar::rank_update(ds.data(), src.data(), coef.data(), m,
                                      cbeg, kCols);
      numeric::lu_avx2::rank_update(dv.data(), src.data(), coef.data(), m,
                                    cbeg, kCols);
      for (std::size_t c = 0; c < kCols; ++c)
        EXPECT_EQ(ds[c], dv[c]) << "m=" << m << " cbeg=" << cbeg
                                << " c=" << c;
    }
  }
}
#endif  // RLCX_HAVE_AVX2

TEST(LuSimd, PivotHostileFactorizationAgreesAcrossSimdModes) {
  // The full blocked complex LU through the dispatcher, both modes, on a
  // system where every panel column pivots across panel boundaries: each
  // mode must match the textbook oracle to 1e-13, and each other bit for
  // bit.
  const std::size_t n = 130;
  Rng rng(777);
  Matrix<C> a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 0.01 * C(rng.next(), rng.next());
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 0.0;
    a((i + 1) % n, i) = C(4.0 + static_cast<double>(i % 3), 1.0);
  }
  std::vector<C> b(n);
  for (auto& v : b) v = C(rng.next(), rng.next());
  const std::vector<C> oracle = ReferenceLu<C>(a).solve(b);

  std::vector<C> x_scalar;
  {
    ScopedSimdMode mode(numeric::SimdMode::kScalar);
    x_scalar = LuDecomposition<C>(a).solve(b);
  }
  EXPECT_LT(max_rel_diff(x_scalar, oracle), 1e-13);
  if (!numeric::simd_avx2_supported())
    GTEST_SKIP() << "no AVX2 on this machine/build";
  std::vector<C> x_avx2;
  {
    ScopedSimdMode mode(numeric::SimdMode::kAvx2);
    x_avx2 = LuDecomposition<C>(a).solve(b);
  }
  EXPECT_LT(max_rel_diff(x_avx2, oracle), 1e-13);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_scalar[i], x_avx2[i]);
}

TEST(LuSimd, ComplexMultiRhsAgreesAcrossSimdModes) {
  // The multi-RHS substitutions drive the same micro-kernel; complex with
  // a ragged RHS tile must also be mode-independent bit for bit.
  Rng rng(424243);
  const std::size_t n = 97, nrhs = 5;
  const Matrix<C> a = random_complex(n, rng);
  Matrix<C> rhs(n, nrhs);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nrhs; ++j)
      rhs(i, j) = C(rng.next(), rng.next());

  Matrix<C> x_scalar(0, 0);
  {
    ScopedSimdMode mode(numeric::SimdMode::kScalar);
    x_scalar = LuDecomposition<C>(a).solve(rhs);
  }
  const ReferenceLu<C> ref(a);
  for (std::size_t j = 0; j < nrhs; ++j) {
    std::vector<C> col(n), xcol(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = rhs(i, j);
    const std::vector<C> xr = ref.solve(col);
    for (std::size_t i = 0; i < n; ++i) xcol[i] = x_scalar(i, j);
    EXPECT_LT(max_rel_diff(xcol, xr), 1e-13) << "col=" << j;
  }
  if (!numeric::simd_avx2_supported())
    GTEST_SKIP() << "no AVX2 on this machine/build";
  Matrix<C> x_avx2(0, 0);
  {
    ScopedSimdMode mode(numeric::SimdMode::kAvx2);
    x_avx2 = LuDecomposition<C>(a).solve(rhs);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nrhs; ++j)
      EXPECT_EQ(x_scalar(i, j), x_avx2(i, j));
}

// ---- Sparse LU (numeric/sparse_lu.h) against the dense LU -------------

/// A random sparse system with MNA's awkward features: ~4 entries per
/// column, a third of the diagonals structurally zero, and duplicates.
std::vector<numeric::Triplet> random_sparse(std::size_t n, Rng& rng) {
  std::vector<numeric::Triplet> t;
  for (std::size_t j = 0; j < n; ++j) {
    if (j % 3 != 0) t.push_back({j, j, 4.0 + rng.next()});
    t.push_back({(j + 1) % n, j, 1.0 + 0.5 * rng.next()});
    t.push_back({j, (j + 1) % n, 1.0 + 0.5 * rng.next()});
    const auto far = static_cast<std::size_t>(
        (0.5 + 0.5 * rng.next()) * static_cast<double>(n - 1));
    t.push_back({far, j, rng.next()});
    t.push_back({far, j, rng.next()});  // duplicate: summed
  }
  return t;
}

TEST(SparseLu, AgreesWithDenseLuIncludingZeroDiagonals) {
  for (std::size_t n : {1, 2, 7, 40, 300}) {
    Rng rng(n);
    const std::vector<numeric::Triplet> t = n == 1
        ? std::vector<numeric::Triplet>{{0, 0, 2.5}}
        : random_sparse(n, rng);
    RealMatrix dense(n, n);
    for (const numeric::Triplet& e : t) dense(e.row, e.col) += e.value;
    std::vector<double> b(n);
    for (double& v : b) v = rng.next();

    numeric::SparseLu lu(numeric::CscMatrix::from_triplets(n, t));
    std::vector<double> x = b;
    lu.solve(x);
    const std::vector<double> want = LuDecomposition<double>(dense).solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], want[i], 1e-12 * (1.0 + std::abs(want[i])))
          << "n=" << n << " i=" << i;
  }
}

TEST(SparseLu, TripletsSumDuplicatesAndMultiply) {
  const numeric::CscMatrix a = numeric::CscMatrix::from_triplets(
      3, {{0, 0, 1.0}, {2, 1, 2.0}, {0, 0, 3.0}, {1, 2, -1.0}, {2, 1, 0.5}});
  EXPECT_EQ(a.nnz(), 3u);
  EXPECT_EQ(a.multiply({1.0, 2.0, 3.0}), (std::vector<double>{4.0, -3.0, 5.0}));
  EXPECT_THROW(numeric::CscMatrix::from_triplets(2, {{2, 0, 1.0}}),
               diag::UsageError);
}

TEST(SparseLu, SingularColumnIsNamed) {
  // Columns 1 and 2 are identical: elimination leaves column 2 with no
  // usable pivot (exactly zero), whichever of the two is ordered first.
  const numeric::CscMatrix a = numeric::CscMatrix::from_triplets(
      3, {{0, 0, 2.0}, {0, 1, 1.0}, {0, 2, 1.0}, {1, 0, 1.0}});
  try {
    numeric::SparseLu lu(a);
    FAIL() << "a singular matrix must be rejected";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.dimension(), 3u);
    EXPECT_TRUE(e.column() == 1 || e.column() == 2) << e.column();
  }
  const numeric::CscMatrix nan = numeric::CscMatrix::from_triplets(
      2, {{0, 0, std::numeric_limits<double>::quiet_NaN()}, {1, 1, 1.0}});
  EXPECT_THROW(numeric::SparseLu{nan}, diag::SingularSystem);
}

}  // namespace
}  // namespace rlcx
