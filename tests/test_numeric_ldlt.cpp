// The complex-symmetric LDLᵀ (numeric/ldlt.h) against the pivoted LU.
//
// On Z = diag(R) + jωL with R > 0 and L symmetric positive definite — the
// PEEC filament impedance — the unpivoted factorisation must reproduce the
// LU's Z⁻¹ and PᵀZ⁻¹P to 1e-12 relative at sizes that cross the panel
// boundaries (48), give bit-identical factors on every ISA (down to its
// rank-4 micro-kernel, numeric/ldlt_simd.h), and refuse a zero or
// non-finite pivot with a typed SingularSystem.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "diag/error.h"
#include "numeric/ldlt.h"
#include "numeric/ldlt_simd.h"
#include "numeric/matrix.h"
#include "numeric/simd.h"
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

/// diag(R) + jωL: L = B Bᵀ/n + 0.05 I (dense SPD, mutuals comparable to
/// selves like a plane's strips), R in [0.02, 0.06] against |ωL| ~ 0.3, so
/// the system is inductance-dominated as at the significant frequency.
ComplexMatrix impedance(std::size_t n, Rng& rng) {
  RealMatrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.next();
  ComplexMatrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double l = 0.0;
      for (std::size_t k = 0; k < n; ++k) l += b(i, k) * b(j, k);
      l /= static_cast<double>(n);
      if (i == j) l += 0.05;
      z(i, j) = z(j, i) = C(0.0, l);
    }
  for (std::size_t i = 0; i < n; ++i) z(i, i) += 0.04 + 0.02 * rng.next();
  return z;
}

double max_rel_diff(const ComplexMatrix& a, const ComplexMatrix& b) {
  double scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      scale = std::max(scale, std::abs(a(i, j)));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)) / scale);
  return worst;
}

/// 0/1 incidence of n filaments on m ports, in contiguous runs.
ComplexMatrix incidence(std::size_t n, std::size_t m) {
  ComplexMatrix p(n, m);
  for (std::size_t i = 0; i < n; ++i) p(i, i * m / n) = 1.0;
  return p;
}

struct ScopedSimdMode {
  explicit ScopedSimdMode(numeric::SimdMode m) { numeric::simd_force_mode(m); }
  ~ScopedSimdMode() {
    numeric::simd_force_mode(
        numeric::simd_mode_from_env(std::getenv("RLCX_SIMD")));
  }
};

// One column, one panel less a column, exactly one panel, one panel plus
// one, and the two production plane sizes (76: one plane; 196: two).
const std::size_t kSizes[] = {1, 47, 48, 49, 76, 196};

TEST(Ldlt, InverseMatchesLuAcrossPanelBoundaries) {
  Rng rng(20261019);
  for (const std::size_t n : kSizes) {
    const ComplexMatrix z = impedance(n, rng);
    const ComplexMatrix lu_inv =
        LuDecomposition<C>(z).solve(ComplexMatrix::identity(n));
    const ComplexMatrix ldlt_inv =
        ComplexSymmetricLdlt(z).reduce(ComplexMatrix::identity(n));
    EXPECT_LT(max_rel_diff(lu_inv, ldlt_inv), 1e-12) << "n=" << n;
  }
}

TEST(Ldlt, PortReductionMatchesLuMultiRhs) {
  // PᵀZ⁻¹P through one forward sweep against the LU's forward and backward
  // substitutions.
  Rng rng(77);
  for (const std::size_t n : kSizes) {
    const ComplexMatrix z = impedance(n, rng);
    for (const std::size_t m : {std::size_t{1}, std::size_t{3},
                                std::min<std::size_t>(n, 17)}) {
      const ComplexMatrix p = incidence(n, m);
      const ComplexMatrix x = LuDecomposition<C>(z).solve(p);
      const ComplexMatrix y_lu = p.transpose() * x;
      const ComplexMatrix y = ComplexSymmetricLdlt(z).reduce(p);
      EXPECT_LT(max_rel_diff(y_lu, y), 1e-12) << "n=" << n << " m=" << m;
      for (std::size_t a = 0; a < m; ++a)
        for (std::size_t b = 0; b < m; ++b) EXPECT_EQ(y(a, b), y(b, a));
    }
  }
}

TEST(Ldlt, ReadsOnlyTheLowerTriangle) {
  Rng rng(5);
  const std::size_t n = 97;
  const ComplexMatrix z = impedance(n, rng);
  ComplexMatrix lower = z;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) lower(i, j) = C(1e30, -7.0);
  const ComplexMatrix p = incidence(n, 4);
  const ComplexMatrix a = ComplexSymmetricLdlt(z).reduce(p);
  const ComplexMatrix b = ComplexSymmetricLdlt(lower).reduce(p);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(a(i, j), b(i, j));
}

TEST(Ldlt, BitIdenticalAcrossSimdModes) {
  // The trailing update and the forward sweep run through the dispatched
  // rank-4 kernel; the factors and the reduction must not depend on which
  // body served them.
  if (!numeric::simd_avx2_supported())
    GTEST_SKIP() << "no AVX2 on this machine/build";
  Rng rng(4242);
  for (const std::size_t n : {std::size_t{76}, std::size_t{196}}) {
    const ComplexMatrix z = impedance(n, rng);
    const ComplexMatrix p = incidence(n, 3);
    ComplexMatrix y_scalar(0, 0);
    {
      ScopedSimdMode mode(numeric::SimdMode::kScalar);
      y_scalar = ComplexSymmetricLdlt(z).reduce(p);
    }
    ComplexMatrix y_avx2(0, 0);
    {
      ScopedSimdMode mode(numeric::SimdMode::kAvx2);
      y_avx2 = ComplexSymmetricLdlt(z).reduce(p);
    }
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t b = 0; b < 3; ++b)
        EXPECT_EQ(y_scalar(a, b), y_avx2(a, b)) << "n=" << n;
  }
}

#if defined(RLCX_HAVE_AVX2)
TEST(LdltSimd, RankUpdateComplexAvx2BitIdenticalToScalar) {
  // The AVX2 body must be BIT-identical to the portable body — not merely
  // close — so a factorisation does not depend on which ISA served it.
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
      numeric::ldlt_scalar::rank_update(ds.data(), src.data(), coef.data(),
                                        m, cbeg, kCols);
      numeric::ldlt_avx2::rank_update(dv.data(), src.data(), coef.data(), m,
                                      cbeg, kCols);
      for (std::size_t c = 0; c < kCols; ++c)
        EXPECT_EQ(ds[c], dv[c]) << "m=" << m << " cbeg=" << cbeg
                                << " c=" << c;
    }
  }
}
#endif  // RLCX_HAVE_AVX2

TEST(Ldlt, ZeroPivotBeyondFirstPanelIsTypedSingular) {
  Rng rng(9);
  const std::size_t n = 60;
  ComplexMatrix z = impedance(n, rng);
  // A conductor coupled to nothing and with no impedance of its own: its
  // pivot stays exactly zero through every update.
  for (std::size_t k = 0; k < n; ++k) z(50, k) = z(k, 50) = 0.0;
  try {
    (void)ComplexSymmetricLdlt(z);
    FAIL() << "expected SingularSystem";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.stage(), "ldlt");
    EXPECT_EQ(e.column(), 50u);
    EXPECT_EQ(e.dimension(), n);
    EXPECT_EQ(diag::category_of(e, diag::Category::kUsage),
              diag::Category::kNumeric);
  }
}

TEST(Ldlt, NonFinitePivotIsTypedSingular) {
  Rng rng(10);
  ComplexMatrix z = impedance(8, rng);
  z(3, 3) = C(std::numeric_limits<double>::quiet_NaN(), 0.0);
  try {
    (void)ComplexSymmetricLdlt(z);
    FAIL() << "expected SingularSystem";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.column(), 3u);
    EXPECT_NE(e.message().find("non-finite"), std::string::npos);
  }
}

TEST(Ldlt, RejectsNonSquareAndMismatchedIncidence) {
  EXPECT_THROW(ComplexSymmetricLdlt(ComplexMatrix(3, 4)), diag::UsageError);
  Rng rng(11);
  const ComplexSymmetricLdlt f(impedance(5, rng));
  EXPECT_THROW((void)f.reduce(ComplexMatrix(4, 2)), diag::UsageError);
}

TEST(Ldlt, ConditionEstimateIsPivotRatio) {
  ComplexMatrix z(3, 3);
  z(0, 0) = C(1.0, 3.0);
  z(1, 1) = C(0.5, 0.0);
  z(2, 2) = C(0.0, -8.0);
  const ComplexSymmetricLdlt f(z);
  EXPECT_DOUBLE_EQ(f.condition_estimate(), 16.0);
  EXPECT_EQ(ComplexSymmetricLdlt(ComplexMatrix(0, 0)).condition_estimate(),
            1.0);
}

}  // namespace
}  // namespace rlcx
