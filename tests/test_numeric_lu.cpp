// The dense LU on systems that stress its pivot search, and the sparse LU
// of the circuit simulator against the dense LU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "diag/error.h"
#include "numeric/matrix.h"
#include "numeric/sparse_lu.h"
#include "support/lu_reference.h"

namespace rlcx {
namespace {

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

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double scale = 0.0;
  for (const double v : a) scale = std::max(scale, std::abs(v));
  if (scale == 0.0) scale = 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  return worst;
}

TEST(Lu, PivotHostileSystem) {
  // Zero diagonal everywhere: every column must pivot, and the cyclic
  // shift structure makes each swap reach a row far below the diagonal.
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
  const std::vector<double> r = a * LuDecomposition<double>(a).solve(b);
  EXPECT_LT(max_rel_diff(r, b), 1e-12);
}

TEST(Lu, SingularThrowsBeyondColumn48) {
  // A zero column deep in the matrix: every update subtracts an exact zero
  // there, so the pivot search at column 90 must find all-zero candidates
  // and throw, naming the column.
  const std::size_t n = 100;
  Rng rng(55);
  Matrix<double> a = random_real(n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, 90) = 0.0;
  try {
    LuDecomposition<double> lu(a);
    FAIL() << "a singular matrix must be rejected";
  } catch (const diag::SingularSystem& e) {
    EXPECT_EQ(e.column(), 90u);
    EXPECT_EQ(e.dimension(), n);
  }
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
