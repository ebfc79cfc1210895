// Unit tests for the dense matrix and LU machinery.
#include <gtest/gtest.h>

#include <complex>

#include "numeric/matrix.h"
#include "support/lu_reference.h"

namespace rlcx {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  Matrix<double> m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitThrows) {
  EXPECT_THROW((Matrix<double>{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMultiply) {
  const auto id = Matrix<double>::identity(3);
  Matrix<double> a{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
  const auto b = a * id;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b(i, j), a(i, j));
}

TEST(Matrix, Transpose) {
  Matrix<double> a{{1, 2, 3}, {4, 5, 6}};
  const auto t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, AddSubtractScale) {
  Matrix<double> a{{1, 2}, {3, 4}};
  Matrix<double> b{{4, 3}, {2, 1}};
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  const auto d = a - b;
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  const auto sc = 2.0 * a;
  EXPECT_DOUBLE_EQ(sc(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix<double> a(2, 2), b(3, 3);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatVec) {
  Matrix<double> a{{1, 2}, {3, 4}};
  const std::vector<double> y = a * std::vector<double>{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix<double> a{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}};
  const std::vector<double> b{5, -2, 9};
  LuDecomposition<double> lu(a);
  const auto x = lu.solve(b);
  // Verify A x = b.
  const auto r = a * x;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // a(0,0) = 0 forces a row swap.
  Matrix<double> a{{0, 1}, {1, 0}};
  LuDecomposition<double> lu(a);
  const auto x = lu.solve(std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  Matrix<double> a{{1, 2}, {2, 4}};
  EXPECT_THROW(LuDecomposition<double>{a}, std::runtime_error);
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  Matrix<C> a{{C(1, 1), C(2, 0)}, {C(0, -1), C(1, 2)}};
  const std::vector<C> b{C(3, 1), C(0, 2)};
  LuDecomposition<C> lu(a);
  const auto x = lu.solve(b);
  const auto r = a * x;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(r[i].real(), b[i].real(), 1e-12);
    EXPECT_NEAR(r[i].imag(), b[i].imag(), 1e-12);
  }
}

TEST(Lu, InverseRoundTrip) {
  Matrix<double> a{{4, 2, 0.5}, {2, 5, 1}, {0.5, 1, 3}};
  const auto inv =
      LuDecomposition<double>(a).solve(Matrix<double>::identity(3));
  const auto prod = a * inv;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, MatrixRhs) {
  Matrix<double> a{{3, 1}, {1, 2}};
  Matrix<double> b{{1, 0}, {0, 1}};
  LuDecomposition<double> lu(a);
  const auto x = lu.solve(b);
  const auto prod = a * x;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

// Property sweep: random-ish SPD systems of growing size solve to high
// residual accuracy.
class LuSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizeSweep, ResidualSmall) {
  const std::size_t n = GetParam();
  Matrix<double> a(n, n);
  // Deterministic diagonally-dominant fill.
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = std::sin(static_cast<double>(i * 31 + j * 7 + 1));
      row += std::abs(a(i, j));
    }
    a(i, i) = row + 1.0;
  }
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(static_cast<double>(i));
  LuDecomposition<double> lu(a);
  const auto x = lu.solve(b);
  const auto r = a * x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizeSweep,
                         ::testing::Values<std::size_t>(1, 2, 5, 17, 64, 150));

}  // namespace
}  // namespace rlcx
