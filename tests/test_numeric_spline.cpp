// Unit and property tests for cubic-spline interpolation: the linear-
// functional TensorSpline against the spline-of-splines oracle
// (tests/support/spline_reference.h), and the oracle's own CubicSpline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "numeric/spline.h"
#include "support/spline_reference.h"

namespace rlcx {
namespace {

/// Relative deviation the linear form may have from the oracle: both are
/// the same interpolant, they differ in rounding only.
constexpr double kOracleTol = 1e-12;

double eval(const TensorSpline& t, const std::vector<double>& values,
            const std::vector<double> q) {
  return t.eval(values, q);
}

TEST(CubicSpline, ReproducesKnots) {
  const std::vector<double> x{0.0, 1.0, 2.5, 4.0};
  const std::vector<double> y{1.0, -2.0, 0.5, 3.0};
  CubicSpline s(x, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s.eval(x[i]), y[i], 1e-12);
}

TEST(CubicSpline, ExactOnLinearData) {
  // Natural splines reproduce linear functions exactly.
  const auto x = linspace(0.0, 10.0, 7);
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 * xi - 2.0);
  CubicSpline s(x, y);
  for (double q = -1.0; q <= 11.0; q += 0.37)
    EXPECT_NEAR(s.eval(q), 3.0 * q - 2.0, 1e-10);
}

TEST(CubicSpline, SmoothFunctionAccuracy) {
  const auto x = linspace(0.0, 3.141592653589793, 21);
  std::vector<double> y;
  for (double xi : x) y.push_back(std::sin(xi));
  CubicSpline s(x, y);
  for (double q = 0.05; q < 3.1; q += 0.11)
    EXPECT_NEAR(s.eval(q), std::sin(q), 2e-4);
}

TEST(CubicSpline, LinearExtrapolationBeyondRange) {
  const auto x = linspace(1.0, 2.0, 5);
  std::vector<double> y;
  for (double xi : x) y.push_back(xi * xi);
  CubicSpline s(x, y);
  // Outside the range the continuation is linear: second differences vanish.
  const double f1 = s.eval(3.0), f2 = s.eval(4.0), f3 = s.eval(5.0);
  EXPECT_NEAR(f3 - f2, f2 - f1, 1e-9);
}

TEST(CubicSpline, RejectsBadInput) {
  EXPECT_THROW(CubicSpline({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CubicSpline({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(CubicSpline({2.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(CubicSpline({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(CubicSpline, DerivativeMatchesFiniteDifference) {
  const auto x = linspace(0.0, 2.0, 15);
  std::vector<double> y;
  for (double xi : x) y.push_back(std::exp(xi));
  CubicSpline s(x, y);
  const double q = 0.73;
  const double fd = (s.eval(q + 1e-6) - s.eval(q - 1e-6)) / 2e-6;
  EXPECT_NEAR(s.derivative(q), fd, 1e-5);
}

TEST(TensorSpline, MatchesBicubicOnSeparableFunction) {
  const auto ax = linspace(0.0, 2.0, 9);
  const auto ay = linspace(1.0, 3.0, 11);
  std::vector<double> vals;
  for (double x : ax)
    for (double y : ay) vals.push_back(std::sin(x) * std::log(y));
  const TensorSpline t({ax, ay});
  // Natural boundary conditions cost some accuracy near the grid edges;
  // a few 1e-3 absolute is the expected bicubic error at this density.
  for (double x = 0.1; x < 2.0; x += 0.3)
    for (double y = 1.1; y < 3.0; y += 0.4)
      EXPECT_NEAR(eval(t, vals, {x, y}), std::sin(x) * std::log(y), 5e-3);
}

TEST(TensorSpline, FourDimensionalLookup) {
  // A 4-D multilinear function is reproduced exactly.
  const auto a = linspace(0.0, 1.0, 3);
  std::vector<double> vals;
  for (double w1 : a)
    for (double w2 : a)
      for (double s : a)
        for (double l : a)
          vals.push_back(1.0 + w1 + 2.0 * w2 + 3.0 * s + 4.0 * l);
  const TensorSpline t({a, a, a, a});
  EXPECT_NEAR(eval(t, vals, {0.25, 0.5, 0.75, 0.1}),
              1.0 + 0.25 + 1.0 + 2.25 + 0.4, 1e-9);
}

TEST(TensorSpline, ValueCountMismatchThrows) {
  const TensorSpline t({{0.0, 1.0}, {0.0, 1.0}});
  EXPECT_EQ(t.size(), 4u);
  EXPECT_THROW(eval(t, {1.0, 2.0, 3.0}, {0.5, 0.5}), std::invalid_argument);
}

TEST(TensorSpline, QueryDimensionMismatchThrows) {
  const TensorSpline t({{0.0, 1.0}});
  EXPECT_THROW(eval(t, {0.0, 1.0}, {0.5, 0.5}), std::invalid_argument);
}

TEST(TensorSpline, RejectsBadAxes) {
  using Axes = std::vector<std::vector<double>>;
  EXPECT_THROW(TensorSpline(Axes{{1.0}}), std::invalid_argument);
  EXPECT_THROW(TensorSpline(Axes{{1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(TensorSpline(Axes{{2.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(TensorSpline(Axes(TensorSpline::kMaxDims + 1, {0.0, 1.0})),
               std::invalid_argument);
}

/// A seeded table on `dims` geometric axes of 2..6 knots, values in [1, 2].
struct RandomTable {
  std::vector<std::vector<double>> axes;
  std::vector<double> values;
};

RandomTable random_table(std::size_t dims, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> knots(2, 6);
  std::uniform_real_distribution<double> value(1.0, 2.0);
  RandomTable t;
  std::size_t size = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const double lo = std::pow(10.0, static_cast<double>(d) - 6.0);
    t.axes.push_back(geomspace(lo, 20.0 * lo, knots(rng)));
    size *= t.axes.back().size();
  }
  for (std::size_t i = 0; i < size; ++i) t.values.push_back(value(rng));
  return t;
}

/// Queries on every axis: in range, and extrapolated below and above by up
/// to a quarter of the axis span.
std::vector<double> random_query(const RandomTable& t, std::mt19937_64& rng,
                                 int side) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> q;
  for (const std::vector<double>& ax : t.axes) {
    const double span = ax.back() - ax.front();
    if (side < 0)
      q.push_back(ax.front() - 0.25 * span * u(rng));
    else if (side > 0)
      q.push_back(ax.back() + 0.25 * span * u(rng));
    else
      q.push_back(ax.front() + span * u(rng));
  }
  return q;
}

TEST(TensorSpline, MatchesOracleInRangeAndExtrapolatedOneToFourDims) {
  std::mt19937_64 rng(20001);
  std::uniform_int_distribution<int> side(-1, 1);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int table = 0; table < 8; ++table) {
      const RandomTable t = random_table(dims, rng);
      const TensorSpline s(t.axes);
      for (int n = 0; n < 60; ++n) {
        // Mix the sides per axis, so every axis is extrapolated below and
        // above with the others in range or not.
        std::vector<double> q = random_query(t, rng, 0);
        for (std::size_t d = 0; d < dims; ++d)
          q[d] = random_query(t, rng, side(rng))[d];
        const double want = reference_tensor_spline(t.axes, t.values, q);
        const double got = s.eval(t.values, q);
        EXPECT_LE(std::abs(got - want), kOracleTol * std::abs(want))
            << dims << "-D, query " << n << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(TensorSpline, ExactAtKnots) {
  std::mt19937_64 rng(20002);
  const RandomTable t = random_table(4, rng);
  const TensorSpline s(t.axes);
  std::vector<std::size_t> idx(4, 0);
  for (std::size_t flat = 0; flat < t.values.size(); ++flat) {
    std::vector<double> q;
    std::size_t rest = flat;
    for (std::size_t d = 4; d-- > 0;) {
      idx[d] = rest % t.axes[d].size();
      rest /= t.axes[d].size();
    }
    for (std::size_t d = 0; d < 4; ++d) q.push_back(t.axes[d][idx[d]]);
    EXPECT_EQ(s.eval(t.values, q), t.values[flat]) << flat;
  }
}

TEST(TensorSpline, MeanOfSwappedOrdersMatchesOracle) {
  std::mt19937_64 rng(20003);
  std::uniform_int_distribution<int> side(-1, 1);
  for (std::size_t dims = 2; dims <= 4; ++dims) {
    const RandomTable t = random_table(dims, rng);
    const TensorSpline s(t.axes);
    for (int n = 0; n < 100; ++n) {
      std::vector<double> q = random_query(t, rng, side(rng));
      std::vector<double> r = q;
      r[0] = random_query(t, rng, side(rng))[0];
      r[1] = random_query(t, rng, side(rng))[1];
      const double want = 0.5 * (reference_tensor_spline(t.axes, t.values, q) +
                                 reference_tensor_spline(t.axes, t.values, r));
      EXPECT_LE(std::abs(s.eval_mean(t.values, q, r) - want),
                kOracleTol * std::abs(want));
    }
    std::vector<double> q(dims, t.axes[0].front()), r = q;
    if (dims > 2) {
      r[2] = t.axes[2].back();
      EXPECT_THROW(s.eval_mean(t.values, q, r), std::invalid_argument);
    }
  }
}

TEST(TensorSpline, GridBeyondTheStackBufferMatchesOracle) {
  // More knots than a query keeps on the stack: the weights go to the heap.
  std::mt19937_64 rng(20004);
  std::uniform_real_distribution<double> value(1.0, 2.0);
  const std::vector<std::vector<double>> axes{linspace(0.0, 1.0, 300)};
  std::vector<double> values(300);
  for (double& v : values) v = value(rng);
  const TensorSpline s(axes);
  for (const double x : {-0.05, 0.0, 0.3337, 0.5, 0.9991, 1.0, 1.02}) {
    const double want = reference_tensor_spline(axes, values, {x});
    EXPECT_LE(std::abs(s.eval(values, std::vector<double>{x}) - want),
              kOracleTol * std::abs(want))
        << x;
  }
}

TEST(SplineAxis, WeightsReproduceConstantsAndLines) {
  // Natural splines reproduce linear data exactly, inside and outside the
  // knots: the weights sum to one and their first moment is x.
  const SplineAxis ax(geomspace(1.0, 40.0, 6));
  std::vector<double> w(ax.size()), scratch(ax.size());
  for (double x = -10.0; x < 60.0; x += 1.7) {
    ax.weights(x, w.data(), scratch.data());
    double sum = 0.0, moment = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      sum += w[i];
      moment += w[i] * ax.knots()[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-13) << x;
    EXPECT_NEAR(moment, x, 1e-12 * std::max(1.0, std::abs(x))) << x;
  }
}

TEST(Grids, LinspaceEndpointsAndSpacing) {
  const auto g = linspace(2.0, 4.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 2.0);
  EXPECT_DOUBLE_EQ(g.back(), 4.0);
  EXPECT_NEAR(g[1] - g[0], 0.5, 1e-15);
}

TEST(Grids, GeomspaceRatioConstant) {
  const auto g = geomspace(1.0, 16.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 1.0);
  EXPECT_DOUBLE_EQ(g.back(), 16.0);
  for (std::size_t i = 1; i + 1 < g.size(); ++i)
    EXPECT_NEAR(g[i + 1] / g[i], g[i] / g[i - 1], 1e-12);
}

TEST(Grids, RejectBadArguments) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(geomspace(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(geomspace(1.0, -1.0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace rlcx
