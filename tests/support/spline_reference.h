// The spline-of-splines table lookup that numeric/spline.h replaced, kept
// as the oracle for the linear-functional TensorSpline: Numerical Recipes'
// natural cubic spline [10] built per slice, collapsing the last axis of
// the table until a scalar remains.  Tests pin the production lookup to it
// at 1e-12 relative (docs/performance.md "Table lookup as a linear
// functional").  It lives with the tests so production keeps one spline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace rlcx {

/// Natural cubic spline through (x_i, y_i), x strictly increasing.
/// Outside the knot range the spline is continued linearly with the boundary
/// slope.
class CubicSpline {
 public:
  CubicSpline(std::vector<double> x, std::vector<double> y)
      : x_(std::move(x)), y_(std::move(y)) {
    const std::size_t n = x_.size();
    if (n != y_.size()) throw std::invalid_argument("spline size mismatch");
    if (n < 2) throw std::invalid_argument("spline needs >= 2 points");
    for (std::size_t i = 1; i < n; ++i)
      if (!(x_[i] > x_[i - 1]))
        throw std::invalid_argument("spline knots must increase");

    // Tridiagonal solve for natural boundary conditions (y'' = 0 at the
    // ends).
    y2_.assign(n, 0.0);
    std::vector<double> u(n, 0.0);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double sig = (x_[i] - x_[i - 1]) / (x_[i + 1] - x_[i - 1]);
      const double p = sig * y2_[i - 1] + 2.0;
      y2_[i] = (sig - 1.0) / p;
      const double d1 = (y_[i + 1] - y_[i]) / (x_[i + 1] - x_[i]) -
                        (y_[i] - y_[i - 1]) / (x_[i] - x_[i - 1]);
      u[i] = (6.0 * d1 / (x_[i + 1] - x_[i - 1]) - sig * u[i - 1]) / p;
    }
    for (std::size_t k = n - 1; k-- > 0;) y2_[k] = y2_[k] * y2_[k + 1] + u[k];
  }

  double eval(double x) const {
    if (x < x_.front())
      return y_.front() + derivative(x_.front()) * (x - x_.front());
    if (x > x_.back())
      return y_.back() + derivative(x_.back()) * (x - x_.back());
    const std::size_t lo = interval(x);
    const double h = x_[lo + 1] - x_[lo];
    const double a = (x_[lo + 1] - x) / h;
    const double b = (x - x_[lo]) / h;
    return a * y_[lo] + b * y_[lo + 1] +
           ((a * a * a - a) * y2_[lo] + (b * b * b - b) * y2_[lo + 1]) *
               (h * h) / 6.0;
  }

  double derivative(double x) const {
    const double xc = std::clamp(x, x_.front(), x_.back());
    const std::size_t lo = interval(xc);
    const double h = x_[lo + 1] - x_[lo];
    const double a = (x_[lo + 1] - xc) / h;
    const double b = (xc - x_[lo]) / h;
    return (y_[lo + 1] - y_[lo]) / h -
           (3.0 * a * a - 1.0) / 6.0 * h * y2_[lo] +
           (3.0 * b * b - 1.0) / 6.0 * h * y2_[lo + 1];
  }

 private:
  std::size_t interval(double x) const {
    // Binary search for the knot interval containing x, clamped to the
    // range.
    const auto it = std::upper_bound(x_.begin(), x_.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - x_.begin());
    if (hi == 0) hi = 1;
    if (hi >= x_.size()) hi = x_.size() - 1;
    return hi - 1;
  }

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> y2_;  // second derivatives at the knots
};

/// Tensor-product natural-cubic interpolation of the row-major (last axis
/// fastest) `values` on `axes` at `q`: spline along the last axis for every
/// combination of the remaining indices, collapse, repeat.
inline double reference_tensor_spline(
    const std::vector<std::vector<double>>& axes,
    const std::vector<double>& values, const std::vector<double>& q) {
  if (q.size() != axes.size())
    throw std::invalid_argument("tensor spline query dimension");
  std::vector<double> work = values;
  for (std::size_t d = axes.size(); d-- > 0;) {
    const std::vector<double>& ax = axes[d];
    const std::size_t nd = ax.size();
    const std::size_t outer = work.size() / nd;
    std::vector<double> next(outer);
    std::vector<double> slice(nd);
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t k = 0; k < nd; ++k) slice[k] = work[o * nd + k];
      next[o] = CubicSpline(ax, slice).eval(q[d]);
    }
    work.swap(next);
  }
  return work[0];
}

}  // namespace rlcx
