// Natural cubic spline interpolation, 1-D and tensor-product N-D, as a
// precomputed linear functional.
//
// The paper (Section III) interpolates its inductance tables with the
// bi-cubic spline algorithm of Numerical Recipes [10]: a natural cubic
// spline per axis, applied recursively for higher-dimensional tables
// (bicubic for the 2-D self-L table, tensor product for the 4-D mutual-L
// table).
//
// A natural cubic spline is linear in its values.  Its knot second
// derivatives are M = T^-1 D y, with T tridiagonal and D the second-
// difference operator, both fixed by the knots; so the spline at x is a
// weight row w(x) with f(x) = w(x) . y.  Outside the knots the spline
// continues linearly with its boundary slope, which is linear in y too.
// The tensor-product spline at q = (q_0 .. q_{D-1}) is then the value
// tensor contracted with one weight row per axis,
//
//   f(q) = sum_{i_0 .. i_{D-1}} w_0(q_0)[i_0] ... w_{D-1}(q_{D-1})[i_{D-1}]
//                               V[i_0, .., i_{D-1}],
//
// the same interpolant as NR's "spline of splines" (spline along the last
// axis for every slice, collapse, repeat), without building a spline per
// slice.  Each axis keeps only its knots, spacings and factored T: O(n).
// A query costs one O(n) tridiagonal solve per axis plus one multiply-add
// per table value, and allocates nothing (docs/performance.md "Table
// lookup as a linear functional").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rlcx {

/// One axis of a natural cubic spline: the knots and the factored
/// tridiagonal system of the knot second derivatives.
class SplineAxis {
 public:
  /// `knots` must hold >= 2 strictly increasing finite values.
  explicit SplineAxis(std::vector<double> knots);

  std::size_t size() const { return x_.size(); }
  const std::vector<double>& knots() const { return x_; }

  /// Writes the size() weights w with f(x) = sum_i w[i] y[i], f the natural
  /// cubic spline through any values y on the knots, continued linearly
  /// with the boundary slope outside them.  `scratch` has room for size()
  /// doubles.
  void weights(double x, double* w, double* scratch) const;

  /// Heap bytes held by this axis.
  std::size_t resident_bytes() const;

 private:
  std::vector<double> x_;
  // Per knot interval i: h_i = x_{i+1} - x_i, 1 / h_i and h_i / 6.
  std::vector<double> h_, inv_h_, sixth_;
  // T (interior knots 1 .. n-2, symmetric: diagonal (h_{i-1} + h_i) / 3,
  // off-diagonal h_i / 6) = L U, L unit lower bidiagonal with multipliers
  // lower_, U upper bidiagonal with pivots 1 / inv_piv_ and T's
  // off-diagonal.
  std::vector<double> lower_, inv_piv_;
};

/// Tensor-product natural-cubic interpolation of an N-D gridded table.
///
/// `axes[d]` holds the strictly increasing grid of dimension d; the values
/// the caller passes to eval() are row-major with the *last* axis fastest.
/// The spline keeps the per-axis operators only, never a copy of the
/// values: one spline serves every value array on the same grid.
class TensorSpline {
 public:
  static constexpr std::size_t kMaxDims = 8;

  TensorSpline() = default;
  /// At most kMaxDims axes, each as SplineAxis requires.
  explicit TensorSpline(const std::vector<std::vector<double>>& axes);

  std::size_t dims() const { return axes_.size(); }
  /// Number of values a table on this grid holds.
  std::size_t size() const { return size_; }

  /// The spline through `values` at `q`.
  double eval(std::span<const double> values,
              std::span<const double> q) const;

  /// 0.5 (f(q) + f(r)) in one pass over `values`, for two queries that
  /// agree on every axis after the first two (a mutual-L table's
  /// (w1, w2) and (w2, w1) orders).
  double eval_mean(std::span<const double> values, std::span<const double> q,
                   std::span<const double> r) const;

  /// Heap bytes held by the per-axis operators.
  std::size_t resident_bytes() const;

 private:
  void check(std::span<const double> values, std::span<const double> q) const;

  std::vector<SplineAxis> axes_;
  std::vector<std::size_t> stride_;  // values between steps of axis d
  std::size_t size_ = 0;
  std::size_t knots_ = 0;    // sum of the axis sizes
  std::size_t largest_ = 0;  // the largest axis: one solve's scratch
};

/// Evenly spaced grid of n points in [lo, hi].
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Geometrically spaced grid of n points in [lo, hi] (lo, hi > 0).
std::vector<double> geomspace(double lo, double hi, std::size_t n);

}  // namespace rlcx
