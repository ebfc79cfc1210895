// Dense LU decomposition with partial pivoting, templated over the scalar
// type: the textbook right-looking elimination.  In production it factors
// the small non-symmetric complex systems of the circuit simulator's AC
// analysis (ckt/ac.cpp); the transient's MNA systems go through
// numeric/sparse_lu.h and the complex-symmetric filament impedance through
// numeric/ldlt.h.  Tests use it as the general dense oracle of both.
#pragma once

#include <cmath>
#include <complex>
#include <limits>
#include <string>
#include <vector>

#include "diag/error.h"
#include "numeric/matrix.h"

namespace rlcx {

/// In-place LU factorisation of a square matrix with row pivoting.
/// Factor once, then solve() any number of right-hand sides.
template <typename T>
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix<T> a) : lu_(std::move(a)) {
    const std::size_t n = lu_.rows();
    if (n != lu_.cols())
      throw diag::UsageError("lu", "needs a square matrix, got " +
                                       std::to_string(n) + "x" +
                                       std::to_string(lu_.cols()));
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivot: pick the largest magnitude in column k.
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > best) {
          best = mag;
          piv = i;
        }
      }
      if (best == 0.0 || !std::isfinite(best)) {
        pivot_min_ = 0.0;
        throw diag::SingularSystem(
            "lu",
            std::string(best == 0.0 ? "zero" : "non-finite") +
                " pivot at column " + std::to_string(k) + " of a " +
                std::to_string(n) + "x" + std::to_string(n) +
                " system (pivot ratio so far " +
                std::to_string(condition_estimate()) + ")",
            k, n, std::numeric_limits<double>::infinity());
      }
      pivot_max_ = std::max(pivot_max_, best);
      pivot_min_ = std::min(pivot_min_, best);
      if (piv != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
        std::swap(perm_[k], perm_[piv]);
      }
      const T pivot = lu_(k, k);
      const T* rowk = row(k);
      for (std::size_t i = k + 1; i < n; ++i) {
        T* rowi = row(i);
        const T m = rowi[k] / pivot;
        rowi[k] = m;
        if (m == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) rowi[c] -= m * rowk[c];
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }

  /// Cheap conditioning proxy: the ratio of the largest to the smallest
  /// pivot magnitude seen during elimination.  It lower-bounds the true
  /// condition number; values near 1/eps (~1e16) flag a system solved at
  /// essentially no significant digits.  Costs nothing beyond two compares
  /// per column — this is the FastHenry-style front-end sanity check, not a
  /// rigorous estimate.
  double condition_estimate() const {
    if (lu_.rows() == 0) return 1.0;
    if (pivot_min_ <= 0.0 || pivot_max_ <= 0.0)
      return std::numeric_limits<double>::infinity();
    return pivot_max_ / pivot_min_;
  }

  /// Solve A x = b.
  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n)
      throw diag::UsageError("lu", "rhs size " + std::to_string(b.size()) +
                                       " != system size " +
                                       std::to_string(n));
    std::vector<T> x(n);
    // Forward substitution with permutation applied.
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      const T* rowi = row(i);
      for (std::size_t j = 0; j < i; ++j) acc -= rowi[j] * x[j];
      x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      const T* rowi = row(ii);
      for (std::size_t j = ii + 1; j < n; ++j) acc -= rowi[j] * x[j];
      x[ii] = acc / rowi[ii];
    }
    return x;
  }

  /// Solve A X = B, one column of B at a time.
  Matrix<T> solve(const Matrix<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.rows() != n)
      throw diag::UsageError("lu", "rhs rows " + std::to_string(b.rows()) +
                                       " != system size " +
                                       std::to_string(n));
    Matrix<T> x(n, b.cols());
    std::vector<T> col(n);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      const std::vector<T> xc = solve(col);
      for (std::size_t i = 0; i < n; ++i) x(i, j) = xc[i];
    }
    return x;
  }

 private:
  T* row(std::size_t i) { return lu_.data() + i * lu_.cols(); }
  const T* row(std::size_t i) const { return lu_.data() + i * lu_.cols(); }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  double pivot_max_ = 0.0;
  double pivot_min_ = std::numeric_limits<double>::infinity();
};

}  // namespace rlcx
