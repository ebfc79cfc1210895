// Textbook scalar LU with partial pivoting — the pre-blocking implementation,
// kept verbatim as the accuracy/performance oracle for the cache-blocked
// LuDecomposition in numeric/lu.h.  Tests factor the same system through
// both and compare to 1e-13 relative; bench_peec_fill times them against
// each other.  It lives with the tests so production keeps one LU.
#pragma once

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "diag/error.h"
#include "numeric/matrix.h"

namespace rlcx {

template <typename T>
class ReferenceLu {
 public:
  explicit ReferenceLu(Matrix<T> a) : lu_(std::move(a)) {
    const std::size_t n = lu_.rows();
    if (n != lu_.cols())
      throw diag::UsageError("lu", "needs a square matrix, got " +
                                       std::to_string(n) + "x" +
                                       std::to_string(lu_.cols()));
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > best) {
          best = mag;
          piv = i;
        }
      }
      if (best == 0.0 || !std::isfinite(best))
        throw diag::SingularSystem(
            "lu",
            std::string(best == 0.0 ? "zero" : "non-finite") +
                " pivot at column " + std::to_string(k) + " of a " +
                std::to_string(n) + "x" + std::to_string(n) + " system",
            k, n, std::numeric_limits<double>::infinity());
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
        std::swap(perm_[k], perm_[piv]);
      }
      const T pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T m = lu_(i, k) / pivot;
        lu_(i, k) = m;
        if (m == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }

  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n)
      throw diag::UsageError("lu", "rhs size " + std::to_string(b.size()) +
                                       " != system size " +
                                       std::to_string(n));
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
      x[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
      x[ii] = acc / lu_(ii, ii);
    }
    return x;
  }

  /// Column-by-column matrix solve (the pre-change multi-RHS path, with its
  /// per-column temporary vector — kept as the timing baseline).
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
  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace rlcx
