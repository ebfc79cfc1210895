// LU decomposition with partial pivoting, templated over the scalar type so
// the same code factors the non-symmetric complex systems — the PEEC
// networks of solver/network and the AC systems of the circuit simulator —
// and real dense systems (the transient's sparse MNA path is
// numeric/sparse_lu.h).  The filament impedance matrices of the block
// solver are complex symmetric and go through numeric/ldlt.h instead, which
// reuses this file's blocking constants and rank-4 micro-kernel.
//
// The factorisation is cache-blocked (right-looking with a panel of
// kPanelWidth columns and a column-tiled trailing update): the O(n^3) bulk
// runs as rank-kPanelWidth updates that stream each trailing row once per
// panel instead of once per column.  For systems no
// larger than one panel the arithmetic degenerates to exactly the textbook
// scalar elimination (tests/support/lu_reference.h, the test oracle);
// larger systems agree with it to last-ulp reordering (docs/performance.md).
#pragma once

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "diag/error.h"
#include "numeric/lu_simd.h"
#include "numeric/matrix.h"

namespace rlcx {

namespace detail {
inline double abs_of(double v) { return std::abs(v); }
inline double abs_of(const std::complex<double>& v) { return std::abs(v); }

/// Panel width of the blocked factorisation and row-block size of the
/// blocked substitutions.  48 columns of complex<double> are 768 bytes per
/// row — a panel's L21 tile and the streamed U12 rows stay L2-resident.
inline constexpr std::size_t kLuPanel = 48;
/// Column tile of the trailing update / multi-RHS substitution; bounds the
/// per-row working set to kLuTile elements so it lives in L1.
inline constexpr std::size_t kLuTile = 256;

/// Rank-4 register-blocked axpy: dst[c] -= sum_q coef[q] * src[q][c] over
/// [cbeg, cend), with a scalar tail for m-counts not divisible by 4.  One
/// read-modify-write pass over dst per four panel columns instead of one
/// per column — the micro-kernel of both the trailing update and the
/// blocked substitutions.
template <typename T>
inline void rank_update(T* dst, const T* const* src, const T* coef,
                        std::size_t m_count, std::size_t cbeg,
                        std::size_t cend) {
  std::size_t q = 0;
  for (; q + 4 <= m_count; q += 4) {
    const T a0 = coef[q], a1 = coef[q + 1], a2 = coef[q + 2], a3 = coef[q + 3];
    const T* s0 = src[q];
    const T* s1 = src[q + 1];
    const T* s2 = src[q + 2];
    const T* s3 = src[q + 3];
    for (std::size_t c = cbeg; c < cend; ++c)
      dst[c] -= a0 * s0[c] + a1 * s1[c] + a2 * s2[c] + a3 * s3[c];
  }
  for (; q < m_count; ++q) {
    const T a = coef[q];
    if (a == T{}) continue;
    const T* s = src[q];
    for (std::size_t c = cbeg; c < cend; ++c) dst[c] -= a * s[c];
  }
}

/// Complex overload: runtime-dispatched to the AVX2 micro-kernel when the
/// CPU has it (numeric/lu_simd.h) — the scalar and vector bodies are
/// bit-identical, so which one served a factorisation is unobservable.
/// The out-of-line bodies spell out the (re, im) arithmetic — ac-bd /
/// ad+bc — because the library complex multiply guards against NaN
/// overflow semantics and defeats vectorisation; summation order per
/// destination element matches the generic kernel's 4-wide chunks.  Real
/// matrices take the generic template above.
inline void rank_update(std::complex<double>* dst,
                        const std::complex<double>* const* src,
                        const std::complex<double>* coef, std::size_t m_count,
                        std::size_t cbeg, std::size_t cend) {
  numeric::lu_rank_update(dst, src, coef, m_count, cbeg, cend);
}
}  // namespace detail

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

    constexpr std::size_t nb = detail::kLuPanel;
    for (std::size_t k = 0; k < n; k += nb) {
      const std::size_t kend = std::min(n, k + nb);

      // Panel factorisation: scalar elimination restricted to columns
      // [k, kend), full-height.  Row swaps apply to the whole matrix, so
      // the already-computed L (left of the panel) and the not-yet-updated
      // A12/A22 (right of it) stay consistent.
      for (std::size_t j = k; j < kend; ++j) {
        // Partial pivot: pick the largest magnitude in column j.
        std::size_t piv = j;
        double best = detail::abs_of(lu_(j, j));
        for (std::size_t i = j + 1; i < n; ++i) {
          const double mag = detail::abs_of(lu_(i, j));
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
                  " pivot at column " + std::to_string(j) + " of a " +
                  std::to_string(n) + "x" + std::to_string(n) +
                  " system (pivot ratio so far " +
                  std::to_string(condition_estimate()) + ")",
              j, n, std::numeric_limits<double>::infinity());
        }
        pivot_max_ = std::max(pivot_max_, best);
        pivot_min_ = std::min(pivot_min_, best);
        if (piv != j) {
          for (std::size_t c = 0; c < n; ++c) std::swap(lu_(j, c), lu_(piv, c));
          std::swap(perm_[j], perm_[piv]);
        }
        const T pivot = lu_(j, j);
        const T* rowj = row(j);
        for (std::size_t i = j + 1; i < n; ++i) {
          T* rowi = row(i);
          const T m = rowi[j] / pivot;
          rowi[j] = m;
          if (m == T{}) continue;
          for (std::size_t c = j + 1; c < kend; ++c) rowi[c] -= m * rowj[c];
        }
      }
      if (kend == n) break;

      // Block row: U12 = L11^{-1} A12 (unit lower triangular, in place).
      for (std::size_t j = k + 1; j < kend; ++j) {
        T* rowj = row(j);
        for (std::size_t m = k; m < j; ++m) {
          const T ljm = rowj[m];
          if (ljm == T{}) continue;
          const T* rowm = row(m);
          for (std::size_t c = kend; c < n; ++c) rowj[c] -= ljm * rowm[c];
        }
      }

      // Trailing update: A22 -= L21 * U12, tiled over columns so each row's
      // active slice and the panel's U12 tile stay in cache.  The L21
      // coefficients of row i sit contiguously at rowi[k..kend), so the
      // rank-4 micro-kernel consumes them in place.
      const T* usrc[detail::kLuPanel];
      for (std::size_t m = k; m < kend; ++m) usrc[m - k] = row(m);
      for (std::size_t ct = kend; ct < n; ct += detail::kLuTile) {
        const std::size_t cend = std::min(n, ct + detail::kLuTile);
        for (std::size_t i = kend; i < n; ++i) {
          T* rowi = row(i);
          detail::rank_update(rowi, usrc, rowi + k, kend - k, ct, cend);
        }
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

  /// Solve A X = B for all right-hand-side columns at once.  Blocked
  /// substitution: the RHS block is permuted in place once, then L and U
  /// sweep it in kLuPanel row blocks with the off-diagonal updates tiled
  /// over RHS columns — every matrix row streams through cache once per
  /// sweep instead of once per column, and nothing is allocated per column.
  Matrix<T> solve(const Matrix<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.rows() != n)
      throw diag::UsageError("lu", "rhs rows " + std::to_string(b.rows()) +
                                       " != system size " +
                                       std::to_string(n));
    const std::size_t nrhs = b.cols();
    Matrix<T> x(n, nrhs);
    for (std::size_t i = 0; i < n; ++i) {
      const T* src = b.data() + perm_[i] * nrhs;
      T* dst = x.data() + i * nrhs;
      for (std::size_t c = 0; c < nrhs; ++c) dst[c] = src[c];
    }
    if (n == 0 || nrhs == 0) return x;

    constexpr std::size_t nb = detail::kLuPanel;
    // Forward: L (unit lower) X = P B.
    for (std::size_t k = 0; k < n; k += nb) {
      const std::size_t kend = std::min(n, k + nb);
      for (std::size_t i = k; i < kend; ++i) {
        const T* li = row(i);
        T* xi = x.data() + i * nrhs;
        for (std::size_t m = k; m < i; ++m) {
          const T lim = li[m];
          if (lim == T{}) continue;
          const T* xm = x.data() + m * nrhs;
          for (std::size_t c = 0; c < nrhs; ++c) xi[c] -= lim * xm[c];
        }
      }
      const T* xsrc[detail::kLuPanel];
      for (std::size_t m = k; m < kend; ++m) xsrc[m - k] = x.data() + m * nrhs;
      for (std::size_t ct = 0; ct < nrhs; ct += detail::kLuTile) {
        const std::size_t cend = std::min(nrhs, ct + detail::kLuTile);
        for (std::size_t i = kend; i < n; ++i)
          detail::rank_update(x.data() + i * nrhs, xsrc, row(i) + k, kend - k,
                              ct, cend);
      }
    }
    // Backward: U X' = X, row blocks from the bottom; after a block is
    // solved its contribution is subtracted from every row above it.
    const std::size_t nblocks = (n + nb - 1) / nb;
    for (std::size_t blk = nblocks; blk-- > 0;) {
      const std::size_t ks = blk * nb;
      const std::size_t kend = std::min(n, ks + nb);
      for (std::size_t ii = kend; ii-- > ks;) {
        const T* ui = row(ii);
        T* xi = x.data() + ii * nrhs;
        for (std::size_t m = ii + 1; m < kend; ++m) {
          const T uim = ui[m];
          if (uim == T{}) continue;
          const T* xm = x.data() + m * nrhs;
          for (std::size_t c = 0; c < nrhs; ++c) xi[c] -= uim * xm[c];
        }
        const T d = ui[ii];
        for (std::size_t c = 0; c < nrhs; ++c) xi[c] = xi[c] / d;
      }
      const T* xsrc[detail::kLuPanel];
      for (std::size_t m = ks; m < kend; ++m) xsrc[m - ks] = x.data() + m * nrhs;
      for (std::size_t ct = 0; ct < nrhs; ct += detail::kLuTile) {
        const std::size_t cend = std::min(nrhs, ct + detail::kLuTile);
        for (std::size_t i = 0; i < ks; ++i)
          detail::rank_update(x.data() + i * nrhs, xsrc, row(i) + ks, kend - ks,
                              ct, cend);
      }
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

/// Convenience: invert a square matrix (small systems and tests; prefer
/// LuDecomposition::solve for anything large).
template <typename T>
Matrix<T> inverse(const Matrix<T>& a) {
  LuDecomposition<T> lu(a);
  return lu.solve(Matrix<T>::identity(a.rows()));
}

}  // namespace rlcx
