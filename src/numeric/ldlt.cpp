#include "numeric/ldlt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "diag/error.h"
#include "numeric/ldlt_simd.h"

namespace rlcx {

namespace {

/// Panel width of the blocked factorisation.  48 columns of
/// complex<double> are 768 bytes per row — a panel's L21 tile and the
/// streamed W rows stay L2-resident.
constexpr std::size_t kPanel = 48;
/// Column tile of the trailing update; bounds the per-row working set to
/// kTile elements so it lives in L1.
constexpr std::size_t kTile = 256;

/// Sub-panel width: columns eliminated by scalar rank-1 steps before the
/// rest of the panel is updated through the rank-4 micro-kernel at once.
/// 4 matches the kernel's register block; at n = 196 it factored faster
/// than 8 (1.1x) and than a scalar 48-column panel (2.2x).
constexpr std::size_t kSubPanel = 4;

}  // namespace

ComplexSymmetricLdlt::ComplexSymmetricLdlt(ComplexMatrix a) : f_(std::move(a)) {
  const std::size_t n = f_.rows();
  if (n != f_.cols())
    throw diag::UsageError("ldlt", "needs a square matrix, got " +
                                       std::to_string(n) + "x" +
                                       std::to_string(f_.cols()));
  Complex* base = f_.data();
  const auto row = [&](std::size_t i) { return base + i * n; };

  // src[q] is row k + q of the panel: its strict upper part holds
  // W(q, c) = d_{k+q}·l_{c,k+q}, the rank-update source row.
  const Complex* src[kPanel];
  constexpr std::size_t nb = kPanel;
  for (std::size_t k = 0; k < n; k += nb) {
    const std::size_t kend = std::min(n, k + nb);
    for (std::size_t m = k; m < kend; ++m) src[m - k] = row(m);

    for (std::size_t s = k; s < kend; s += kSubPanel) {
      const std::size_t send = std::min(kend, s + kSubPanel);
      // Scalar elimination of the sub-panel's columns, full height.
      for (std::size_t j = s; j < send; ++j) {
        Complex* rowj = row(j);
        const Complex d = rowj[j];
        const double mag = std::abs(d);
        if (mag == 0.0 || !std::isfinite(mag)) {
          pivot_min_ = 0.0;
          throw diag::SingularSystem(
              "ldlt",
              std::string(mag == 0.0 ? "zero" : "non-finite") +
                  " pivot at column " + std::to_string(j) + " of a " +
                  std::to_string(n) + "x" + std::to_string(n) +
                  " complex symmetric system (pivot ratio so far " +
                  std::to_string(condition_estimate()) + ")",
              j, n, std::numeric_limits<double>::infinity());
        }
        pivot_max_ = std::max(pivot_max_, mag);
        pivot_min_ = std::min(pivot_min_, mag);
        for (std::size_t c = j + 1; c < n; ++c) {
          Complex* rowc = row(c);
          rowj[c] = rowc[j];
          rowc[j] = rowc[j] / d;
        }
        for (std::size_t i = j + 1; i < n; ++i) {
          Complex* rowi = row(i);
          const Complex l = rowi[j];
          const std::size_t cend = std::min(i + 1, send);
          for (std::size_t c = j + 1; c < cend; ++c) rowi[c] -= l * rowj[c];
        }
      }
      // The rest of the panel's columns, rank-(send - s) at once.
      if (send == kend) continue;
      for (std::size_t i = send; i < n; ++i) {
        Complex* rowi = row(i);
        numeric::rank_update(rowi, src + (s - k), rowi + s, send - s, send,
                            std::min(i + 1, kend));
      }
    }
    if (kend == n) break;

    // Trailing update of the lower triangle: A22 -= L21·W, rank-nb, tiled
    // over columns; row i only reaches columns c <= i.
    for (std::size_t ct = kend; ct < n; ct += kTile) {
      const std::size_t cend = std::min(n, ct + kTile);
      for (std::size_t i = ct; i < n; ++i) {
        Complex* rowi = row(i);
        numeric::rank_update(rowi, src, rowi + k, kend - k, ct,
                            std::min(i + 1, cend));
      }
    }
  }
}

double ComplexSymmetricLdlt::condition_estimate() const {
  if (f_.rows() == 0) return 1.0;
  if (pivot_min_ <= 0.0 || pivot_max_ <= 0.0)
    return std::numeric_limits<double>::infinity();
  return pivot_max_ / pivot_min_;
}

ComplexMatrix ComplexSymmetricLdlt::reduce(ComplexMatrix p) const {
  const std::size_t n = f_.rows();
  if (p.rows() != n)
    throw diag::UsageError("ldlt", "reduce: rows " + std::to_string(p.rows()) +
                                       " != system size " + std::to_string(n));
  const std::size_t m = p.cols();
  // X = L^{-1} P in place: row i subtracts l_iq·X(q, :) for every q < i.
  std::vector<const Complex*> xrows(n);
  for (std::size_t i = 0; i < n; ++i) {
    Complex* xi = p.data() + i * m;
    xrows[i] = xi;
    numeric::rank_update(xi, xrows.data(), f_.data() + i * n, i, 0, m);
  }
  // Y = Xᵀ D^{-1} X, lower triangle accumulated in ascending row order and
  // mirrored.
  ComplexMatrix y(m, m);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex* xi = xrows[i];
    const Complex d = f_(i, i);
    for (std::size_t a = 0; a < m; ++a) {
      const Complex s = xi[a] / d;
      for (std::size_t b = 0; b <= a; ++b) y(a, b) += s * xi[b];
    }
  }
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = a + 1; b < m; ++b) y(a, b) = y(b, a);
  return y;
}

}  // namespace rlcx
