// Unpivoted LDLᵀ of a complex symmetric matrix, and the congruence
// reduction PᵀA⁻¹P it exists for.
//
// The PEEC filament impedance Z = diag(R) + jωLp is complex symmetric
// (Zᵀ = Z, not Hermitian) with a positive real diagonal and a symmetric
// positive definite imaginary part.  For such matrices elimination without
// pivoting is stable, with growth factor at most 3 (Higham, "Factorizing
// complex symmetric matrices with positive definite real and imaginary
// parts", Math. Comp. 67, 1998), so Z = L D Lᵀ with L unit lower
// triangular and D diagonal needs neither a pivot search nor the upper
// half of an LU's trailing updates: half the flops.
//
// The factorisation is cache-blocked (right-looking, a panel of 48 columns
// and a column-tiled trailing update) and its updates run through the
// complex rank-4 micro-kernel numeric::rank_update, with the source rows
// W(q, c) = d_q·l_cq kept in the strict upper triangle.  The scalar and
// AVX2 bodies of that kernel are bit-identical (numeric/ldlt_simd.h), so
// the factors do not depend on the ISA that served them.
//
// The conductor reduction never needs Z⁻¹ itself: with X = L⁻¹P,
// PᵀZ⁻¹P = Xᵀ D⁻¹ X, one forward sweep over P's few columns
// (docs/performance.md "Complex-symmetric LDLᵀ and the merged return").
#pragma once

#include <complex>
#include <limits>

#include "numeric/matrix.h"

namespace rlcx {

class ComplexSymmetricLdlt {
 public:
  using Complex = std::complex<double>;

  /// Factors `a` in place.  Only the lower triangle (diagonal included) is
  /// read; the strict upper triangle is overwritten as workspace.  A zero
  /// or non-finite pivot throws diag::SingularSystem (stage "ldlt").
  explicit ComplexSymmetricLdlt(ComplexMatrix a);

  /// Ratio of the largest to the smallest pivot magnitude: a cheap
  /// conditioning proxy that lower-bounds the true condition number.
  double condition_estimate() const;

  /// PᵀA⁻¹P for an n×m `p`, as (L⁻¹P)ᵀ D⁻¹ (L⁻¹P): one unit-lower forward
  /// sweep over p's m columns (in place on the argument), then an m×m
  /// accumulation in ascending row order.  The result is exactly
  /// symmetric (its upper triangle mirrors the lower).
  ComplexMatrix reduce(ComplexMatrix p) const;

 private:
  ComplexMatrix f_;  ///< L below the diagonal, D on it, D·Lᵀ above it
  double pivot_max_ = 0.0;
  double pivot_min_ = std::numeric_limits<double>::infinity();
};

}  // namespace rlcx
