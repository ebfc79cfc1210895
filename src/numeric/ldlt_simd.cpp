#include "numeric/ldlt_simd.h"

#include "numeric/simd.h"

namespace rlcx::numeric {

namespace ldlt_scalar {

// Explicit (re, im) arithmetic: the library complex multiply guards
// against NaN overflow semantics; spelling out ac-bd / ad+bc fixes the
// expression tree the AVX2 body reproduces lane for lane.
void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend) {
  double* d = reinterpret_cast<double*>(dst);
  std::size_t q = 0;
  for (; q + 4 <= m_count; q += 4) {
    const double a0r = coef[q].real(), a0i = coef[q].imag();
    const double a1r = coef[q + 1].real(), a1i = coef[q + 1].imag();
    const double a2r = coef[q + 2].real(), a2i = coef[q + 2].imag();
    const double a3r = coef[q + 3].real(), a3i = coef[q + 3].imag();
    const double* s0 = reinterpret_cast<const double*>(src[q]);
    const double* s1 = reinterpret_cast<const double*>(src[q + 1]);
    const double* s2 = reinterpret_cast<const double*>(src[q + 2]);
    const double* s3 = reinterpret_cast<const double*>(src[q + 3]);
    for (std::size_t c = cbeg; c < cend; ++c) {
      const double re = a0r * s0[2 * c] - a0i * s0[2 * c + 1] +
                        (a1r * s1[2 * c] - a1i * s1[2 * c + 1]) +
                        (a2r * s2[2 * c] - a2i * s2[2 * c + 1]) +
                        (a3r * s3[2 * c] - a3i * s3[2 * c + 1]);
      const double im = a0r * s0[2 * c + 1] + a0i * s0[2 * c] +
                        (a1r * s1[2 * c + 1] + a1i * s1[2 * c]) +
                        (a2r * s2[2 * c + 1] + a2i * s2[2 * c]) +
                        (a3r * s3[2 * c + 1] + a3i * s3[2 * c]);
      d[2 * c] -= re;
      d[2 * c + 1] -= im;
    }
  }
  for (; q < m_count; ++q) {
    const double ar = coef[q].real(), ai = coef[q].imag();
    if (ar == 0.0 && ai == 0.0) continue;
    const double* s = reinterpret_cast<const double*>(src[q]);
    for (std::size_t c = cbeg; c < cend; ++c) {
      d[2 * c] -= ar * s[2 * c] - ai * s[2 * c + 1];
      d[2 * c + 1] -= ar * s[2 * c + 1] + ai * s[2 * c];
    }
  }
}

}  // namespace ldlt_scalar

namespace {

inline bool use_avx2() {
#if defined(RLCX_HAVE_AVX2)
  // kAvx512 implies AVX2 support; the kernel gains nothing from wider
  // lanes (it is bound by the dst read-modify-write stream), so both wide
  // modes share the 256-bit body.
  return simd_mode() != SimdMode::kScalar;
#else
  return false;
#endif
}

}  // namespace

void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend) {
#if defined(RLCX_HAVE_AVX2)
  if (use_avx2())
    return ldlt_avx2::rank_update(dst, src, coef, m_count, cbeg, cend);
#endif
  ldlt_scalar::rank_update(dst, src, coef, m_count, cbeg, cend);
}

}  // namespace rlcx::numeric
