// AVX2 body of the LDLᵀ's complex rank-4 micro-kernel.  This TU alone is
// compiled with -mavx2 (src/numeric/CMakeLists.txt); callers reach it only
// through rank_update()'s runtime dispatch, so the rest of the library
// stays portable baseline.
//
// Every vector op below is the plain IEEE mul/add/sub the scalar body
// performs on the same elements in the same order — vmulpd + vaddsubpd
// computes exactly {ar*sr - ai*si, ar*si + ai*sr}, the accumulator chains
// left-associated, and there is no FMA — which is what makes the two
// bodies bit-identical rather than merely close (see ldlt_simd.h).
#include "numeric/ldlt_simd.h"

#if defined(RLCX_HAVE_AVX2)

#include <immintrin.h>

namespace rlcx::numeric::ldlt_avx2 {

namespace {

// {ar*sr - ai*si, ar*si + ai*sr} for two interleaved complex lanes:
// multiply by the broadcast real part, multiply the (im, re)-swapped lanes
// by the broadcast imaginary part, then vaddsubpd fuses the -/+ pattern.
inline __m256d cmul2(__m256d ar, __m256d ai, __m256d s) {
  const __m256d t1 = _mm256_mul_pd(ar, s);
  const __m256d sw = _mm256_permute_pd(s, 0b0101);
  const __m256d t2 = _mm256_mul_pd(ai, sw);
  return _mm256_addsub_pd(t1, t2);
}

inline __m128d cmul1(__m128d ar, __m128d ai, __m128d s) {
  const __m128d t1 = _mm_mul_pd(ar, s);
  const __m128d sw = _mm_permute_pd(s, 0b01);
  const __m128d t2 = _mm_mul_pd(ai, sw);
  return _mm_addsub_pd(t1, t2);
}

}  // namespace

void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend) {
  double* d = reinterpret_cast<double*>(dst);
  std::size_t q = 0;
  for (; q + 4 <= m_count; q += 4) {
    const __m256d a0r = _mm256_set1_pd(coef[q].real());
    const __m256d a0i = _mm256_set1_pd(coef[q].imag());
    const __m256d a1r = _mm256_set1_pd(coef[q + 1].real());
    const __m256d a1i = _mm256_set1_pd(coef[q + 1].imag());
    const __m256d a2r = _mm256_set1_pd(coef[q + 2].real());
    const __m256d a2i = _mm256_set1_pd(coef[q + 2].imag());
    const __m256d a3r = _mm256_set1_pd(coef[q + 3].real());
    const __m256d a3i = _mm256_set1_pd(coef[q + 3].imag());
    const double* s0 = reinterpret_cast<const double*>(src[q]);
    const double* s1 = reinterpret_cast<const double*>(src[q + 1]);
    const double* s2 = reinterpret_cast<const double*>(src[q + 2]);
    const double* s3 = reinterpret_cast<const double*>(src[q + 3]);
    std::size_t c = cbeg;
    // Two complex elements (four doubles) per iteration.
    for (; c + 2 <= cend; c += 2) {
      __m256d acc = cmul2(a0r, a0i, _mm256_loadu_pd(s0 + 2 * c));
      acc = _mm256_add_pd(acc, cmul2(a1r, a1i, _mm256_loadu_pd(s1 + 2 * c)));
      acc = _mm256_add_pd(acc, cmul2(a2r, a2i, _mm256_loadu_pd(s2 + 2 * c)));
      acc = _mm256_add_pd(acc, cmul2(a3r, a3i, _mm256_loadu_pd(s3 + 2 * c)));
      _mm256_storeu_pd(
          d + 2 * c, _mm256_sub_pd(_mm256_loadu_pd(d + 2 * c), acc));
    }
    if (c < cend) {
      __m128d acc = cmul1(_mm256_castpd256_pd128(a0r),
                          _mm256_castpd256_pd128(a0i),
                          _mm_loadu_pd(s0 + 2 * c));
      acc = _mm_add_pd(acc, cmul1(_mm256_castpd256_pd128(a1r),
                                  _mm256_castpd256_pd128(a1i),
                                  _mm_loadu_pd(s1 + 2 * c)));
      acc = _mm_add_pd(acc, cmul1(_mm256_castpd256_pd128(a2r),
                                  _mm256_castpd256_pd128(a2i),
                                  _mm_loadu_pd(s2 + 2 * c)));
      acc = _mm_add_pd(acc, cmul1(_mm256_castpd256_pd128(a3r),
                                  _mm256_castpd256_pd128(a3i),
                                  _mm_loadu_pd(s3 + 2 * c)));
      _mm_storeu_pd(d + 2 * c, _mm_sub_pd(_mm_loadu_pd(d + 2 * c), acc));
    }
  }
  for (; q < m_count; ++q) {
    const double ar = coef[q].real(), ai = coef[q].imag();
    if (ar == 0.0 && ai == 0.0) continue;
    const __m256d var = _mm256_set1_pd(ar), vai = _mm256_set1_pd(ai);
    const double* s = reinterpret_cast<const double*>(src[q]);
    std::size_t c = cbeg;
    for (; c + 2 <= cend; c += 2) {
      const __m256d t = cmul2(var, vai, _mm256_loadu_pd(s + 2 * c));
      _mm256_storeu_pd(d + 2 * c,
                       _mm256_sub_pd(_mm256_loadu_pd(d + 2 * c), t));
    }
    if (c < cend) {
      const __m128d t =
          cmul1(_mm256_castpd256_pd128(var), _mm256_castpd256_pd128(vai),
                _mm_loadu_pd(s + 2 * c));
      _mm_storeu_pd(d + 2 * c, _mm_sub_pd(_mm_loadu_pd(d + 2 * c), t));
    }
  }
}

}  // namespace rlcx::numeric::ldlt_avx2

#endif  // RLCX_HAVE_AVX2
