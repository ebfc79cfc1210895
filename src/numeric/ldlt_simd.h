// Runtime-dispatched rank-4 micro-kernel of the complex-symmetric LDLᵀ
// (numeric/ldlt.h).
//
// rank_update() is the O(n^3) inner loop of the LDLᵀ's panel and trailing
// updates and of its forward sweep.  It picks an AVX2 intrinsics body
// (ldlt_simd_avx2.cpp) when the CPU and build support it and the portable
// scalar body otherwise — same RLCX_SIMD / numeric::simd_mode() policy as
// the peec batch engine.
//
// Bit-identity contract (tested in tests/test_numeric_ldlt.cpp): the AVX2
// body evaluates the exact scalar expressions —
//   re = ar*sr - ai*si,  im = ar*si + ai*sr,
//   acc = ((t0 + t1) + t2) + t3,  dst -= acc
// — with plain IEEE mul/add/sub (vmulpd/vaddsubpd/vaddpd, no FMA; the
// whole tree builds with -ffp-contract=off), so scalar and AVX2 produce
// bit-identical results, not merely close ones.  A factorisation therefore
// does not depend on which ISA served it.
#pragma once

#include <complex>
#include <cstddef>

namespace rlcx::numeric {

// Portable bodies (always compiled; the oracle the tests compare against).
namespace ldlt_scalar {
void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend);
}  // namespace ldlt_scalar

#if defined(RLCX_HAVE_AVX2)
// Intrinsics bodies (compiled with -mavx2; call only if simd_avx2_supported).
namespace ldlt_avx2 {
void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend);
}  // namespace ldlt_avx2
#endif

/// dst[c] -= sum_q coef[q] * src[q][c] over [cbeg, cend): one
/// read-modify-write pass over dst per four source rows, with a tail for
/// counts not divisible by 4.  Dispatched on numeric::simd_mode() (AVX-512
/// mode also takes the AVX2 body: the kernel is load/mul/add-bound and
/// 256-bit lanes already saturate it).
void rank_update(std::complex<double>* dst,
                 const std::complex<double>* const* src,
                 const std::complex<double>* coef, std::size_t m_count,
                 std::size_t cbeg, std::size_t cend);

}  // namespace rlcx::numeric
