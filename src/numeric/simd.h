// Runtime SIMD dispatch policy for the explicitly vectorized kernels (the
// peec batch kernel engine and the LDLᵀ rank-update micro-kernel).
//
// The library ships up to three compilations of each engine kernel: a
// portable baseline TU and (when the compiler supports them) a -mavx2 TU
// and a -mavx512f TU.  Which one runs is a *runtime* decision made once
// per process from two inputs:
//   * RLCX_SIMD=scalar forces the baseline path, RLCX_SIMD=avx2 caps the
//     engine at AVX2; RLCX_SIMD=auto (or unset) picks the widest path the
//     CPU supports;
//   * cpuid — a wider TU is only eligible on hardware that has the ISA,
//     so a binary built on a -march=x86-64-v3 CI runner still starts
//     correctly on a baseline machine.
// All compilations are built from branch-free elementwise code (plain
// mul/add/div/sqrt, no FMA, -ffp-contract=off), so they produce
// bit-identical results and the choice is pure performance — which is what
// makes RLCX_SIMD=scalar a bit-exact reference for the wide paths instead
// of a merely "close" one (docs/performance.md, "Batched kernel
// evaluation").
#pragma once

namespace rlcx::numeric {

enum class SimdMode {
  kScalar,  ///< portable baseline TU (the compiler may still use SSE2)
  kAvx2,    ///< the -mavx2 TU; requires cpuid AVX2 and a capable build
  kAvx512,  ///< the -mavx512f TU; requires cpuid AVX-512 F/DQ/VL
};

/// The mode the engine kernels dispatch on.  Resolved once (environment +
/// cpuid) on first use and cached; an atomic read afterwards.
SimdMode simd_mode();

/// "scalar", "avx2" or "avx512".
const char* simd_mode_name(SimdMode mode);

/// True when the AVX2 kernel TUs were compiled into this binary.
bool simd_avx2_compiled();

/// True when simd_avx2_compiled() and the CPU reports AVX2.
bool simd_avx2_supported();

/// True when the AVX-512 kernel TUs were compiled into this binary.
bool simd_avx512_compiled();

/// True when simd_avx512_compiled() and the CPU reports AVX-512 F/DQ/VL.
bool simd_avx512_supported();

/// Pure resolution of an RLCX_SIMD value ("scalar" forces scalar, "avx2"
/// caps at AVX2; "auto", empty or nullptr pick the best supported mode;
/// anything else is treated as "auto" — a typo must not silently change
/// numerics, and all modes are bit-identical).  Exposed for tests.
SimdMode simd_mode_from_env(const char* value);

/// Test/bench hook: override the cached mode (an unsupported mode
/// silently degrades to the widest supported one below it).  Lets one
/// process time and bit-compare the paths; production code never calls
/// this.
void simd_force_mode(SimdMode mode);

}  // namespace rlcx::numeric
