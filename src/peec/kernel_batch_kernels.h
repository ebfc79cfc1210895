// SoA kernel bodies for the batch engine — included once per ISA TU.
//
// kernel_batch_{scalar,avx2,avx512}.cpp each define RLCX_KB_NS
// (kb_scalar / kb_avx2 / kb_avx512) and include this header, so every ISA
// compiles the exact same expressions; only the target flags differ
// (-mavx2 / -mavx512f on the wide TUs).  Every operation below is a plain
// IEEE-754 mul/add/div/sqrt or a vecmath rational approximation built
// from the same, the TUs are compiled with -ffp-contract=off (no FMA
// contraction) and -fno-trapping-math (so GCC may if-convert the ternary
// selects and speculate both sides), and there is no
// reassociation-licensing flag — which is what makes the TUs produce
// bit-identical lanes at every vector width.  See docs/performance.md.
//
// The math mirrors the scalar oracle's hl_f / hoer_love_mutual /
// filament_mutual (tests/support/partial_reference.cpp) term for term,
// with every `if` rewritten as a select:
// a guarded term contributes `cond ? term : 0.0` (never `mask * term` —
// the discarded side may be Inf/NaN from a speculated division, and
// 0 * NaN would poison the accumulator; a blend discards it for free).
#ifndef RLCX_KB_NS
#error "define RLCX_KB_NS (kb_scalar/kb_avx2/kb_avx512) before including"
#endif

#include <cstddef>

#include "numeric/vecmath.h"
#include "peec/kernel_batch.h"

namespace rlcx::peec::detail {
namespace RLCX_KB_NS {

namespace {

using numeric::vecmath::asinh_bf;
using numeric::vecmath::atan_bf;
using numeric::vecmath::log_bf;

// Tile width: sized so the whole per-tile working set (corner/reciprocal
// arrays + the transverse tables + coef/acc, ~20 KB) stays in L1; kernel
// time measured flat within run-to-run noise over 16/32/64 on AVX-512, so
// the value is not load-bearing.
constexpr std::size_t kTile = 32;

}  // namespace

// Branch-free tiled Hoer-Love z-slice, the volume kernel of every chunk
// pair: S(z) = sum_{i,j} (-1)^(i+j) f(qx_i, qy_j, z), the 16 transverse
// corners of the 64-corner bracket at one axial coordinate.  A chunk pair's
// bracket is sum_k (-1)^k S(qz_k) over its four axial corners, and f is
// even in z, so the engine evaluates each |z| of a pair class once and
// weights it (kernel_batch.cpp).  Each row is scaled to O(1) on its own and
// returns 1e-7 S(z) / (a b c d), the physical slice value, so slices of
// different scales add.  Same math as the oracle's hl_f with two
// restructurings that cut the per-corner division/sqrt count (they, not the
// transcendentals, bound the vector throughput):
//
//   * log-ratio identity: (v + rho)(rho - v) = rho^2 - v^2 = w2, so
//       v ln((v + rho)/sqrt(w2)) = |v| ln((|v| + rho)/sqrt(w2));
//     |v| + rho only ever adds positives, so this is the stable
//     evaluation for BOTH signs of v — it replaces hl_f's v < 0 rewrite
//     (and its speculated division) with an abs.
//   * hoisting: 1/sqrt(w2), the log prefactors and the reciprocals of the
//     corner coordinates depend on at most two of x, y, z, so they move out
//     of the corner loop into per-tile tables; the corner loop keeps one
//     sqrt (rho) and one division (1/rho) plus the rationals inside
//     log_bf / atan_bf.
//
// Guarded terms select garbage away (w2 == 0 rows of the tables are Inf;
// their prefactor is identically 0), never multiply it by zero.
void eval_slice(const SliceSoa& in, std::size_t lo, std::size_t hi,
                double* out) {
  for (std::size_t base = lo; base < hi; base += kTile) {
    const std::size_t n = (hi - base < kTile) ? hi - base : kTile;

    double qx[4][kTile], qy[4][kTile], zs[kTile];
    double ivx[4][kTile], ivy[4][kTile], ivz[kTile];
    // Transverse tables: per y corner j the x-log term's 1/sqrt(y^2 + z^2),
    // prefactor, w2 (doubles as the rho^2 partial sum) and the x-free part
    // of the polynomial term; per x corner i the y-log term's; per (i, j)
    // combo [4 i + j] the z-log term's.
    double iswx[4][kTile], pxt[4][kTile], w2xt[4][kTile], p1t[4][kTile];
    double iswy[4][kTile], pyt[4][kTile];
    double iswz[16][kTile], pzt[16][kTile];
    double coef[kTile], acc[kTile];

    // Phase 1: scale to O(1) and lay out the four-point transverse corner
    // limits, as the oracle's hoer_love_mutual does; reciprocals alongside.
#pragma omp simd
    for (std::size_t g = 0; g < n; ++g) {
      const double a = in.a[base + g], b = in.b[base + g];
      const double c = in.c[base + g], d = in.d[base + g];
      const double E = in.E[base + g], P = in.P[base + g];
      const double z = std::abs(in.z[base + g]);

      double s = a;
      s = (b > s) ? b : s;
      s = (c > s) ? c : s;
      s = (d > s) ? d : s;
      const double aE = std::abs(E) + c;
      s = (aE > s) ? aE : s;
      const double aP = std::abs(P) + d;
      s = (aP > s) ? aP : s;
      s = (z > s) ? z : s;

      const double inv = 1.0 / s;
      const double as = a * inv, bs = b * inv, cs = c * inv, ds = d * inv;
      const double Es = E * inv, Ps = P * inv;

      qx[0][g] = Es - as;
      qx[1][g] = Es + cs - as;
      qx[2][g] = Es + cs;
      qx[3][g] = Es;
      qy[0][g] = Ps - bs;
      qy[1][g] = Ps + ds - bs;
      qy[2][g] = Ps + ds;
      qy[3][g] = Ps;
      zs[g] = z * inv;
      ivz[g] = 1.0 / zs[g];

      coef[g] = 1e-7 / (((as * bs) * cs) * ds) * s;  // mu0/4pi = 1e-7
      acc[g] = 0.0;
    }

    for (int i = 0; i < 4; ++i) {
#pragma omp simd
      for (std::size_t g = 0; g < n; ++g) {
        ivx[i][g] = 1.0 / qx[i][g];
        ivy[i][g] = 1.0 / qy[i][g];
        const double z2 = zs[g] * zs[g];
        const double x2 = qx[i][g] * qx[i][g];
        const double y2 = qy[i][g] * qy[i][g];
        const double w2x = y2 + z2;
        iswx[i][g] = 1.0 / std::sqrt(w2x);
        w2xt[i][g] = w2x;
        pxt[i][g] = y2 * z2 / 4.0 - y2 * y2 / 24.0 - z2 * z2 / 24.0;
        p1t[i][g] = y2 * y2 + z2 * z2 - 3.0 * (y2 * z2);
        iswy[i][g] = 1.0 / std::sqrt(x2 + z2);
        pyt[i][g] = x2 * z2 / 4.0 - x2 * x2 / 24.0 - z2 * z2 / 24.0;
      }
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
#pragma omp simd
        for (std::size_t g = 0; g < n; ++g) {
          const double x2 = qx[i][g] * qx[i][g];
          const double y2 = qy[j][g] * qy[j][g];
          iswz[4 * i + j][g] = 1.0 / std::sqrt(x2 + y2);
          pzt[4 * i + j][g] =
              x2 * y2 / 4.0 - x2 * x2 / 24.0 - y2 * y2 / 24.0;
        }
      }
    }

    // Phase 2: the 16-corner slice, one simd sweep per corner so the
    // per-entry accumulation order is fixed (i, j ascending) no matter how
    // the lanes are grouped.
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        const double sign = ((i + j) % 2 == 0) ? 1.0 : -1.0;
#pragma omp simd
        for (std::size_t g = 0; g < n; ++g) {
          const double x = qx[i][g], y = qy[j][g], z = zs[g];
          const double x2 = x * x, y2 = y * y, z2 = z * z;
          const double rho2 = x2 + w2xt[j][g];
          const double rho = std::sqrt(rho2);
          const double irho = 1.0 / rho;

          double f = 0.0;

          const double px = pxt[j][g];
          const double tx =
              px * std::abs(x) * log_bf((std::abs(x) + rho) * iswx[j][g]);
          f += ((px != 0.0) & (x != 0.0)) ? tx : 0.0;

          const double py = pyt[i][g];
          const double ty =
              py * std::abs(y) * log_bf((std::abs(y) + rho) * iswy[i][g]);
          f += ((py != 0.0) & (y != 0.0)) ? ty : 0.0;

          // z >= 0: the row's |z| was taken at load.
          const double pz = pzt[4 * i + j][g];
          const double tz = pz * z * log_bf((z + rho) * iswz[4 * i + j][g]);
          f += ((pz != 0.0) & (z != 0.0)) ? tz : 0.0;

          f += (x2 * x2 - 3.0 * x2 * w2xt[j][g] + p1t[j][g]) * rho / 60.0;

          const bool corner = (x != 0.0) & (y != 0.0) & (z != 0.0);
          f -= corner ? x * y * z * z2 / 6.0 * atan_bf(x * y * ivz[g] * irho)
                      : 0.0;
          f -= corner
                   ? x * y * y2 * z / 6.0 * atan_bf(x * z * ivy[j][g] * irho)
                   : 0.0;
          f -= corner
                   ? x * x2 * y * z / 6.0 * atan_bf(y * z * ivx[i][g] * irho)
                   : 0.0;

          acc[g] += sign * f;
        }
      }
    }

#pragma omp simd
    for (std::size_t g = 0; g < n; ++g) out[base + g] = coef[g] * acc[g];
  }
}

void eval_filament(const FilamentSoa& in, std::size_t lo, std::size_t hi,
                   double* out) {
#pragma omp simd
  for (std::size_t g = lo; g < hi; ++g) {
    const double l1 = in.l1[g], l2 = in.l2[g];
    const double s = in.s[g], r = in.r[g];
    const double u0 = s + l2;
    const double u1 = s - l1;
    const double u2 = s + l2 - l1;
    const double u3 = s;

    // r > 0: h(u) = u asinh(u/r) - sqrt(u^2 + r^2).  Runs unguarded even
    // for r == 0 lanes (finite garbage / NaN); the final select discards.
    const double h0r = u0 * asinh_bf(u0 / r) - std::sqrt(u0 * u0 + r * r);
    const double h1r = u1 * asinh_bf(u1 / r) - std::sqrt(u1 * u1 + r * r);
    const double h2r = u2 * asinh_bf(u2 / r) - std::sqrt(u2 * u2 + r * r);
    const double h3r = u3 * asinh_bf(u3 / r) - std::sqrt(u3 * u3 + r * r);
    const double vr = h0r + h1r - h2r - h3r;

    // r == 0 (collinear): h0(u) = |u| (ln|u| - 1), with the u == 0 limit
    // selected to 0 (log_bf(0) is garbage, discarded by the select).
    const double a0 = std::abs(u0), a1 = std::abs(u1);
    const double a2 = std::abs(u2), a3 = std::abs(u3);
    const double h00 = (a0 == 0.0) ? 0.0 : a0 * (log_bf(a0) - 1.0);
    const double h10 = (a1 == 0.0) ? 0.0 : a1 * (log_bf(a1) - 1.0);
    const double h20 = (a2 == 0.0) ? 0.0 : a2 * (log_bf(a2) - 1.0);
    const double h30 = (a3 == 0.0) ? 0.0 : a3 * (log_bf(a3) - 1.0);
    const double v0 = h00 + h10 - h20 - h30;

    out[g] = 1e-7 * ((r == 0.0) ? v0 : vr);
  }
}

}  // namespace RLCX_KB_NS
}  // namespace rlcx::peec::detail
