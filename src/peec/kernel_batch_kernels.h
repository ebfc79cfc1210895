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
// filament_mutual (tests/support/partial_reference.cpp) term for term, with every `if` rewritten as a select:
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
// arrays + the 16-combo transverse tables + coef/acc, ~38 KB) stays in
// L1-or-near; measured flat within a few percent over 16/32/64 on both
// AVX2 and AVX-512, so the value is not load-bearing.
constexpr std::size_t kTile = 32;

}  // namespace

// Branch-free tiled Hoer-Love bracket.  Same math as hoer_love_mutual +
// hl_f with two restructurings that cut the per-corner division/sqrt
// count (they, not the transcendentals, bound the vector throughput):
//
//   * log-ratio identity: (v + rho)(rho - v) = rho^2 - v^2 = w2, so
//       v ln((v + rho)/sqrt(w2)) = |v| ln((|v| + rho)/sqrt(w2));
//     |v| + rho only ever adds positives, so this is the stable
//     evaluation for BOTH signs of v — it replaces hl_f's v < 0 rewrite
//     (and its speculated division) with an abs.
//   * hoisting: 1/sqrt(w2) depends only on the 16 transverse corner
//     combos and 1/v only on the 4 per-axis corner values, so both move
//     out of the 64-corner loop into per-tile tables; the corner loop
//     keeps one sqrt (rho) and one division (1/rho) plus the rationals
//     inside log_bf / atan_bf.
//
// Guarded terms select garbage away (w2 == 0 rows of the tables are Inf;
// their prefactor is identically 0), never multiply it by zero.
void eval_volume(const VolumeSoa& in, std::size_t lo, std::size_t hi,
                 double* out) {
  for (std::size_t base = lo; base < hi; base += kTile) {
    const std::size_t n = (hi - base < kTile) ? hi - base : kTile;

    double qx[4][kTile], qy[4][kTile], qz[4][kTile];
    double ivx[4][kTile], ivy[4][kTile], ivz[4][kTile];
    // Transverse-pair tables, indexed [4 * first + second][g] with the
    // first/second index convention of the corner loop below: 1/sqrt(w2)
    // for each log axis, the log prefactors, w2 of the x axis (doubles as
    // the rho^2 partial sum), and the x-free part of the polynomial term.
    double iswx[16][kTile], iswy[16][kTile], iswz[16][kTile];
    double pxt[16][kTile], pyt[16][kTile], pzt[16][kTile];
    double w2xt[16][kTile], p1t[16][kTile];
    double coef[kTile], acc[kTile];

    // Phase 1: scale to O(1) and lay out the four-point corner limits,
    // exactly as hoer_love_mutual does per call; reciprocals alongside.
#pragma omp simd
    for (std::size_t g = 0; g < n; ++g) {
      const double a = in.a[base + g], b = in.b[base + g];
      const double l1 = in.l1[base + g];
      const double c = in.c[base + g], d = in.d[base + g];
      const double l2 = in.l2[base + g];
      const double E = in.E[base + g], P = in.P[base + g];
      const double l3 = in.l3[base + g];

      double s = a;
      s = (b > s) ? b : s;
      s = (c > s) ? c : s;
      s = (d > s) ? d : s;
      s = (l1 > s) ? l1 : s;
      s = (l2 > s) ? l2 : s;
      const double aE = std::abs(E) + c;
      s = (aE > s) ? aE : s;
      const double aP = std::abs(P) + d;
      s = (aP > s) ? aP : s;
      const double aL = std::abs(l3) + l2;
      s = (aL > s) ? aL : s;

      const double inv = 1.0 / s;
      const double as = a * inv, bs = b * inv, cs = c * inv, ds = d * inv;
      const double l1s = l1 * inv, l2s = l2 * inv;
      const double Es = E * inv, Ps = P * inv, l3s = l3 * inv;

      qx[0][g] = Es - as;
      qx[1][g] = Es + cs - as;
      qx[2][g] = Es + cs;
      qx[3][g] = Es;
      qy[0][g] = Ps - bs;
      qy[1][g] = Ps + ds - bs;
      qy[2][g] = Ps + ds;
      qy[3][g] = Ps;
      qz[0][g] = l3s - l1s;
      qz[1][g] = l3s + l2s - l1s;
      qz[2][g] = l3s + l2s;
      qz[3][g] = l3s;

      coef[g] = 1e-7 / (((as * bs) * cs) * ds) * s;  // mu0/4pi = 1e-7
      acc[g] = 0.0;
    }

    for (int i = 0; i < 4; ++i) {
#pragma omp simd
      for (std::size_t g = 0; g < n; ++g) {
        ivx[i][g] = 1.0 / qx[i][g];
        ivy[i][g] = 1.0 / qy[i][g];
        ivz[i][g] = 1.0 / qz[i][g];
      }
    }
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t g = 0; g < n; ++g) {
          // iswx/pxt/w2xt/p1t combo (j, k) = (y, z) indices; iswy/iswz
          // and pyt/pzt have an x index first, so reuse (j, k) as
          // (first, second).
          const double y2 = qy[j][g] * qy[j][g];
          const double z2 = qz[k][g] * qz[k][g];
          const double x2 = qx[j][g] * qx[j][g];
          const double yk2 = qy[k][g] * qy[k][g];
          const double w2x = y2 + z2;
          iswx[4 * j + k][g] = 1.0 / std::sqrt(w2x);
          iswy[4 * j + k][g] = 1.0 / std::sqrt(x2 + z2);
          iswz[4 * j + k][g] = 1.0 / std::sqrt(x2 + yk2);
          w2xt[4 * j + k][g] = w2x;
          pxt[4 * j + k][g] =
              y2 * z2 / 4.0 - y2 * y2 / 24.0 - z2 * z2 / 24.0;
          pyt[4 * j + k][g] =
              x2 * z2 / 4.0 - x2 * x2 / 24.0 - z2 * z2 / 24.0;
          pzt[4 * j + k][g] =
              x2 * yk2 / 4.0 - x2 * x2 / 24.0 - yk2 * yk2 / 24.0;
          p1t[4 * j + k][g] = y2 * y2 + z2 * z2 - 3.0 * (y2 * z2);
        }
      }
    }

    // Phase 2: the 64-corner bracket, one simd sweep per corner so the
    // per-entry accumulation order is fixed (i, j, k ascending) no matter
    // how the lanes are grouped.
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        for (int k = 0; k < 4; ++k) {
          const double sign = ((i + j + k) % 2 == 0) ? 1.0 : -1.0;
#pragma omp simd
          for (std::size_t g = 0; g < n; ++g) {
            const double x = qx[i][g], y = qy[j][g], z = qz[k][g];
            const double x2 = x * x, y2 = y * y, z2 = z * z;
            const double rho2 = x2 + w2xt[4 * j + k][g];
            const double rho = std::sqrt(rho2);
            const double irho = 1.0 / rho;

            double f = 0.0;

            const double px = pxt[4 * j + k][g];
            const double tx =
                px * std::abs(x) *
                log_bf((std::abs(x) + rho) * iswx[4 * j + k][g]);
            f += ((px != 0.0) & (x != 0.0)) ? tx : 0.0;

            const double py = pyt[4 * i + k][g];
            const double ty =
                py * std::abs(y) *
                log_bf((std::abs(y) + rho) * iswy[4 * i + k][g]);
            f += ((py != 0.0) & (y != 0.0)) ? ty : 0.0;

            const double pz = pzt[4 * i + j][g];
            const double tz =
                pz * std::abs(z) *
                log_bf((std::abs(z) + rho) * iswz[4 * i + j][g]);
            f += ((pz != 0.0) & (z != 0.0)) ? tz : 0.0;

            f += (x2 * x2 - 3.0 * x2 * w2xt[4 * j + k][g] +
                  p1t[4 * j + k][g]) *
                 rho / 60.0;

            const bool corner = (x != 0.0) & (y != 0.0) & (z != 0.0);
            f -= corner
                     ? x * y * z * z2 / 6.0 * atan_bf(x * y * ivz[k][g] * irho)
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
