#include "support/partial_reference.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "numeric/units.h"

namespace rlcx::peec {

namespace {

// ln((v + rho) / sqrt(rho^2 - v^2)) evaluated stably for v < 0, where
// rho = sqrt(v^2 + w2) and w2 = rho^2 - v^2 >= 0 is the sum of the squares
// of the other two coordinates.
double log_ratio(double v, double rho, double w2) {
  // (v + rho) = w2 / (rho - v) when v < 0 avoids cancellation.
  const double num = v >= 0.0 ? v + rho : w2 / (rho - v);
  return std::log(num / std::sqrt(w2));
}

// Hoer & Love's f(x,y,z).  Inputs must be pre-scaled to O(1).
double hl_f(double x, double y, double z) {
  const double x2 = x * x, y2 = y * y, z2 = z * z;
  const double rho2 = x2 + y2 + z2;
  if (rho2 == 0.0) return 0.0;
  const double rho = std::sqrt(rho2);

  double acc = 0.0;

  // The three "v * ln((v + rho)/sqrt(...))" terms.  Each prefactor vanishes
  // identically when its two transverse coordinates vanish, which is exactly
  // when the log argument degenerates — so a zero-prefactor guard suffices.
  const double px = y2 * z2 / 4.0 - y2 * y2 / 24.0 - z2 * z2 / 24.0;
  if (px != 0.0 && x != 0.0) acc += px * x * log_ratio(x, rho, y2 + z2);

  const double py = x2 * z2 / 4.0 - x2 * x2 / 24.0 - z2 * z2 / 24.0;
  if (py != 0.0 && y != 0.0) acc += py * y * log_ratio(y, rho, x2 + z2);

  const double pz = x2 * y2 / 4.0 - x2 * x2 / 24.0 - y2 * y2 / 24.0;
  if (pz != 0.0 && z != 0.0) acc += pz * z * log_ratio(z, rho, x2 + y2);

  acc += (x2 * x2 + y2 * y2 + z2 * z2 -
          3.0 * (x2 * y2 + y2 * z2 + z2 * x2)) *
         rho / 60.0;

  // The three arctangent terms vanish whenever any coordinate is zero.
  // Note: the formula needs the principal-value atan of the quotient (odd in
  // every coordinate), not atan2 — the latter picks the wrong branch for
  // negative bracket arguments.
  if (x != 0.0 && y != 0.0 && z != 0.0) {
    acc -= x * y * z * z2 / 6.0 * std::atan(x * y / (z * rho));
    acc -= x * y * y2 * z / 6.0 * std::atan(x * z / (y * rho));
    acc -= x * x2 * y * z / 6.0 * std::atan(y * z / (x * rho));
  }
  return acc;
}

}  // namespace

std::vector<Bar> chunk_lengthwise(const Bar& b, double max_aspect) {
  const int n = chunk_count(b, max_aspect);
  std::vector<Bar> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) out.push_back(chunk_at(b, n, k));
  return out;
}

double hoer_love_mutual(double a, double b, double l1, double c, double d,
                        double l2, double E, double P, double l3) {
  detail::check_hoer_love_dims(a, b, l1, c, d, l2);

  // Scale the geometry to O(1); inductance scales linearly with size.
  const double s = std::max({a, b, c, d, l1, l2, std::abs(E) + c,
                             std::abs(P) + d, std::abs(l3) + l2});
  const double inv = 1.0 / s;
  const double as = a * inv, bs = b * inv, cs = c * inv, ds = d * inv;
  const double l1s = l1 * inv, l2s = l2 * inv;
  const double Es = E * inv, Ps = P * inv, l3s = l3 * inv;

  // Four-point limits per dimension; signs follow from the double
  // integration: [+,-,+,-] over [q-a, q+c-a, q+c, q].
  const double qx[4] = {Es - as, Es + cs - as, Es + cs, Es};
  const double qy[4] = {Ps - bs, Ps + ds - bs, Ps + ds, Ps};
  const double qz[4] = {l3s - l1s, l3s + l2s - l1s, l3s + l2s, l3s};

  double sum = 0.0;
  for (int i = 0; i < 4; ++i) {
    const double sx = (i % 2 == 0) ? 1.0 : -1.0;
    for (int j = 0; j < 4; ++j) {
      const double sy = (j % 2 == 0) ? 1.0 : -1.0;
      for (int k = 0; k < 4; ++k) {
        const double sz = (k % 2 == 0) ? 1.0 : -1.0;
        sum += sx * sy * sz * hl_f(qx[i], qy[j], qz[k]);
      }
    }
  }
  // f has dimension length^5, the prefactor 1/(abcd) removes length^4,
  // and the scale restores the remaining factor of s.
  return 1e-7 * sum / (as * bs * cs * ds) * s;  // mu0/4pi = 1e-7
}

double filament_mutual(double l1, double l2, double s, double r) {
  detail::check_filament_args(l1, l2, s, r);
  if (r == 0.0) {
    // Collinear case: the r->0 limit of the kernel is |u|(ln|u| - 1) plus
    // |u| ln(2/r), whose coefficients cancel across the bracket because all
    // four arguments share a sign for non-overlapping filaments.
    auto h0 = [](double u) {
      const double au = std::abs(u);
      return au == 0.0 ? 0.0 : au * (std::log(au) - 1.0);
    };
    return 1e-7 * (h0(s + l2) + h0(s - l1) - h0(s + l2 - l1) - h0(s));
  }
  auto h = [r](double u) {
    return u * std::asinh(u / r) - std::sqrt(u * u + r * r);
  };
  return 1e-7 * (h(s + l2) + h(s - l1) - h(s + l2 - l1) - h(s));
}

double ruehli_self(double length, double width, double thickness) {
  const double wt = width + thickness;
  return kMu0 * length / (2.0 * std::numbers::pi) *
         (std::log(2.0 * length / wt) + 0.5 + 0.2235 * wt / length);
}

namespace {

// Mutual between two same-axis chunks: filament fast path when the bars are
// well separated — transversely or by an axial gap — where the filament
// closed form is both accurate (error ~ (cross/distance)^2) and numerically
// robust; exact volume kernel otherwise.  Near/overlapping axial ranges at
// small transverse distance must use the volume kernel (GMD effects), and
// far-apart pairs must NOT: there the 64-term bracket cancels to a value
// tiny compared with its terms and the round-off accumulates systematically
// across many chunk pairs.
double chunk_mutual(const Bar& p, const Bar& q, const PartialOptions& opt) {
  const double diag = 0.5 * (p.cross_diag() + q.cross_diag());
  const double dt = q.t_center() - p.t_center();
  const double dz = q.z_center() - p.z_center();
  const double r = std::hypot(dt, dz);
  const double axial_gap =
      std::max(0.0, std::max(p.a_min, q.a_min) -
                        std::min(p.a_max(), q.a_max()));
  if (r > opt.far_factor * diag || axial_gap > opt.far_factor * diag) {
    return filament_mutual(p.length, q.length, q.a_min - p.a_min, r);
  }
  return hoer_love_mutual(p.t_width, p.z_thick, p.length, q.t_width,
                          q.z_thick, q.length, q.t_min - p.t_min,
                          q.z_min - p.z_min, q.a_min - p.a_min);
}

}  // namespace

double self_partial(const Bar& bar, const PartialOptions& opt) {
  // L = sum over all chunk pairs (including self terms): the exact series
  // decomposition of partial inductance.
  const std::vector<Bar> chunks = chunk_lengthwise(bar, opt.max_aspect);
  double total = 0.0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    total += chunk_mutual(chunks[i], chunks[i], opt);
    for (std::size_t j = i + 1; j < chunks.size(); ++j)
      total += 2.0 * chunk_mutual(chunks[i], chunks[j], opt);
  }
  return detail::check_finite_value(total, "self partial inductance");
}

double mutual_partial(const Bar& b1, const Bar& b2,
                      const PartialOptions& opt) {
  if (b1.axis != b2.axis) return 0.0;  // orthogonal bars do not couple
  detail::check_pair_disjoint(b1, b2);
  const PairChunking pc = pair_chunking(b1, b2, opt.max_aspect);
  double total = 0.0;
  for (int i = 0; i < pc.n1; ++i) {
    const Bar p = chunk_at(b1, pc.n1, i);
    for (int j = 0; j < pc.n2; ++j)
      total += chunk_mutual(p, chunk_at(b2, pc.n2, j), opt);
  }
  return detail::check_finite_value(total, "mutual partial inductance");
}

}  // namespace rlcx::peec
