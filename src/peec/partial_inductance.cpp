#include "peec/partial_inductance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "diag/error.h"

namespace rlcx::peec {

namespace detail {

void check_hoer_love_dims(double a, double b, double l1, double c, double d,
                          double l2) {
  if (a <= 0.0 || b <= 0.0 || c <= 0.0 || d <= 0.0 || l1 <= 0.0 ||
      l2 <= 0.0) {
    std::ostringstream msg;
    msg << "hoer_love_mutual: every bar dimension must be positive, got "
           "a=" << a << " b=" << b << " l1=" << l1 << " c=" << c << " d=" << d
        << " l2=" << l2 << " [m] (degenerate bar has no volume to integrate)";
    throw diag::GeometryError("peec", msg.str());
  }
}

void check_filament_args(double l1, double l2, double s, double r) {
  if (l1 <= 0.0 || l2 <= 0.0)
    throw diag::GeometryError(
        "peec", "filament_mutual: lengths must be positive, got l1=" +
                    std::to_string(l1) + " l2=" + std::to_string(l2) + " m");
  if (r < 0.0)
    throw diag::GeometryError(
        "peec", "filament_mutual: radial distance must be >= 0, got " +
                    std::to_string(r) + " m");
  if (r == 0.0) {
    // Overlapping collinear filaments have divergent mutual inductance.
    // Tolerate ulp-level overlap so exactly-touching chunks of a subdivided
    // bar do not trip the guard.
    const double eps = 1e-9 * std::max({l1, l2, std::abs(s)});
    if (s + l2 > eps && s < l1 - eps)
      throw diag::GeometryError(
          "peec",
          "filament_mutual: collinear filaments overlap axially (s=" +
              std::to_string(s) + " m, l1=" + std::to_string(l1) +
              " m, l2=" + std::to_string(l2) +
              " m); their mutual inductance diverges");
  }
}

}  // namespace detail

int chunk_count(const Bar& b, double max_aspect) {
  const double max_len = max_aspect * std::max(b.t_width, b.z_thick);
  return std::max(1, static_cast<int>(std::ceil(b.length / max_len)));
}

PairChunking pair_chunking(const Bar& b1, const Bar& b2, double max_aspect) {
  PairChunking pc;
  pc.n1 = chunk_count(b1, max_aspect);
  pc.n2 = chunk_count(b2, max_aspect);
  pc.aligned = b1.axis == b2.axis && b1.a_min == b2.a_min &&
               b1.length == b2.length;
  if (pc.aligned) pc.n1 = pc.n2 = std::max(pc.n1, pc.n2);
  return pc;
}

namespace detail {

/// Distinct bars must not share volume: two conductors occupying the same
/// space is a layout error, and the kernel would happily integrate it into
/// a plausible-looking (but meaningless) mutual inductance.
void check_pair_disjoint(const Bar& b1, const Bar& b2) {
  const double oa = std::min(b1.a_max(), b2.a_max()) -
                    std::max(b1.a_min, b2.a_min);
  const double ot = std::min(b1.t_max(), b2.t_max()) -
                    std::max(b1.t_min, b2.t_min);
  const double oz = std::min(b1.z_max(), b2.z_max()) -
                    std::max(b1.z_min, b2.z_min);
  // Tolerate ulp-level contact so exactly-touching bars are fine.
  const double eps = 1e-12 * std::max({b1.length, b2.length, b1.t_width,
                                       b2.t_width, b1.z_thick, b2.z_thick});
  if (oa > eps && ot > eps && oz > eps) {
    std::ostringstream msg;
    msg << "mutual_partial: bars overlap in volume (axial overlap " << oa
        << " m, transverse " << ot << " m, vertical " << oz
        << " m); distinct conductors must be disjoint";
    throw diag::GeometryError("peec", msg.str());
  }
}

/// The kernel's 64-term cancellation can, with pathological inputs, lose
/// every significant digit; never hand a NaN/Inf downstream silently.
double check_finite_value(double value, const char* what) {
  if (!std::isfinite(value))
    throw diag::NumericError(
        "peec", std::string(what) +
                    " evaluated non-finite; the bar geometry is outside the "
                    "kernel's numerically stable range");
  return value;
}

}  // namespace detail

namespace {

std::int64_t quantize(double v, double quantum) {
  return static_cast<std::int64_t>(std::llround(v / quantum));
}

}  // namespace

std::size_t PairKeyHash::operator()(const PairKey& k) const noexcept {
  // FNV-1a over the nine quantized fields; cheap and well-mixed enough for
  // the per-fill table.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  mix(k.w1); mix(k.h1); mix(k.l1);
  mix(k.w2); mix(k.h2); mix(k.l2);
  mix(k.dt); mix(k.dz); mix(k.da);
  return static_cast<std::size_t>(h);
}

PairKey make_self_key(const Bar& bar, double quantum) {
  PairKey k;
  k.w1 = k.w2 = quantize(bar.t_width, quantum);
  k.h1 = k.h2 = quantize(bar.z_thick, quantum);
  k.l1 = k.l2 = quantize(bar.length, quantum);
  return k;
}

PairKey make_pair_key(const Bar& b1, const Bar& b2, double quantum) {
  PairKey k;
  k.w1 = quantize(b1.t_width, quantum);
  k.h1 = quantize(b1.z_thick, quantum);
  k.l1 = quantize(b1.length, quantum);
  k.w2 = quantize(b2.t_width, quantum);
  k.h2 = quantize(b2.z_thick, quantum);
  k.l2 = quantize(b2.length, quantum);
  k.dt = quantize(b2.t_center() - b1.t_center(), quantum);
  k.dz = quantize(b2.z_center() - b1.z_center(), quantum);
  k.da = quantize(b2.a_center() - b1.a_center(), quantum);
  return k;
}

}  // namespace rlcx::peec
