#include "numeric/spline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace rlcx {

namespace {

/// Doubles a query keeps on the stack: a weight row per axis (two more for
/// eval_mean's swapped orders) and one axis of solve scratch.  A grid that
/// needs more — far beyond any characterised one — falls back to the heap.
constexpr std::size_t kInlineWeights = 256;

/// One query's weight rows: on the stack up to kInlineWeights doubles.
class WeightBuffer {
 public:
  explicit WeightBuffer(std::size_t n) {
    if (n > kInlineWeights) heap_.resize(n);
  }
  double* data() { return heap_.empty() ? inline_.data() : heap_.data(); }

 private:
  std::array<double, kInlineWeights> inline_;
  std::vector<double> heap_;
};

/// acc[l] += coef * (the sub-tensor at v contracted with w[0..] over its
/// first D - 1 axes)[l], for every index l of its last axis: the nest runs
/// the outer axes and multiplies their weights into `coef`, and the
/// innermost loop is one contiguous row of the table, whose lanes are
/// independent sums.  D is a template parameter so the nest unrolls into
/// straight loops.
template <std::size_t D>
void accumulate(const double* v, const SplineAxis* axes,
                const std::size_t* stride, const double* const* w,
                double coef, double* acc) {
  const std::size_t n = axes[0].size();
  if constexpr (D == 1) {
    for (std::size_t l = 0; l < n; ++l) acc[l] += coef * v[l];
  } else {
    const double* w0 = w[0];
    for (std::size_t i = 0; i < n; ++i)
      accumulate<D - 1>(v + i * stride[0], axes + 1, stride + 1, w + 1,
                        coef * w0[i], acc);
  }
}

void accumulate(std::size_t dims, const double* v, const SplineAxis* axes,
                const std::size_t* stride, const double* const* w,
                double coef, double* acc) {
  switch (dims) {
    case 1: return accumulate<1>(v, axes, stride, w, coef, acc);
    case 2: return accumulate<2>(v, axes, stride, w, coef, acc);
    case 3: return accumulate<3>(v, axes, stride, w, coef, acc);
    case 4: return accumulate<4>(v, axes, stride, w, coef, acc);
    case 5: return accumulate<5>(v, axes, stride, w, coef, acc);
    case 6: return accumulate<6>(v, axes, stride, w, coef, acc);
    case 7: return accumulate<7>(v, axes, stride, w, coef, acc);
    default: return accumulate<8>(v, axes, stride, w, coef, acc);
  }
}

double dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

SplineAxis::SplineAxis(std::vector<double> knots) : x_(std::move(knots)) {
  const std::size_t n = x_.size();
  if (n < 2) throw std::invalid_argument("axis needs >= 2 points");
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(x_[i]) || (i > 0 && !(x_[i] > x_[i - 1])))
      throw std::invalid_argument("spline knots must increase");
  for (std::size_t i = 0; i + 1 < n; ++i) {
    h_.push_back(x_[i + 1] - x_[i]);
    inv_h_.push_back(1.0 / h_.back());
    sixth_.push_back(h_.back() / 6.0);
  }
  // Thomas factorisation of T over the interior knots i = k + 1.
  const std::size_t m = n - 2;
  lower_.assign(m, 0.0);
  inv_piv_.assign(m, 0.0);
  double piv = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const double diag = (h_[k] + h_[k + 1]) / 3.0;
    if (k == 0) {
      piv = diag;
    } else {
      lower_[k] = sixth_[k] / piv;
      piv = diag - lower_[k] * sixth_[k];
    }
    inv_piv_[k] = 1.0 / piv;
  }
}

void SplineAxis::weights(double x, double* w, double* scratch) const {
  const std::size_t n = x_.size();
  std::fill(w, w + n, 0.0);
  // f(x) = w_lin . y + c_lo M[lo] + c_hi M[lo + 1]: the linear part and
  // the second-derivative coefficients of the piece x falls in.
  std::size_t lo = 0;
  double c_lo = 0.0, c_hi = 0.0;
  if (x < x_.front()) {
    // y_0 + t f'(x_0), f'(x_0) = (y_1 - y_0) / h - h M_1 / 6.
    const double t = x - x_.front();
    w[0] = 1.0 - t * inv_h_[0];
    w[1] = t * inv_h_[0];
    c_hi = -t * sixth_[0];
  } else if (x > x_.back()) {
    // y_{n-1} + t f'(x_{n-1}), f'(x_{n-1}) = (y_{n-1} - y_{n-2}) / h
    // + h M_{n-2} / 6.
    lo = n - 2;
    const double t = x - x_.back();
    w[n - 1] = 1.0 + t * inv_h_[lo];
    w[n - 2] = -t * inv_h_[lo];
    c_lo = t * sixth_[lo];
  } else {
    // x >= x_0, so the first knot above x is knot 1 or later.
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(x_.begin(), x_.end(), x) - x_.begin());
    lo = std::min(hi, n - 1) - 1;
    const double h = h_[lo];
    const double a = (x_[lo + 1] - x) / h;
    const double b = (x - x_[lo]) / h;
    w[lo] = a;
    w[lo + 1] = b;
    c_lo = (a * a * a - a) * (h * sixth_[lo]);
    c_hi = (b * b * b - b) * (h * sixth_[lo]);
  }
  if (n < 3) return;  // two knots: M = 0, a straight line

  // c . M = c . T^-1 D y = (T^-1 c) . D y, T symmetric: solve T z = c over
  // the interior knots (M_0 = M_{n-1} = 0), then w += D^T z.
  const std::size_t m = n - 2;
  double* z = scratch;
  std::fill(z, z + m, 0.0);
  if (lo >= 1) z[lo - 1] = c_lo;
  if (lo < m) z[lo] = c_hi;
  for (std::size_t k = 1; k < m; ++k) z[k] -= lower_[k] * z[k - 1];
  z[m - 1] *= inv_piv_[m - 1];
  for (std::size_t k = m - 1; k-- > 0;)
    z[k] = (z[k] - sixth_[k + 1] * z[k + 1]) * inv_piv_[k];
  for (std::size_t k = 0; k < m; ++k) {
    w[k] += z[k] * inv_h_[k];
    w[k + 1] -= z[k] * (inv_h_[k] + inv_h_[k + 1]);
    w[k + 2] += z[k] * inv_h_[k + 1];
  }
}

std::size_t SplineAxis::resident_bytes() const {
  return (x_.capacity() + h_.capacity() + inv_h_.capacity() +
          sixth_.capacity() + lower_.capacity() + inv_piv_.capacity()) *
         sizeof(double);
}

TensorSpline::TensorSpline(const std::vector<std::vector<double>>& axes) {
  if (axes.size() > kMaxDims)
    throw std::invalid_argument("tensor spline has too many axes");
  axes_.reserve(axes.size());
  for (const std::vector<double>& ax : axes) axes_.emplace_back(ax);
  stride_.assign(axes_.size(), 1);
  size_ = axes_.empty() ? 0 : 1;
  for (std::size_t d = axes_.size(); d-- > 0;) {
    stride_[d] = size_;
    size_ *= axes_[d].size();
    knots_ += axes_[d].size();
    largest_ = std::max(largest_, axes_[d].size());
  }
}

void TensorSpline::check(std::span<const double> values,
                         std::span<const double> q) const {
  if (q.size() != axes_.size())
    throw std::invalid_argument("tensor spline query dimension");
  if (values.size() != size_ || axes_.empty())
    throw std::invalid_argument("tensor spline value count mismatch");
}

double TensorSpline::eval(std::span<const double> values,
                          std::span<const double> q) const {
  check(values, q);
  const std::size_t dims = axes_.size(), last = axes_.back().size();
  WeightBuffer buf(knots_ + largest_);
  double* const scratch = buf.data() + knots_;
  std::array<const double*, kMaxDims> w;
  double* next = buf.data();
  for (std::size_t d = 0; d < dims; ++d) {
    axes_[d].weights(q[d], next, scratch);
    w[d] = next;
    next += axes_[d].size();
  }
  double* const acc = scratch;
  std::fill(acc, acc + last, 0.0);
  accumulate(dims, values.data(), axes_.data(), stride_.data(), w.data(), 1.0,
             acc);
  return dot(w[dims - 1], acc, last);
}

double TensorSpline::eval_mean(std::span<const double> values,
                               std::span<const double> q,
                               std::span<const double> r) const {
  check(values, q);
  check(values, r);
  const std::size_t dims = axes_.size();
  if (dims < 2)
    throw std::invalid_argument("tensor spline eval_mean needs >= 2 axes");
  for (std::size_t d = 2; d < dims; ++d)
    if (!(q[d] == r[d]))
      throw std::invalid_argument(
          "tensor spline eval_mean: queries differ after the first two axes");
  const std::size_t n0 = axes_[0].size(), n1 = axes_[1].size();
  WeightBuffer buf(knots_ + n0 + n1 + largest_);
  double* const wq0 = buf.data();
  double* const wq1 = wq0 + n0;
  double* const wr0 = wq1 + n1;
  double* const wr1 = wr0 + n0;
  double* const scratch = buf.data() + knots_ + n0 + n1;
  axes_[0].weights(q[0], wq0, scratch);
  axes_[1].weights(q[1], wq1, scratch);
  axes_[0].weights(r[0], wr0, scratch);
  axes_[1].weights(r[1], wr1, scratch);
  std::array<const double*, kMaxDims> w;
  double* next = wr1 + n1;
  for (std::size_t d = 2; d < dims; ++d) {
    axes_[d].weights(q[d], next, scratch);
    w[d] = next;
    next += axes_[d].size();
  }
  // Both orders in one pass: the first two axes' weight is the sum of the
  // two outer products.
  if (dims == 2) {
    double s = 0.0;
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < n1; ++j)
        s += (wq0[i] * wq1[j] + wr0[i] * wr1[j]) * values[i * n1 + j];
    return 0.5 * s;
  }
  const std::size_t last = axes_.back().size();
  double* const acc = scratch;
  std::fill(acc, acc + last, 0.0);
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < n1; ++j)
      accumulate(dims - 2, values.data() + i * stride_[0] + j * stride_[1],
                 axes_.data() + 2, stride_.data() + 2, w.data() + 2,
                 wq0[i] * wq1[j] + wr0[i] * wr1[j], acc);
  return 0.5 * dot(w[dims - 1], acc, last);
}

std::size_t TensorSpline::resident_bytes() const {
  std::size_t bytes = axes_.capacity() * sizeof(SplineAxis) +
                      stride_.capacity() * sizeof(std::size_t);
  for (const SplineAxis& ax : axes_) bytes += ax.resident_bytes();
  return bytes;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("linspace needs >= 2 points");
  std::vector<double> v(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) v[i] = lo + step * static_cast<double>(i);
  v.back() = hi;
  return v;
}

std::vector<double> geomspace(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("geomspace needs >= 2 points");
  if (lo <= 0.0 || hi <= 0.0)
    throw std::invalid_argument("geomspace needs positive bounds");
  std::vector<double> v(n);
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double cur = lo;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = cur;
    cur *= ratio;
  }
  v.back() = hi;
  return v;
}

}  // namespace rlcx
