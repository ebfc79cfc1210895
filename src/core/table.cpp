#include "core/table.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/binary_io.h"
#include "diag/error.h"
#include "diag/warnings.h"

namespace rlcx::core {

namespace {

constexpr char kBinaryMagic[4] = {'R', 'L', 'X', 'T'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr std::size_t kMaxDims = TensorSpline::kMaxDims;
constexpr std::uint64_t kMaxAxisPoints = 1u << 20;

}  // namespace

const char* to_string(ExtrapolationPolicy p) {
  switch (p) {
    case ExtrapolationPolicy::kWarn: return "warn";
    case ExtrapolationPolicy::kClamp: return "clamp";
    case ExtrapolationPolicy::kThrow: return "throw";
  }
  return "?";
}

NdTable::NdTable(std::vector<std::string> axis_names,
                 std::vector<std::vector<double>> axes,
                 std::vector<double> values)
    : names_(std::move(axis_names)), axes_(std::move(axes)),
      values_(std::move(values)), spline_(axes_) {
  if (names_.size() != axes_.size())
    throw std::invalid_argument("NdTable: axis name count");
  if (values_.size() != spline_.size())
    throw std::invalid_argument("NdTable: value count does not match axes");
  for (double v : values_)
    if (!std::isfinite(v))
      throw diag::NumericError(
          "table", "non-finite value " + std::to_string(v) + " in table '" +
                       name_ + "' data (characterisation produced NaN/Inf?)");
}

double NdTable::lookup(std::span<const double> q) const {
  if (axes_.empty()) throw std::logic_error("NdTable: empty table");
  Clamped clamped;
  return spline_.eval(values_, admit(q, clamped));
}

double NdTable::lookup_mean(std::span<const double> q,
                            std::span<const double> r) const {
  if (axes_.empty()) throw std::logic_error("NdTable: empty table");
  Clamped cq, cr;
  const std::span<const double> eq = admit(q, cq);
  return spline_.eval_mean(values_, eq, admit(r, cr));
}

std::span<const double> NdTable::admit(std::span<const double> q,
                                       Clamped& clamped) const {
  if (in_range(q)) return q;
  extrapolations_.v.fetch_add(1, std::memory_order_relaxed);

  // Identify the worst offending axis for the diagnostic.
  std::size_t ax = 0;
  for (std::size_t d = 0; d < axes_.size(); ++d)
    if (q[d] < axes_[d].front() || q[d] > axes_[d].back()) { ax = d; break; }
  auto where = [&] {
    std::ostringstream os;
    os << "query " << names_[ax] << " = " << q[ax] << " outside table '"
       << name_ << "' grid [" << axes_[ax].front() << ", "
       << axes_[ax].back() << "]";
    return os.str();
  };

  switch (policy_) {
    case ExtrapolationPolicy::kThrow:
      throw diag::NumericError(
          "table", where() + "; extrapolation disabled by policy "
                             "(extend the characterisation grid)");
    case ExtrapolationPolicy::kClamp:
      for (std::size_t d = 0; d < axes_.size(); ++d)
        clamped[d] =
            std::min(std::max(q[d], axes_[d].front()), axes_[d].back());
      return {clamped.data(), axes_.size()};
    case ExtrapolationPolicy::kWarn:
      break;
  }
  // exchange() elects exactly one warner under concurrent extrapolation.
  if (!extrapolation_warned_.v.exchange(true, std::memory_order_relaxed)) {
    diag::emit_warning(diag::Category::kNumeric, "table",
                       where() +
                           "; spline extrapolation degrades away from the "
                           "grid (warning once per table)");
  }
  return q;
}

bool NdTable::in_range(std::span<const double> q) const {
  if (q.size() != axes_.size())
    throw std::invalid_argument("NdTable: query dimension");
  for (std::size_t d = 0; d < axes_.size(); ++d)
    if (q[d] < axes_[d].front() || q[d] > axes_[d].back()) return false;
  return true;
}

std::size_t NdTable::resident_bytes() const {
  std::size_t bytes = axes_.capacity() * sizeof(std::vector<double>) +
                      values_.capacity() * sizeof(double) +
                      spline_.resident_bytes();
  for (const std::vector<double>& a : axes_)
    bytes += a.capacity() * sizeof(double);
  return bytes;
}

double NdTable::at(const std::vector<std::size_t>& idx) const {
  if (idx.size() != axes_.size())
    throw std::invalid_argument("NdTable: index dimension");
  std::size_t flat = 0;
  for (std::size_t d = 0; d < axes_.size(); ++d) {
    if (idx[d] >= axes_[d].size())
      throw std::out_of_range("NdTable: index out of range");
    flat = flat * axes_[d].size() + idx[d];
  }
  return values_[flat];
}

void NdTable::save(std::ostream& os) const {
  using namespace detail;
  write_header(os, kBinaryMagic, kBinaryVersion);
  put_u32(os, static_cast<std::uint32_t>(axes_.size()));
  for (std::size_t d = 0; d < axes_.size(); ++d) {
    put_u32(os, static_cast<std::uint32_t>(names_[d].size()));
    put_bytes(os, names_[d].data(), names_[d].size());
    put_u64(os, axes_[d].size());
    for (double v : axes_[d]) put_f64(os, v);
  }
  put_u64(os, values_.size());
  for (double v : values_) put_f64(os, v);
  if (!os) throw diag::IoError("table", "binary write failed");
}

NdTable NdTable::load(std::istream& is) {
  using namespace detail;
  check_header(is, kBinaryMagic, kBinaryVersion, "NdTable");
  const std::uint32_t dims = get_u32(is, "dims");
  if (dims > kMaxDims)
    throw diag::IoError("table", "bad dimension count");
  std::vector<std::string> names(dims);
  std::vector<std::vector<double>> axes(dims);
  std::uint64_t expected = dims == 0 ? 0 : 1;
  for (std::uint32_t d = 0; d < dims; ++d) {
    const std::uint32_t name_len = get_u32(is, "axis name");
    if (name_len > 256)
      throw diag::IoError("table", "axis name too long");
    names[d].resize(name_len);
    get_bytes(is, names[d].data(), name_len, "axis name");
    const std::uint64_t n = get_u64(is, "axis size");
    if (n < 2 || n > kMaxAxisPoints)
      throw diag::IoError("table", "bad axis size");
    axes[d].resize(n);
    for (double& v : axes[d]) v = get_f64(is, "axis value");
    for (std::size_t i = 0; i < axes[d].size(); ++i) {
      if (!std::isfinite(axes[d][i]) ||
          (i > 0 && axes[d][i] <= axes[d][i - 1]))
        throw diag::IoError(
            "table", "axis not finite and strictly increasing");
    }
    expected *= n;
  }
  const std::uint64_t count = get_u64(is, "value count");
  if (count != expected)
    throw diag::IoError("table", "value count does not match axes");
  std::vector<double> values(count);
  for (double& v : values) {
    v = get_f64(is, "value");
    if (!std::isfinite(v))
      throw diag::NumericError(
          "table",
          "non-finite value " + std::to_string(v) +
              " in stored table data (corrupt or mis-characterised file)");
  }
  if (dims == 0) return NdTable();
  return NdTable(std::move(names), std::move(axes), std::move(values));
}

}  // namespace rlcx::core
