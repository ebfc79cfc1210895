// N-dimensional inductance table with spline lookup and binary persistence.
//
// Section III of the paper: "The self inductance table has two dimensions:
// width and length.  The mutual inductance table has [four] dimensions:
// widths for two traces and the spacing between them [and length] ...
// A bi-cubic spline algorithm will be used to interpolate/extrapolate
// inductance that is not given in the table."
#pragma once

#include <array>
#include <atomic>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "numeric/spline.h"

namespace rlcx::core {

namespace detail {

/// Atomic statistic counter that stays copyable/movable so the tables that
/// carry it keep value semantics.  Copies snapshot the source (relaxed);
/// the counter is bookkeeping, never synchronisation.
template <typename T>
struct RelaxedAtomic {
  std::atomic<T> v{};
  RelaxedAtomic() = default;
  explicit RelaxedAtomic(T init) noexcept : v(init) {}
  RelaxedAtomic(const RelaxedAtomic& o) noexcept
      : v(o.v.load(std::memory_order_relaxed)) {}
  RelaxedAtomic& operator=(const RelaxedAtomic& o) noexcept {
    v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
};

}  // namespace detail

/// What a table does when a lookup falls outside its gridded region.
/// Spline extrapolation degrades fast away from the grid, so every policy
/// makes out-of-range queries visible; they differ in how hard they push.
enum class ExtrapolationPolicy {
  kWarn,   ///< extrapolate, emit one `numeric` warning per table (default)
  kClamp,  ///< clamp the query to the grid edge (conservative, monotone)
  kThrow,  ///< refuse: throw a `numeric` error naming table/axis/value/range
};

const char* to_string(ExtrapolationPolicy p);

class NdTable {
 public:
  NdTable() = default;

  /// `axes[d]` is the strictly increasing grid of axis `d` (at most
  /// TensorSpline::kMaxDims axes); `values` is row-major with the last axis
  /// fastest.
  NdTable(std::vector<std::string> axis_names,
          std::vector<std::vector<double>> axes, std::vector<double> values);

  std::size_t dims() const { return axes_.size(); }
  const std::vector<std::string>& axis_names() const { return names_; }
  const std::vector<std::vector<double>>& axes() const { return axes_; }
  const std::vector<double>& values() const { return values_; }

  /// Spline-interpolated lookup (tensor-product natural cubic — bicubic in
  /// two dimensions).  Queries outside the grid bump extrapolation_count()
  /// and are handled per the table's ExtrapolationPolicy: extrapolate with
  /// a one-time warning (default), clamp to the grid edge, or throw.  An
  /// in-range or extrapolating lookup allocates nothing.
  double lookup(std::span<const double> q) const;
  double lookup(std::initializer_list<double> q) const {
    return lookup(std::span<const double>(q.begin(), q.size()));
  }

  /// 0.5 (lookup(q) + lookup(r)) in one pass over the values, for two
  /// queries that agree on every axis after the first two: the mutual-L
  /// table's (w1, w2) and (w2, w1) orders.  Each query is counted and
  /// handled per the policy as lookup() would.
  double lookup_mean(std::span<const double> q,
                     std::span<const double> r) const;

  /// Label used in extrapolation warnings/errors (e.g. "self-L"), so a
  /// diagnostic names which of a model's tables was under-covered.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  ExtrapolationPolicy extrapolation_policy() const { return policy_; }
  void set_extrapolation_policy(ExtrapolationPolicy p) { policy_ = p; }

  /// Whether the query lies inside the gridded region on every axis.
  bool in_range(std::span<const double> q) const;
  bool in_range(std::initializer_list<double> q) const {
    return in_range(std::span<const double>(q.begin(), q.size()));
  }

  /// How many lookups so far fell outside the grid (per-table statistic;
  /// a healthy characterisation grid keeps this at zero).  The counter is
  /// atomic: lookup() is safe to call concurrently from pool workers.
  std::size_t extrapolation_count() const {
    return extrapolations_.v.load(std::memory_order_relaxed);
  }
  void reset_extrapolation_count() {
    extrapolations_.v.store(0, std::memory_order_relaxed);
  }

  /// Grid value by multi-index (mostly for tests).
  double at(const std::vector<std::size_t>& idx) const;

  /// Heap bytes this table holds: the axis grids, the one value array and
  /// the spline's per-axis operators (O(axis points), no copy of the
  /// values).  Names and the object itself are not counted.  The warm
  /// store's byte-budgeted LRU and the memory budget's accounting use this
  /// as the entry cost.
  std::size_t resident_bytes() const;

  /// Binary serialisation ("RLXT" magic + version header, raw
  /// little-endian IEEE-754 doubles).  Bit-exact round trip; the normative
  /// layout is docs/table-format.md.  Loading rejects bad magic,
  /// unsupported versions, foreign byte order and non-finite entries.
  void save(std::ostream& os) const;
  static NdTable load(std::istream& is);

 private:
  using Clamped = std::array<double, TensorSpline::kMaxDims>;
  /// The query to evaluate for `q`: q itself when in range; otherwise
  /// counted and handled per the policy — refused, clamped into `clamped`,
  /// or q itself after the one-time warning.
  std::span<const double> admit(std::span<const double> q,
                                Clamped& clamped) const;

  std::string name_ = "table";
  std::vector<std::string> names_;
  std::vector<std::vector<double>> axes_;
  std::vector<double> values_;
  TensorSpline spline_;
  ExtrapolationPolicy policy_ = ExtrapolationPolicy::kWarn;
  mutable detail::RelaxedAtomic<std::size_t> extrapolations_;
  mutable detail::RelaxedAtomic<bool> extrapolation_warned_;
};

}  // namespace rlcx::core
