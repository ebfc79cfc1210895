// Process-wide resource governance: a memory budget with accounting and
// reservations.
//
// The stack's failure mode without this subsystem is binary: a request
// either fits in RAM or the process dies (std::bad_alloc at best, the OOM
// killer at worst) — and in the `rlcx serve` daemon that death takes every
// other client down too.  The paper's whole premise is that dense partial
// inductance is intractable at scale; this module makes the intractability
// *observable before the allocation*: analytic cost estimators predict a
// stage's resident bytes, a reservation charges them against one
// process-wide budget, and refusal is a typed, recoverable error
// (diag::ResourceExhaustedError, exit code 7) instead of a crash.
//
// Two mechanisms with different contracts:
//   * accounting  — Budget::account()/unaccount(), driven by the
//     TrackedAllocator hooks on the big containers (numeric::Matrix data,
//     warm-store tables).  Never fails, never throws; it only keeps the
//     live/peak byte counters honest so estimators can be validated and
//     `stats` output means something.
//   * enforcement — Reservation/ScopedReservation, taken at a handful of
//     coarse, *serial* decision points (the impedance solve, table-grid
//     construction, serve admission) before any fan-out.  Enforcing only
//     at serial points is what makes the refuse decision deterministic
//     across pool widths (docs/parallelism.md).
//
// Budget resolution order: --mem-budget MiB > RLCX_MEM_BUDGET (MiB) >
// default (half of physical RAM); 0 means unlimited.
//
// Every reservation attempt is also a fault-injection site
// (`alloc_fail`, run/fault_injection.h), so budget exhaustion at each
// site is testable in CI without real memory pressure.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace rlcx::res {

/// Snapshot of the governance telemetry (serve `stats`/`health`,
/// `cache stats`, core::BuildStats deltas).
struct Stats {
  std::uint64_t limit_bytes = 0;     ///< budget in force (0 = unlimited)
  std::uint64_t tracked_bytes = 0;   ///< live bytes seen by allocator hooks
  std::uint64_t reserved_bytes = 0;  ///< outstanding reservation charges
  std::uint64_t peak_bytes = 0;      ///< high-water of tracked + reserved
  std::uint64_t refusals = 0;        ///< hard reservation/admission refusals
  std::uint64_t contained_bad_allocs = 0;  ///< bad_allocs converted to 7

  std::uint64_t in_use() const { return tracked_bytes + reserved_bytes; }
};

/// The process-wide byte budget.  All methods are thread-safe; counters
/// use relaxed atomics (telemetry, not synchronization).
class Budget {
 public:
  static Budget& global();

  /// 0 = unlimited.  The CLI maps --mem-budget here before dispatch.
  void set_limit(std::uint64_t bytes) noexcept;
  std::uint64_t limit() const noexcept;

  std::uint64_t tracked() const noexcept;
  std::uint64_t reserved() const noexcept;
  std::uint64_t in_use() const noexcept;
  std::uint64_t peak() const noexcept;
  /// Rebase the high-water mark to the current in-use bytes (tests and
  /// per-build peak deltas).
  void reset_peak() noexcept;

  /// Advisory accounting from allocation hooks.  Never fails: a tracked
  /// allocation over budget still proceeds (enforcement happens at the
  /// coarse reservation points, not per-vector).
  void account(std::uint64_t bytes) noexcept;
  void unaccount(std::uint64_t bytes) noexcept;

  Stats stats() const noexcept;

  void record_refusal() noexcept;
  void record_contained_bad_alloc() noexcept;

 private:
  Budget();
  friend class Reservation;
  /// Charges `bytes` against the budget; false when the charge would push
  /// tracked + reserved past the limit.
  bool try_charge(std::uint64_t bytes) noexcept;
  void release_charge(std::uint64_t bytes) noexcept;
  void bump_peak() noexcept;

  std::atomic<std::uint64_t> limit_;
  std::atomic<std::uint64_t> tracked_{0};
  std::atomic<std::uint64_t> reserved_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> contained_bad_allocs_{0};
};

/// The budget a fresh process starts with: RLCX_MEM_BUDGET (MiB, 0 =
/// unlimited; malformed values warn and fall through) or half of physical
/// RAM when the environment is silent.
std::uint64_t default_limit_bytes() noexcept;

/// Cost-based admission check (serve::AdmissionQueue): true when a request
/// estimated at `bytes` can *never* fit the budget — estimate > limit — or
/// the `alloc_fail` injection site fires.  A true verdict is permanent for
/// this request (unlike queue overload it will not clear on retry) and is
/// counted as a refusal.
bool admission_exhausted(std::uint64_t bytes) noexcept;

/// A movable charge against the global budget, for reservations whose
/// lifetime outlives a scope (e.g. a member of core::GridSolvePlan).
/// Acquiring fires the `alloc_fail` fault point exactly once; a charge the
/// budget refuses throws diag::ResourceExhaustedError (counted as a
/// refusal).
class Reservation {
 public:
  Reservation() noexcept = default;
  Reservation(const char* stage, std::uint64_t bytes);
  Reservation(Reservation&& other) noexcept;
  Reservation& operator=(Reservation&& other) noexcept;
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  ~Reservation();

  void release() noexcept;
  bool held() const noexcept { return bytes_ != 0; }
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

/// Scope-bound reservation that also marks the calling thread as covered,
/// the same ambient pattern as run::ScopedRunControl: nested reservation
/// sites (the peec fill under the solver's reservation) see covered() and
/// skip re-charging, so one logical stage is charged once no matter how
/// deep the call tree.
/// Not movable — it registers with the constructing thread.
class ScopedReservation {
 public:
  ScopedReservation(const char* stage, std::uint64_t bytes);
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;
  ~ScopedReservation();

  bool held() const noexcept { return reservation_.held(); }
  std::uint64_t bytes() const noexcept { return reservation_.bytes(); }

  /// True when the calling thread is inside a held ScopedReservation.
  static bool covered() noexcept;

 private:
  Reservation reservation_;
  bool entered_ = false;
};

/// Minimal allocator that routes byte counts through Budget accounting.
/// Purely advisory: allocation still goes to the default allocator and a
/// real std::bad_alloc still propagates (to be contained at the request
/// boundary, not here).
template <typename T>
class TrackedAllocator {
 public:
  using value_type = T;

  TrackedAllocator() noexcept = default;
  template <typename U>
  TrackedAllocator(const TrackedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    T* p = std::allocator<T>().allocate(n);
    Budget::global().account(n * sizeof(T));
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
    Budget::global().unaccount(n * sizeof(T));
  }

  friend bool operator==(const TrackedAllocator&,
                         const TrackedAllocator&) noexcept {
    return true;
  }
};

}  // namespace rlcx::res
