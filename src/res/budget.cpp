#include "res/budget.h"

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "diag/error.h"
#include "diag/warnings.h"
#include "run/fault_injection.h"

namespace rlcx::res {

namespace {

/// Ambient-coverage depth for ScopedReservation on this thread.
thread_local int t_ambient_depth = 0;

std::uint64_t physical_ram_bytes() noexcept {
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page = ::sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page <= 0) return 0;
  return static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
}

constexpr std::uint64_t kMiB = 1024ull * 1024ull;

std::string refusal_message(std::uint64_t bytes, std::uint64_t in_use,
                            std::uint64_t limit) {
  std::string msg = "memory budget refused a ";
  msg += std::to_string(bytes);
  msg += "-byte reservation (in use ";
  msg += std::to_string(in_use);
  msg += " of ";
  msg += std::to_string(limit);
  msg += " bytes); shrink the request or raise --mem-budget";
  return msg;
}

}  // namespace

std::uint64_t default_limit_bytes() noexcept {
  if (const char* env = std::getenv("RLCX_MEM_BUDGET")) {
    char* end = nullptr;
    const unsigned long long mib = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0')
      return static_cast<std::uint64_t>(mib) * kMiB;
    diag::emit_warning(diag::Category::kUsage, "res",
                       std::string("ignoring malformed RLCX_MEM_BUDGET \"") +
                           env + "\" (expected MiB as an integer)");
  }
  return physical_ram_bytes() / 2;
}

Budget::Budget() : limit_(default_limit_bytes()) {}

Budget& Budget::global() {
  static Budget budget;
  return budget;
}

void Budget::set_limit(std::uint64_t bytes) noexcept {
  limit_.store(bytes, std::memory_order_relaxed);
}

std::uint64_t Budget::limit() const noexcept {
  return limit_.load(std::memory_order_relaxed);
}

std::uint64_t Budget::tracked() const noexcept {
  return tracked_.load(std::memory_order_relaxed);
}

std::uint64_t Budget::reserved() const noexcept {
  return reserved_.load(std::memory_order_relaxed);
}

std::uint64_t Budget::in_use() const noexcept { return tracked() + reserved(); }

std::uint64_t Budget::peak() const noexcept {
  return peak_.load(std::memory_order_relaxed);
}

void Budget::reset_peak() noexcept {
  peak_.store(in_use(), std::memory_order_relaxed);
}

void Budget::account(std::uint64_t bytes) noexcept {
  tracked_.fetch_add(bytes, std::memory_order_relaxed);
  bump_peak();
}

void Budget::unaccount(std::uint64_t bytes) noexcept {
  tracked_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool Budget::try_charge(std::uint64_t bytes) noexcept {
  const std::uint64_t limit = limit_.load(std::memory_order_relaxed);
  std::uint64_t cur = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    if (limit != 0 && tracked() + cur + bytes > limit) return false;
    if (reserved_.compare_exchange_weak(cur, cur + bytes,
                                        std::memory_order_relaxed))
      break;
  }
  bump_peak();
  return true;
}

void Budget::release_charge(std::uint64_t bytes) noexcept {
  reserved_.fetch_sub(bytes, std::memory_order_relaxed);
}

void Budget::bump_peak() noexcept {
  const std::uint64_t now = in_use();
  std::uint64_t seen = peak_.load(std::memory_order_relaxed);
  while (seen < now && !peak_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

Stats Budget::stats() const noexcept {
  Stats s;
  s.limit_bytes = limit();
  s.tracked_bytes = tracked();
  s.reserved_bytes = reserved();
  s.peak_bytes = peak();
  s.refusals = refusals_.load(std::memory_order_relaxed);
  s.contained_bad_allocs =
      contained_bad_allocs_.load(std::memory_order_relaxed);
  return s;
}

void Budget::record_refusal() noexcept {
  refusals_.fetch_add(1, std::memory_order_relaxed);
}

void Budget::record_contained_bad_alloc() noexcept {
  contained_bad_allocs_.fetch_add(1, std::memory_order_relaxed);
}

bool admission_exhausted(std::uint64_t bytes) noexcept {
  Budget& b = Budget::global();
  if (run::fault_point("alloc_fail")) {
    b.record_refusal();
    return true;
  }
  const std::uint64_t limit = b.limit();
  if (limit != 0 && bytes > limit) {
    b.record_refusal();
    return true;
  }
  return false;
}

Reservation::Reservation(const char* stage, std::uint64_t bytes) {
  Budget& b = Budget::global();
  bool refused = run::fault_point("alloc_fail");
  if (!refused && !b.try_charge(bytes)) refused = true;
  if (!refused) {
    bytes_ = bytes;
    return;
  }
  b.record_refusal();
  throw diag::ResourceExhaustedError(
      stage, refusal_message(bytes, b.in_use(), b.limit()));
}

Reservation::Reservation(Reservation&& other) noexcept
    : bytes_(std::exchange(other.bytes_, 0)) {}

Reservation& Reservation::operator=(Reservation&& other) noexcept {
  if (this != &other) {
    release();
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

Reservation::~Reservation() { release(); }

void Reservation::release() noexcept {
  if (bytes_ != 0) {
    Budget::global().release_charge(bytes_);
    bytes_ = 0;
  }
}

ScopedReservation::ScopedReservation(const char* stage, std::uint64_t bytes)
    : reservation_(stage, bytes) {
  if (reservation_.held()) {
    ++t_ambient_depth;
    entered_ = true;
  }
}

ScopedReservation::~ScopedReservation() {
  if (entered_) --t_ambient_depth;
}

bool ScopedReservation::covered() noexcept { return t_ambient_depth > 0; }

}  // namespace rlcx::res
