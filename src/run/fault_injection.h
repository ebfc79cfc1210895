// Deterministic fault injection for the recovery and refusal paths.
//
// The robustness machinery (cache quarantine -> rebuild, cache-store retry
// -> skip, journal and crash recovery, cooperative cancellation) only earns
// trust if it can be *driven* on demand, in-process and reproducibly.
// This injector triggers named faults at scheduled call counts:
//
//   RLCX_FAULT_SCHEDULE=cache_write:3,journal_fsync:1
//
// arms the 3rd call to fault_point("cache_write") and the 1st call to
// fault_point("journal_fsync").  Each entry is `site:N` (fire exactly at the
// Nth call, 1-based) or `site:N+` (fire at the Nth and every later call —
// how a *persistent* failure is modelled, e.g. a full disk).  A trailing
// `!` (`site:N!`, `site:N+!`) upgrades the entry to a *crash* action: the
// armed call does not return — the process dies on the spot via
// `_exit(137)` (the wait-status of a kill -9), simulating a power cut or
// OOM kill at an exact syscall boundary.  The crash-recovery harness arms
// these inside forked children and asserts the parent-side recovery
// invariants.  Entries for the same site accumulate.  Call counts are
// process-wide and advance on every fault_point() call for an armed site,
// from any thread, so a given schedule triggers at the same call
// regardless of pool width.
//
// In-tree sites:
//   cache_write    TableCache::store staging write (transient I/O failure)
//   cache_read     TableCache::load entry parse (corruption -> quarantine)
//   cache_staged   TableCache::store after the tmp file is written and
//                  fsynced, before the rename publishes it (a crash here
//                  must leave only an orphan tmp file, never a torn entry)
//   cancel         run::checkpoint (requests cancellation at the Nth
//                  checkpoint — a reproducible SIGINT)
//   io_short_write TableCache staging / protocol write loops: the write
//                  stops partway (torn bytes on disk / on the wire)
//   io_enospc      TableCache staging + BatchJournal append: ENOSPC-style
//                  hard write failure
//   journal_tear   BatchJournal::record between the two halves of a record
//                  write (crash here = torn journal tail at an exact byte
//                  offset)
//   journal_fsync  BatchJournal fsync (Durability::kFsync) failure
//   alloc_fail     res::Reservation acquire + serve admission estimate
//                  (every memory-budget reservation point: the dense
//                  impedance solve, table-grid construction, standalone
//                  peec fills, cost-based admission).  Firing makes that
//                  reservation behave as over-budget: the typed refusal
//                  (exit 7) fires without real memory pressure
//   accept_emfile  serve accept() loop: simulated EMFILE from accept
//   sock_reset_midframe  serve/protocol write_all between header and
//                  payload (peer reset mid-frame)
//
// With no schedule the injector is disabled and fault_point() is a single
// relaxed atomic load returning false.
#pragma once

#include <cstdint>
#include <string>

namespace rlcx::run {

/// True when any schedule is armed (the cheap gate hot paths check before
/// paying for the site lookup).
bool fault_injection_enabled() noexcept;

/// Counts this call against `site`'s schedule and returns true when the
/// schedule arms it.  Unscheduled sites do not count calls (so production
/// sites cost nothing when a schedule targets only other sites).
bool fault_point(const char* site) noexcept;

class FaultInjector {
 public:
  /// The process-wide injector; first use parses RLCX_FAULT_SCHEDULE (a
  /// malformed value emits a `usage` warning and arms nothing).
  static FaultInjector& global();

  /// Replaces the schedule.  Throws diag::UsageError on bad grammar
  /// (entries must be `site:N` or `site:N+`, optionally `!`-suffixed for
  /// the crash action, N >= 1).  Resets call counts.
  void set_schedule(const std::string& schedule);

  /// Disarms everything and resets all counters.
  void clear();

  /// Calls observed / faults triggered at `site` since the last
  /// set_schedule()/clear() (0 for unknown sites).
  std::uint64_t calls(const std::string& site) const;
  std::uint64_t triggered(const std::string& site) const;

 private:
  FaultInjector();
  friend bool fault_point(const char* site) noexcept;
  bool hit(const char* site) noexcept;

  struct Impl;
  Impl* impl_;  ///< intentionally leaked (process-lifetime singleton)
};

}  // namespace rlcx::run
