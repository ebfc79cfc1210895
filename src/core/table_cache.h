// Persistent on-disk cache of pre-characterised inductance tables.
//
// The paper's efficiency claim rests on paying the field-solver cost once
// (Section III: "a few hours" of 2-trace pre-computation) and answering
// every extraction by table lookup.  This cache makes that cost durable
// across processes: entries are content-addressed by a stable hash of
// everything that determines a table's values — the technology layer
// stack, the structure class (layer, plane config), the characterisation
// grid and the solver options including frequency — so a changed input can
// never serve a stale table.  Entries are the versioned binary bundle of
// InductanceTables (docs/table-format.md); writes go through a temp file
// that is fully written and fsynced before an atomic rename (followed by a
// directory fsync), so concurrent builders, killed runs and power cuts
// never leave a torn entry behind.  Opening a cache sweeps the directory:
// orphaned staging files from crashed writers are removed and entries that
// fail a cheap integrity check (magic bytes, minimum size) are quarantined
// before anything can be served from them.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/table_builder.h"

namespace rlcx::core {

/// Hit/miss/traffic counters for one TableCache instance (a snapshot;
/// see TableCache::stats()).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t quarantined = 0;  ///< corrupt entries set aside by kRecover
  std::size_t write_retries = 0;   ///< transient store failures retried
  std::size_t stores_dropped = 0;  ///< stores abandoned after the retry
                                   ///< budget (kRecover: warn and rebuild
                                   ///< next run instead of failing the job)
  std::size_t quarantined_at_startup = 0;  ///< torn entries set aside by the
                                           ///< open-time integrity sweep
  std::size_t tmp_swept = 0;  ///< orphaned staging files removed at open
  std::uint64_t fsyncs = 0;   ///< fsync(2) calls (staged files + directory)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// What load() does with a present-but-unreadable entry (torn write that
/// dodged the atomic rename, bit rot, version mismatch, foreign file).
enum class CacheRecoveryPolicy {
  kStrict,   ///< throw a categorized `cache` error — bad bytes fail loudly
  kRecover,  ///< quarantine the entry (rename to *.quarantine), warn, and
             ///< report a miss so the caller re-characterises (default)
};

class TableCache {
 public:
  /// Opens (creating if needed) the cache rooted at `directory`, then runs
  /// the crash-recovery sweep: orphaned `*.tmp.*` staging files left by a
  /// killed writer are removed (stats().tmp_swept) and entries failing a
  /// cheap integrity check — wrong magic bytes or an impossible size, the
  /// signature of a torn rename after power loss — are quarantined with an
  /// `io` warning (stats().quarantined_at_startup) so they can never be
  /// served.
  explicit TableCache(std::string directory,
                      CacheRecoveryPolicy policy = CacheRecoveryPolicy::kRecover);

  const std::string& directory() const { return dir_; }
  CacheRecoveryPolicy recovery_policy() const { return policy_; }

  /// The canonical ASCII key text for one table build — the exact recipe
  /// is normative in docs/table-format.md.  Equal inputs give equal text;
  /// any change to the technology stack, structure class, grid or solver
  /// options changes it.
  static std::string key_text(const geom::Technology& tech, int layer,
                              geom::PlaneConfig planes, const TableGrid& grid,
                              const solver::SolveOptions& opt);

  /// FNV-1a 64-bit hash of the key text; entry files are named by its
  /// lower-case hex form.
  static std::uint64_t key_hash(const std::string& key_text);

  /// The 16-hex-digit entry id (lower-case hex of key_hash) — the stable
  /// single-token name for one table build, used as the entry file stem
  /// and as the batch journal's completion id.
  static std::string key_id(const std::string& key_text);

  /// Entry lookup.  Returns the cached tables on a hit; std::nullopt when
  /// absent (or when a hash collision is detected against the stored key
  /// sidecar).  A present-but-corrupt entry is handled per the recovery
  /// policy: kRecover quarantines it (entry and sidecar renamed to
  /// *.quarantine, preserved for post-mortem), emits a `cache` warning and
  /// reports a miss so the caller re-characterises; kStrict throws a
  /// categorized `cache` error.
  std::optional<InductanceTables> load(const std::string& key_text);

  /// Stores (or overwrites) the entry for `key_text` atomically.  Safe to
  /// call concurrently from several threads or processes, even for the
  /// same key: each writer stages into a uniquely-named temp file and
  /// renames it into place, so readers and racing writers never observe a
  /// torn entry (the last complete write wins).
  ///
  /// Transient write failures (EINTR-class short writes, a momentarily
  /// unwritable directory) are retried with a small bounded backoff
  /// (stats().write_retries counts them).  A store still failing after the
  /// budget degrades per the recovery policy: kRecover emits a `cache`
  /// warning and returns without storing — the table is simply
  /// re-characterised next run (stats().stores_dropped) — while kStrict
  /// rethrows the categorized `cache` error.  Returns true when the entry
  /// is durably in place (batch journaling records completion only then).
  bool store(const std::string& key_text, const InductanceTables& tables);

  struct Entry {
    std::string id;         ///< 16-hex-digit key hash (the file stem)
    std::uint64_t bytes = 0;
    int layer = 0;
    geom::PlaneConfig planes = geom::PlaneConfig::kNone;
    double frequency = 0.0;
  };

  /// All well-formed entries currently in the directory.
  std::vector<Entry> list() const;

  /// Removes every cache entry (and key sidecar), plus any quarantined
  /// files; returns live entries removed.
  std::size_t purge();

  /// Value snapshot of the counters.  The counters themselves are atomics
  /// so load()/store() may race freely across threads; the snapshot is not
  /// a consistent cut, only a set of individually-coherent totals.
  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.quarantined = quarantined_.load(std::memory_order_relaxed);
    s.write_retries = write_retries_.load(std::memory_order_relaxed);
    s.stores_dropped = stores_dropped_.load(std::memory_order_relaxed);
    s.quarantined_at_startup =
        quarantined_at_startup_.load(std::memory_order_relaxed);
    s.tmp_swept = tmp_swept_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::string entry_path(std::uint64_t hash) const;
  std::string sidecar_path(std::uint64_t hash) const;
  void quarantine(std::uint64_t hash, const std::string& reason);
  void atomic_write(const std::string& path, const std::string& content);
  void startup_sweep();

  std::string dir_;
  CacheRecoveryPolicy policy_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<std::size_t> write_retries_{0};
  std::atomic<std::size_t> stores_dropped_{0};
  std::atomic<std::size_t> quarantined_at_startup_{0};
  std::atomic<std::size_t> tmp_swept_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace rlcx::core
