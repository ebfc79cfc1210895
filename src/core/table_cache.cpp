#include "core/table_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "diag/error.h"
#include "diag/warnings.h"
#include "run/fault_injection.h"

namespace fs = std::filesystem;

namespace rlcx::core {

namespace {

// Bumping this invalidates every existing entry; do so whenever the entry
// layout or anything influencing table values outside the keyed inputs
// changes (docs/table-format.md).  Version 2: the PEEC engine cuts aligned
// bar pairs at one common chunk count, which moves table values by ~1e-4.
// Version 3: an aligned pair's filament-routed chunk offsets are summed in
// one whole-bar closed form, which moves table values by round-off.
// Version 4: a self's or aligned pair's volume-routed offsets share their
// Hoer-Love z-slices, which moves table values at the bracket's round-off
// floor.
// Version 5: the impedance solve factors Z by a complex-symmetric LDLᵀ and
// reduces to the signals plus one merged return port, which moves table
// values by round-off.
constexpr int kCacheKeyVersion = 5;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void append_axis(std::string& out, const char* name,
                 const std::vector<double>& axis) {
  char buf[32];
  out += "grid ";
  out += name;
  std::snprintf(buf, sizeof buf, " %zu", axis.size());
  out += buf;
  for (double v : axis) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    out += buf;
  }
  out += "\n";
}

/// RAII fd so every throw path below closes (and for staging files,
/// unlinks) what it opened.
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  void close_now() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace

TableCache::TableCache(std::string directory, CacheRecoveryPolicy policy)
    : dir_(std::move(directory)), policy_(policy) {
  if (dir_.empty())
    throw std::invalid_argument("TableCache: empty directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw diag::CacheError("cache", "cannot create directory " + dir_);
  startup_sweep();
}

void TableCache::startup_sweep() {
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    const fs::path& p = de.path();
    const std::string name = p.filename().string();
    // Orphaned staging file from a writer killed mid-store.  Removing a
    // *live* staging file of a concurrent writer is also safe: its rename
    // then fails and store()'s retry loop re-stages from scratch.
    if (name.find(".tmp.") != std::string::npos) {
      std::error_code rec;
      if (fs::remove(p, rec) && !rec) {
        tmp_swept_.fetch_add(1, std::memory_order_relaxed);
        diag::emit_warning(diag::Category::kIo, "cache",
                           "removed orphaned staging file " + p.string() +
                               " (writer crashed mid-store)");
      }
      continue;
    }
    if (p.extension() != ".tbl" || !is_hex16(p.stem().string())) continue;
    // Cheap torn-entry check: a power cut can publish a rename whose data
    // blocks never reached the disk, leaving a short or zeroed file.  The
    // full parse still guards load(); this catches the obvious wrecks
    // before anything can try to serve them.
    std::string reason;
    std::error_code sec;
    const std::uintmax_t size = fs::file_size(p, sec);
    if (sec || size < 12) {
      reason = "entry shorter than any valid bundle header";
    } else {
      char magic[4] = {};
      std::ifstream is(p.string(), std::ios::binary);
      if (!is.read(magic, 4) || std::memcmp(magic, "RLXB", 4) != 0)
        reason = "bad magic bytes (torn or foreign entry)";
    }
    if (reason.empty()) continue;
    // kStrict keeps its contract — bad bytes fail loudly — whether load()
    // or this sweep finds them first.
    if (policy_ == CacheRecoveryPolicy::kStrict)
      throw diag::CacheError("cache", "corrupt entry " + p.string() + ": " +
                                          reason + ", found at startup");
    const std::uint64_t hash =
        std::strtoull(p.stem().string().c_str(), nullptr, 16);
    quarantine(hash, reason + ", found at startup");
    quarantined_at_startup_.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Writes `content` to `path` via a temp file in the same directory that
/// is fully written and fsynced *before* the rename publishes it, followed
/// by an fsync of the containing directory — the classic crash-consistent
/// publish: after a power cut the entry is either absent or complete,
/// never torn.  Readers and killed writers see at most an orphan .tmp (the
/// startup sweep removes those).  The temp name carries the pid
/// (cross-process uniqueness) plus a process-wide counter, so concurrent
/// same-key writers within one process never share a staging file and
/// cannot publish each other's half-written bytes.
void TableCache::atomic_write(const std::string& path,
                              const std::string& content) {
  const bool inject = run::fault_injection_enabled();
  // Injection site `cache_write`: a scheduled transient I/O failure, the
  // deterministic stand-in for EINTR/ENOSPC-class flakes the retry loop in
  // store() is built for.
  if (inject && run::fault_point("cache_write"))
    throw diag::CacheError("cache",
                           "injected transient write failure for " + path);
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  ScopedFd f;
  f.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (f.fd < 0)
    throw diag::CacheError(
        "cache", "cannot write " + tmp + ": " + std::strerror(errno));
  // Injection site `io_enospc`: the staging write fails outright (disk
  // full) — nothing was published, the retry loop owns what happens next.
  if (inject && run::fault_point("io_enospc")) {
    f.close_now();
    throw diag::CacheError("cache", "cannot write " + tmp +
                                        ": No space left on device "
                                        "(injected)");
  }
  const auto write_span = [&](const char* data, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(f.fd, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        f.close_now();
        throw diag::CacheError(
            "cache", "short write to " + tmp + ": " + std::strerror(err));
      }
      data += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  // Injection site `io_short_write` sits between two halves of the staging
  // write: when it fires the write stops partway, leaving torn bytes in
  // the staging file (as a crash action `io_short_write:N!` the process
  // dies with them on disk — exactly what the rename discipline must
  // survive).
  const std::size_t half = inject ? content.size() / 2 : content.size();
  write_span(content.data(), half);
  if (inject && run::fault_point("io_short_write")) {
    f.close_now();
    throw diag::CacheError(
        "cache", "short write to " + tmp + " (injected, " +
                     std::to_string(half) + " of " +
                     std::to_string(content.size()) + " bytes)");
  }
  write_span(content.data() + half, content.size() - half);
  // fsync the staged bytes *before* the rename: once the entry name is
  // visible its content must already be on the platter, or a power cut
  // could publish a torn entry through a clean-looking rename.
  if (::fsync(f.fd) != 0) {
    const int err = errno;
    f.close_now();
    throw diag::CacheError("cache",
                           "fsync " + tmp + ": " + std::strerror(err));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  f.close_now();
  // Injection site `cache_staged`: the exact crash boundary between a
  // fully-fsynced staging file and its publishing rename.  A crash here
  // must leave only an orphan .tmp for the startup sweep — never an entry.
  if (inject && run::fault_point("cache_staged")) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw diag::CacheError(
        "cache", "injected failure between staging and publish of " + path);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw diag::CacheError("cache", "cannot rename into " + path);
  }
  // fsync the containing directory so the rename itself (the entry's
  // directory record) survives a power cut.
  ScopedFd d;
  d.fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (d.fd >= 0 && ::fsync(d.fd) == 0)
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
}

std::string TableCache::key_text(const geom::Technology& tech, int layer,
                                 geom::PlaneConfig planes,
                                 const TableGrid& grid,
                                 const solver::SolveOptions& opt) {
  char buf[96];
  std::string out;
  std::snprintf(buf, sizeof buf, "rlcx-cache-key %d\n", kCacheKeyVersion);
  out += buf;
  out += tech.fingerprint();
  std::snprintf(buf, sizeof buf, "class layer %d planes %s\n", layer,
                geom::to_string(planes));
  out += buf;
  append_axis(out, "widths", grid.widths);
  append_axis(out, "spacings", grid.spacings);
  append_axis(out, "lengths", grid.lengths);
  out += solver::fingerprint(opt);
  return out;
}

std::uint64_t TableCache::key_hash(const std::string& key_text) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : key_text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return h;
}

std::string TableCache::key_id(const std::string& key_text) {
  return hex16(key_hash(key_text));
}

std::string TableCache::entry_path(std::uint64_t hash) const {
  return dir_ + "/" + hex16(hash) + ".tbl";
}

std::string TableCache::sidecar_path(std::uint64_t hash) const {
  return dir_ + "/" + hex16(hash) + ".key";
}

std::optional<InductanceTables> TableCache::load(
    const std::string& key_text) {
  const std::uint64_t hash = key_hash(key_text);
  const std::string path = entry_path(hash);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // The sidecar records the full key text; a mismatch means a 64-bit hash
  // collision (or a hand-edited cache) — treat as a miss, never serve the
  // wrong table.
  {
    std::ifstream key_is(sidecar_path(hash), std::ios::binary);
    if (key_is) {
      std::stringstream stored;
      stored << key_is.rdbuf();
      if (stored.str() != key_text) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
  }
  try {
    // Injection site `cache_read`: a scheduled corrupt entry, driving the
    // quarantine -> re-characterise ladder without hand-editing bytes.
    if (run::fault_injection_enabled() && run::fault_point("cache_read"))
      throw diag::CacheError("cache",
                             "injected corrupt cache entry " + path);
    InductanceTables t = InductanceTables::load_file(path);
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(fs::file_size(path, ec), std::memory_order_relaxed);
    return t;
  } catch (const std::exception& e) {
    if (policy_ == CacheRecoveryPolicy::kStrict)
      throw diag::CacheError(
          "cache", "corrupt entry " + path + ": " + e.what() +
                       " (strict policy; quarantine or purge the cache)");
    quarantine(hash, e.what());
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

void TableCache::quarantine(std::uint64_t hash, const std::string& reason) {
  const std::string entry = entry_path(hash);
  const std::string sidecar = sidecar_path(hash);
  std::error_code ec;
  // Keep the bad bytes for post-mortem; the rename also frees the slot so
  // the rebuilt entry cannot race the diagnosis.  A repeat incident on the
  // same entry overwrites the previous evidence (latest corruption wins).
  fs::rename(entry, entry + ".quarantine", ec);
  if (ec) fs::remove(entry, ec);  // rename failed (e.g. EXDEV): drop instead
  fs::rename(sidecar, sidecar + ".quarantine", ec);
  if (ec) fs::remove(sidecar, ec);
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  diag::emit_warning(diag::Category::kCache, "cache",
                     "quarantined corrupt entry " + entry + " (" + reason +
                         "); the table will be re-characterised");
}

bool TableCache::store(const std::string& key_text,
                       const InductanceTables& tables) {
  const std::uint64_t hash = key_hash(key_text);
  std::ostringstream blob(std::ios::binary);
  tables.save(blob);
  // Transient write failures (an interrupted write, a directory briefly
  // unwritable) must not kill an hours-long campaign over one entry: retry
  // with a small bounded backoff, then degrade per the recovery policy —
  // the table is already built, losing the cache copy only costs a
  // re-characterisation next run.
  constexpr int kStoreAttempts = 3;
  constexpr std::chrono::milliseconds kBackoff{1};  // 1 ms, then 2 ms
  for (int attempt = 1;; ++attempt) {
    try {
      // Entry first, sidecar second: load() skips the collision check when
      // the sidecar is absent, so a reader racing between the two renames
      // still serves the (complete) entry rather than failing on a
      // half-published pair.  Both individual writes are atomic renames,
      // and both are idempotent, so a retry may safely redo either.
      atomic_write(entry_path(hash), blob.str());
      atomic_write(sidecar_path(hash), key_text);
      bytes_written_.fetch_add(blob.str().size() + key_text.size(),
                               std::memory_order_relaxed);
      return true;
    } catch (const diag::CacheError& e) {
      if (attempt < kStoreAttempts) {
        write_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(kBackoff * (1 << (attempt - 1)));
        continue;
      }
      stores_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (policy_ == CacheRecoveryPolicy::kStrict) throw;
      diag::emit_warning(
          diag::Category::kCache, "cache",
          "store failed after " + std::to_string(kStoreAttempts) +
              " attempts (" + e.message() +
              "); entry skipped — the table will be re-characterised "
              "next run");
      return false;
    }
  }
}

std::vector<TableCache::Entry> TableCache::list() const {
  std::vector<Entry> out;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    const fs::path& p = de.path();
    if (p.extension() != ".tbl" || !is_hex16(p.stem().string())) continue;
    Entry e;
    e.id = p.stem().string();
    std::error_code ec;
    e.bytes = fs::file_size(p, ec);
    try {
      const InductanceTables t = InductanceTables::load_file(p.string());
      e.layer = t.layer;
      e.planes = t.planes;
      e.frequency = t.frequency;
    } catch (const std::exception&) {
      continue;  // torn/foreign file: not a well-formed entry
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::size_t TableCache::purge() {
  std::size_t removed = 0;
  std::vector<fs::path> victims;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_)) {
    const fs::path& p = de.path();
    const std::string ext = p.extension().string();
    if ((ext == ".tbl" || ext == ".key") && is_hex16(p.stem().string()))
      victims.push_back(p);
    else if (ext == ".quarantine")
      victims.push_back(p);
  }
  for (const fs::path& p : victims) {
    std::error_code ec;
    if (p.extension() == ".tbl" && fs::remove(p, ec) && !ec) ++removed;
    else fs::remove(p, ec);  // sidecars and quarantined files: not counted
  }
  return removed;
}

}  // namespace rlcx::core
