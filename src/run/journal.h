// Append-only line logs: the completion journal for batch campaigns (the
// --resume manifest) and the storage it shares with the serve daemon's
// request log.
//
// AppendLog is the storage: a text file whose first line is the journal
// header, then one line per append.  Appends are a single write of one full line,
// and only '\n'-terminated lines count, so a writer killed mid-append
// (SIGKILL, power loss) loses at most the line being written — never the
// lines before it.  Opening a log with a torn tail *repairs* it: the file
// is truncated back to the last whole line (byte-exact) with a typed `io`
// warning, so the damage cannot compound.  It keeps nothing per line in
// memory, so a log that grows for the life of a process costs no memory.
//
// BatchJournal builds the campaign journal on it.  A characterisation
// campaign is a set of independent jobs, each with a stable id (the table
// cache's 16-hex key hash).  The journal records "this id completed
// durably" — appended *after* the job's results are stored — so a relaunch
// can skip finished work exactly: ids present in the journal are served
// from the cache with zero re-solves, and a torn record is re-done rather
// than trusted.
//
// Format (docs/robustness.md): first line `rlcx-journal 1`, then one
// `done <id>` line per record.  The daemon's request log uses the same
// format (docs/serve-protocol.md "Request log").
//
// Durability: kFlush (default) hands each line to the kernel before
// append() returns — safe against process death, not against power loss.
// kFsync additionally fsyncs the log fd per append (`batch --fsync`),
// making each record durable against a power cut at ~one disk flush per
// completed job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>

namespace rlcx::run {

/// How hard an AppendLog pushes each line toward the platter.
enum class Durability {
  kFlush,  ///< write() per line: survives process kill, not power loss
  kFsync,  ///< write()+fsync() per line: survives power loss
};

class AppendLog {
 public:
  /// Opens `path` for appending, creating it (and its parent directory)
  /// with the journal header when absent.  An existing file is validated
  /// (header line) and `on_line`, when given, sees each whole line after
  /// it; a torn trailing line — or a header torn by a crash during
  /// creation — is truncated away with an `io` warning; a file that is not
  /// a journal throws an `io` fault rather than being clobbered.
  AppendLog(std::string path, Durability durability,
            const std::function<void(const std::string&)>& on_line = {});
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  const std::string& path() const noexcept { return path_; }
  Durability durability() const noexcept { return durability_; }

  /// Appends `line` and its newline in one write(2), plus fsync(2) under
  /// Durability::kFsync, before returning, so a line observed by append()
  /// is durable against any later kill.  Thread-safe.  `line` must not
  /// contain a newline.
  void append(const std::string& line);

  /// fsync(2) calls issued so far (0 under Durability::kFlush).
  std::uint64_t fsyncs() const;

  /// Torn trailing bytes truncated away when this log was opened (0 for a
  /// clean file).
  std::size_t tail_dropped_bytes() const noexcept {
    return tail_dropped_bytes_;
  }

 private:
  std::string path_;
  Durability durability_;
  int fd_ = -1;
  std::size_t tail_dropped_bytes_ = 0;
  mutable std::mutex m_;
  std::uint64_t fsyncs_ = 0;
};

class BatchJournal {
 public:
  /// Opens (or creates) the journal at `path` as an AppendLog and loads its
  /// completed ids.
  explicit BatchJournal(std::string path,
                        Durability durability = Durability::kFlush);

  const std::string& path() const noexcept { return log_.path(); }
  Durability durability() const noexcept { return log_.durability(); }

  /// Ids already recorded (including those recorded by this process).
  std::set<std::string> completed() const;
  bool contains(const std::string& id) const;
  std::size_t size() const;

  /// Records `id` as complete: appends one `done <id>` line, durable when
  /// record() returns.  Idempotent and thread-safe (concurrent jobs finish
  /// on pool threads).  Ids must be non-empty and free of whitespace.
  void record(const std::string& id);

  /// fsync(2) calls issued so far (0 under Durability::kFlush).
  std::uint64_t fsyncs() const { return log_.fsyncs(); }

  /// Torn trailing bytes truncated away when this journal was opened
  /// (0 for a clean file).
  std::size_t tail_dropped_bytes() const noexcept {
    return log_.tail_dropped_bytes();
  }

  /// Parses a journal without opening it for append (the --resume path
  /// when the manifest is read-only or belongs to another run).  A missing
  /// file yields an empty set; a torn tail is dropped (but the file is not
  /// repaired).
  static std::set<std::string> load(const std::string& path);

 private:
  mutable std::mutex m_;
  std::set<std::string> done_;
  AppendLog log_;
};

}  // namespace rlcx::run
