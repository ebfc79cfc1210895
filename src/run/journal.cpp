#include "run/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "diag/error.h"
#include "diag/warnings.h"
#include "run/fault_injection.h"

namespace fs = std::filesystem;

namespace rlcx::run {

namespace {

constexpr const char* kHeader = "rlcx-journal 1";

struct Parsed {
  /// Byte offset just past the last whole ('\n'-terminated) line: the
  /// clean prefix a repair truncates back to.
  std::size_t clean_bytes = 0;
  /// True when the file ends mid-header: a crash during creation.  The
  /// content is a strict prefix of the header line, so nothing was ever
  /// appended — the log recovers as empty.
  bool torn_header = false;
};

/// Reads the whole file; returns false when it does not exist.
bool slurp(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

/// Walks log text: checks the header and hands every whole line after it
/// to `on_line`.  Only lines terminated by '\n' count: a torn trailing
/// append (killed writer) is dropped.
Parsed parse(const std::string& path, const std::string& content,
             const std::function<void(const std::string&)>& on_line) {
  const std::string header = kHeader;
  Parsed out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: ignore
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    out.clean_bytes = pos;
    if (first) {
      if (line != header)
        throw diag::IoError("journal",
                            path + " is not a batch journal (header '" +
                                line + "', expected '" + header + "')");
      first = false;
      continue;
    }
    if (on_line) on_line(line);
  }
  if (first && !content.empty()) {
    // No complete header line.  A strict prefix of the header is what a
    // crash during log creation leaves behind — recoverable (empty).
    // Anything else is a foreign file we must not clobber.
    if (content.size() <= header.size() &&
        header.compare(0, content.size(), content) == 0) {
      out.torn_header = true;
      out.clean_bytes = 0;
      return out;
    }
    throw diag::IoError("journal",
                        path + " is not a batch journal (no header line)");
  }
  return out;
}

/// A journal line's completed id: `done <id>`.  Unknown line types are
/// skipped for forward compatibility.
void add_done(std::set<std::string>& done, const std::string& line) {
  if (line.rfind("done ", 0) == 0 && line.size() > 5)
    done.insert(line.substr(5));
}

void write_fully(int fd, const char* data, std::size_t n,
                 const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw diag::IoError("journal", "append to " + path + " failed: " +
                                         std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

AppendLog::AppendLog(std::string path, Durability durability,
                     const std::function<void(const std::string&)>& on_line)
    : path_(std::move(path)), durability_(durability) {
  if (path_.empty())
    throw diag::UsageError("journal", "empty journal path");
  std::string content;
  bool fresh = true;
  if (slurp(path_, content) && !content.empty()) {
    // may throw (foreign file)
    const Parsed parsed = parse(path_, content, on_line);
    if (parsed.torn_header) {
      diag::emit_warning(
          diag::Category::kIo, "journal",
          path_ + ": header torn at byte " + std::to_string(content.size()) +
              " (crash during creation); recovering as empty journal");
      tail_dropped_bytes_ = content.size();
      // fall through to the fresh-log path, which rewrites the header
    } else {
      fresh = false;
      if (parsed.clean_bytes < content.size()) {
        // Torn tail: truncate the file back to the last whole line so the
        // damage cannot compound across restarts.  Byte-exact — the clean
        // prefix is preserved verbatim.
        tail_dropped_bytes_ = content.size() - parsed.clean_bytes;
        diag::emit_warning(
            diag::Category::kIo, "journal",
            path_ + ": dropping " + std::to_string(tail_dropped_bytes_) +
                " torn trailing bytes (record interrupted mid-append)");
        if (::truncate(path_.c_str(),
                       static_cast<off_t>(parsed.clean_bytes)) != 0)
          throw diag::IoError("journal", "cannot repair torn tail of " +
                                             path_ + ": " +
                                             std::strerror(errno));
      }
    }
  }
  if (fresh) {
    // Fresh log: create parent directory and write the header now, so a
    // campaign that is killed before its first completion still leaves a
    // well-formed (empty) manifest behind.
    const fs::path parent = fs::path(path_).parent_path();
    std::error_code ec;
    if (!parent.empty()) fs::create_directories(parent, ec);
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    if (!os) throw diag::IoError("journal", "cannot create " + path_);
    os << kHeader << "\n" << std::flush;
    if (!os)
      throw diag::IoError("journal", "cannot write header to " + path_);
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0)
    throw diag::IoError("journal", "cannot open " + path_ +
                                       " for append: " + std::strerror(errno));
  if (durability_ == Durability::kFsync) {
    // Make the header (or the truncate repair) itself power-safe before
    // the first line lands on top of it.
    if (::fsync(fd_) != 0)
      throw diag::IoError("journal",
                          "fsync " + path_ + ": " + std::strerror(errno));
    ++fsyncs_;
  }
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t AppendLog::fsyncs() const {
  std::lock_guard<std::mutex> lock(m_);
  return fsyncs_;
}

void AppendLog::append(const std::string& text) {
  // One whole line per append: the line is durable (to the kernel, or to
  // the platter under kFsync) once append() returns, and a kill mid-write
  // tears at most this line (which the next open truncates away).
  const std::string line = text + "\n";
  std::lock_guard<std::mutex> lock(m_);
  if (fault_injection_enabled()) {
    if (fault_point("io_enospc"))
      throw diag::IoError("journal", "append to " + path_ +
                                         " failed: No space left on device "
                                         "(injected)");
    // journal_tear splits the append at an exact byte boundary: as a crash
    // site (`journal_tear:N!`) the process dies with half a record on
    // disk; as a plain fault it leaves the same torn tail behind and
    // throws, so the repair path is testable without forking.
    const std::size_t half = line.size() / 2;
    write_fully(fd_, line.data(), half, path_);
    if (fault_point("journal_tear"))
      throw diag::IoError("journal", "append to " + path_ +
                                         " torn mid-record (injected)");
    write_fully(fd_, line.data() + half, line.size() - half, path_);
  } else {
    write_fully(fd_, line.data(), line.size(), path_);
  }
  if (durability_ == Durability::kFsync) {
    if (fault_injection_enabled() && fault_point("journal_fsync"))
      throw diag::IoError("journal",
                          "fsync " + path_ + " failed (injected)");
    if (::fsync(fd_) != 0)
      throw diag::IoError("journal",
                          "fsync " + path_ + ": " + std::strerror(errno));
    ++fsyncs_;
  }
}

BatchJournal::BatchJournal(std::string path, Durability durability)
    : log_(std::move(path), durability,
           [this](const std::string& line) { add_done(done_, line); }) {}

std::set<std::string> BatchJournal::completed() const {
  std::lock_guard<std::mutex> lock(m_);
  return done_;
}

bool BatchJournal::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(m_);
  return done_.count(id) != 0;
}

std::size_t BatchJournal::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return done_.size();
}

void BatchJournal::record(const std::string& id) {
  if (id.empty())
    throw diag::UsageError("journal", "cannot record an empty id");
  for (char c : id)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      throw diag::UsageError("journal",
                             "journal ids must not contain whitespace: '" +
                                 id + "'");
  std::lock_guard<std::mutex> lock(m_);
  if (done_.count(id) != 0) return;  // idempotent
  log_.append("done " + id);
  done_.insert(id);
}

std::set<std::string> BatchJournal::load(const std::string& path) {
  std::string content;
  std::set<std::string> done;
  if (!slurp(path, content) || content.empty()) return done;
  parse(path, content,
        [&](const std::string& line) { add_done(done, line); });
  return done;
}

}  // namespace rlcx::run
