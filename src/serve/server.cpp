#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "cli/cli.h"
#include "diag/error.h"
#include "peec/kernel_batch.h"
#include "res/budget.h"
#include "run/fault_injection.h"
#include "run/signal.h"
#include "solver/block_solver.h"

namespace rlcx::serve {

namespace {

/// Commands a daemon executes through cli::run().  Everything that
/// manages a process or a cache directory (serve, query, batch, tables,
/// cache) stays off the wire: the daemon owns its cache, and nesting
/// servers or hour-long campaigns inside a request slot would wedge the
/// admission queue.
bool wire_allowed(const std::string& command) {
  return command == "extract" || command == "delay" || command == "help";
}

/// Blocks until `fd` is readable or shutdown is requested (polling the
/// token, which has no wakeup primitive).  False on shutdown or hangup.
bool wait_readable(int fd, const run::CancelToken& shutdown) {
  while (!shutdown.requested()) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, /*timeout_ms=*/100);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw diag::IoError("serve", std::string("poll: ") +
                                       std::strerror(errno));
    }
    if (r > 0) {
      if ((p.revents & POLLIN) != 0) return true;
      if ((p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) return false;
    }
  }
  return false;
}

/// An execution slot as RAII, so a slot can never leak past a response.
class SlotGuard {
 public:
  explicit SlotGuard(AdmissionQueue& q) : q_(q) {}
  ~SlotGuard() { q_.leave(); }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  AdmissionQueue& q_;
};

/// Journal ids must be whitespace-free single tokens; requests arrive
/// from the network.
std::string sanitize_command(const std::string& command) {
  std::string s;
  for (const char c : command) {
    if (s.size() >= 24) break;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-';
    s += ok ? c : '_';
  }
  return s.empty() ? "none" : s;
}

}  // namespace

Server::Server(ServeConfig config, std::ostream& diag)
    : config_(std::move(config)),
      diag_(diag),
      warm_(config_.cache_dir, config_.max_tables, config_.max_table_bytes,
            config_.strict ? core::CacheRecoveryPolicy::kStrict
                           : core::CacheRecoveryPolicy::kRecover),
      admission_(config_.max_active, config_.queue_depth) {
  if (config_.log_path.empty())
    config_.log_path = config_.cache_dir + "/serve.journal";
  journal_ = std::make_unique<run::BatchJournal>(config_.log_path);
}

Server::~Server() {
  shutdown_.request();
  join_connections();
}

/// Joins every connection thread.  The joins happen outside threads_m_:
/// a connection thread's last act is to take that mutex and announce
/// itself finished, so joining it under the lock deadlocks whenever the
/// drain starts before a connection (the one that carried `shutdown`,
/// typically) has finished.
void Server::join_connections() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_m_);
    threads.swap(connections_);
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
  std::lock_guard<std::mutex> lock(threads_m_);
  finished_.clear();
}

/// Joins connection threads that have announced completion, so a
/// long-lived daemon's thread vector (and fd pressure from lingering
/// thread handles) stays bounded by the number of *live* connections
/// rather than growing with every connection ever accepted.  Caller holds
/// threads_m_; the joins are near-instant (the thread already pushed its
/// id as its last act before returning).
void Server::reap_finished_locked() {
  if (finished_.empty()) return;
  for (const std::thread::id id : finished_) {
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      if (connections_[i].get_id() != id) continue;
      connections_[i].join();
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
      break;
    }
  }
  finished_.clear();
}

int Server::run_socket() {
  const std::string& path = config_.socket_path;
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw diag::UsageError(
        "serve", "--socket path must be 1.." +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes, got " + std::to_string(path.size()));
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw diag::IoError("serve", std::string("socket: ") +
                                     std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale file from a dead daemon
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const int e = errno;
    ::close(listen_fd);
    throw diag::IoError("serve", "bind " + path + ": " +
                                     std::strerror(e));
  }
  if (::listen(listen_fd, 128) < 0) {
    const int e = errno;
    ::close(listen_fd);
    ::unlink(path.c_str());
    throw diag::IoError("serve", "listen " + path + ": " +
                                     std::strerror(e));
  }
  diag_ << "rlcx serve: listening on " << path << " (max-active "
        << config_.max_active << ", queue-depth " << config_.queue_depth
        << ", max-tables " << config_.max_tables << ", log "
        << config_.log_path << ")\n"
        << std::flush;

  int backoff_ms = 10;
  while (wait_readable(listen_fd, shutdown_)) {
    int fd;
    // Injection site `accept_emfile`: a scheduled EMFILE from accept(2),
    // the deterministic stand-in for a connection flood exhausting the fd
    // table.
    if (run::fault_injection_enabled() &&
        run::fault_point("accept_emfile")) {
      fd = -1;
      errno = EMFILE;
    } else {
      fd = ::accept(listen_fd, nullptr, nullptr);
    }
    if (fd < 0) {
      const int e = errno;
      if (e == EINTR) continue;
      // Transient resource exhaustion (our fd table, the system's, an
      // aborted handshake, kernel memory pressure) is survivable: back
      // off — connections drain and free fds — and try again.  A flood
      // must degrade into queueing, never into a dead daemon.
      if (e == EMFILE || e == ENFILE || e == ECONNABORTED || e == EAGAIN ||
          e == EWOULDBLOCK || e == ENOMEM || e == ENOBUFS) {
        accept_retries_.fetch_add(1, std::memory_order_relaxed);
        for (int slept = 0;
             slept < backoff_ms && !shutdown_.requested(); slept += 10)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        backoff_ms = std::min(backoff_ms * 2, 1000);
        {  // reaping finished threads is what releases their fds
          std::lock_guard<std::mutex> lock(threads_m_);
          reap_finished_locked();
        }
        continue;
      }
      break;  // listener genuinely broken; drain what we have
    }
    backoff_ms = 10;
    std::lock_guard<std::mutex> lock(threads_m_);
    reap_finished_locked();
    connections_.emplace_back([this, fd] {
      FdStream stream(fd, fd);
      try {
        handle_connection(stream);
      } catch (...) {
        // A connection must never take the daemon down.
      }
      ::close(fd);
      std::lock_guard<std::mutex> lock(threads_m_);
      finished_.push_back(std::this_thread::get_id());
    });
  }

  ::close(listen_fd);
  join_connections();
  ::unlink(path.c_str());
  diag_ << "rlcx serve: drained, "
        << served_.load(std::memory_order_relaxed)
        << " requests served\n";
  return 0;
}

int Server::run_stdio() {
  FdStream stream(STDIN_FILENO, STDOUT_FILENO);
  diag_ << "rlcx serve: speaking the wire protocol on stdio (log "
        << config_.log_path << ")\n"
        << std::flush;
  handle_connection(stream);
  diag_ << "rlcx serve: drained, "
        << served_.load(std::memory_order_relaxed)
        << " requests served\n";
  return 0;
}

void Server::handle_connection(ByteStream& stream) {
  // The idle read deadline (docs/serve-protocol.md "disconnect
  // semantics"): both between frames (accounted in the poll loop below)
  // and inside one (the stream-level timeout catches a client dribbling a
  // payload byte at a time).
  const int idle_budget_ms =
      config_.idle_timeout_s > 0.0
          ? static_cast<int>(config_.idle_timeout_s * 1000.0)
          : 0;
  if (idle_budget_ms > 0) stream.set_read_timeout_ms(idle_budget_ms);
  int idle_ms = 0;
  while (!shutdown_.requested()) {
    // Interleave shutdown checks with blocking reads, so an idle
    // connection cannot hold up the drain.
    const ByteStream::PollResult pr = stream.poll_readable(100);
    if (pr == ByteStream::PollResult::kClosed) return;
    if (pr == ByteStream::PollResult::kTimeout) {
      if (idle_budget_ms > 0 && (idle_ms += 100) >= idle_budget_ms) {
        // Slow loris: drop the connection with a typed goodbye so a
        // well-meaning-but-stalled client learns why, and count it.
        idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.status = 3;
        r.label = status_label(3);
        r.err = "[io] serve: connection idle past " +
                std::to_string(config_.idle_timeout_s) +
                " s, closing (send a request or reconnect)\n";
        try {
          write_frame(stream, FrameKind::kError, encode_response(r));
        } catch (...) {
          // Peer already gone.
        }
        return;
      }
      continue;
    }
    idle_ms = 0;
    Frame frame;
    try {
      if (!read_frame(stream, &frame)) return;  // clean EOF
    } catch (const IdleTimeout&) {
      // Stalled mid-frame: the header arrived, the payload never did.
      idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
      return;
    } catch (const diag::Fault& f) {
      // Framing violation: the byte stream has lost sync, so report and
      // close — docs/serve-protocol.md "fatal framing errors".
      Response r;
      r.status = diag::exit_code(f.category());
      r.label = status_label(r.status);
      r.err = diag::format_error(f.category(), f.stage(), f.message()) +
              "\n";
      try {
        write_frame(stream, FrameKind::kError, encode_response(r));
      } catch (...) {
        // Peer already gone.
      }
      return;
    }
    try {
      if (frame.kind != FrameKind::kRequest) {
        // Header was sound, so the stream is still in sync: reject the
        // frame and keep the connection ("survivable errors").
        Response r;
        r.status = 2;
        r.label = status_label(2);
        r.err = "[usage] serve: expected a request frame (kind 0x01)\n";
        write_frame(stream, FrameKind::kError, encode_response(r));
        continue;
      }
      handle_request(stream, frame.payload);
    } catch (const diag::IoError&) {
      // The peer closed or reset mid-reply (EPIPE under MSG_NOSIGNAL, a
      // reset, a torn write).  Strictly this connection's problem: count
      // it and let the thread end — the request itself already executed
      // and was journaled.
      peer_disconnects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void Server::handle_request(ByteStream& stream,
                            const std::string& payload) {
  const std::vector<std::string> tokens = split_request(payload);
  const std::uint64_t seq =
      seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  FrameKind kind = FrameKind::kResponse;
  Response resp = execute(tokens, &kind);
  resp.label = status_label(resp.status);
  if (resp.status == 5) cancelled_.fetch_add(1, std::memory_order_relaxed);
  record_request(seq, tokens, resp.status);
  served_.fetch_add(1, std::memory_order_relaxed);
  const bool drain = !tokens.empty() && tokens[0] == "shutdown";
  write_frame(stream, kind, encode_response(resp));
  if (drain) shutdown_.request();
}

Response Server::execute(const std::vector<std::string>& tokens,
                         FrameKind* kind) {
  Response resp;
  if (tokens.empty()) {
    *kind = FrameKind::kError;
    resp.status = 2;
    resp.err = "[usage] serve: empty request payload\n";
    return resp;
  }
  const std::string& cmd = tokens[0];
  if (cmd == "ping") {
    resp.out = "pong\n";
    return resp;
  }
  if (cmd == "stats") {
    resp.out = stats_text();
    return resp;
  }
  if (cmd == "health") {
    // Liveness probe: answered inline (no admission slot), so a daemon
    // saturated with work still reports itself alive — the stats snapshot
    // tells the prober *how* alive.
    resp.out = health_text();
    return resp;
  }
  if (cmd == "shutdown") {
    resp.out = "draining\n";
    return resp;
  }
  if (!wire_allowed(cmd)) {
    *kind = FrameKind::kError;
    resp.status = 2;
    resp.err = "[usage] serve: command not allowed over the wire: " +
               cmd + " (allowed: ping, stats, health, shutdown, extract, "
                     "delay, help)\n";
    return resp;
  }
  // The memory budget is daemon-wide operator policy; a client must not
  // resize it per request.
  for (const std::string& t : tokens) {
    if (t == "--mem-budget") {
      *kind = FrameKind::kError;
      resp.status = 2;
      resp.err = "[usage] serve: --mem-budget is daemon-wide; set it when "
                 "starting rlcx serve, not per request\n";
      return resp;
    }
  }
  // Cost-based admission: estimate the request's resident footprint and
  // let the queue refuse what the budget can never satisfy (status 7).
  const std::size_t cost = cli::estimate_request_bytes(tokens);
  switch (admission_.enter(shutdown_, cost)) {
    case AdmissionQueue::Admission::kRefused: {
      *kind = FrameKind::kError;
      const diag::ResourceExhaustedError e(
          "serve",
          "request estimate " + std::to_string(cost) +
              " bytes exceeds the memory budget (" +
              std::to_string(res::Budget::global().limit()) +
              " bytes); refusing at admission — shrink the request or "
              "restart the daemon with a larger --mem-budget (retrying "
              "unchanged will not help)");
      resp.status = diag::exit_code(e.category());
      resp.err = std::string(e.what()) + "\n";
      return resp;
    }
    case AdmissionQueue::Admission::kOverloaded: {
      *kind = FrameKind::kError;
      const diag::OverloadedError e(
          "serve", "admission queue full (" +
                       std::to_string(admission_.max_active()) +
                       " active, " +
                       std::to_string(admission_.max_queued()) +
                       " queued); back off and retry");
      resp.status = diag::exit_code(e.category());
      resp.err = std::string(e.what()) + "\n";
      return resp;
    }
    case AdmissionQueue::Admission::kCancelled: {
      *kind = FrameKind::kError;
      resp.status = 5;
      resp.err = "[cancelled] serve: daemon draining, request not "
                 "started\n";
      return resp;
    }
    case AdmissionQueue::Admission::kAdmitted:
      break;
  }
  const SlotGuard slot(admission_);
  // The ambient control every checkpoint under this request observes:
  // the daemon's shutdown token (so draining cancels in-flight work) plus
  // the per-request deadline.  cli::run() chains onto it — a request's
  // own --deadline-s can only tighten the bound.
  run::RunControl rc;
  rc.token = shutdown_;
  if (config_.request_deadline_s > 0.0)
    rc.deadline = run::Deadline::after(config_.request_deadline_s);
  const run::ScopedRunControl control(rc);
  std::ostringstream out, err;
  try {
    resp.status = cli::run(tokens, out, err, &warm_);
  } catch (const std::bad_alloc&) {
    // cli::run() contains bad_alloc itself (exit code 7); this guard
    // covers the residue outside it — stream buffer growth, the response
    // copy.  An allocation failure costs one request, never the daemon.
    res::Budget::global().record_contained_bad_alloc();
    *kind = FrameKind::kError;
    resp.status = 7;
    resp.out.clear();
    resp.err = "error: [resource-exhausted] serve: allocation failed "
               "(std::bad_alloc) while executing the request; the daemon "
               "remains healthy — shrink the request\n";
    return resp;
  }
  resp.out = out.str();
  resp.err = err.str();
  return resp;
}

std::string Server::stats_text() {
  const WarmTableStore::Stats ws = warm_.stats();
  const AdmissionQueue::Stats as = admission_.stats();
  const core::CacheStats cs = warm_.cache().stats();
  std::ostringstream os;
  const res::Stats rs = res::Budget::global().stats();
  os << "rlcx serve stats\n"
     << "requests: " << served_.load(std::memory_order_relaxed)
     << " served, " << as.rejected << " overloaded, " << as.refused
     << " refused over budget, "
     << cancelled_.load(std::memory_order_relaxed) << " cancelled\n"
     << "warm store: " << ws.hits << " hits, " << ws.misses
     << " misses, " << ws.evictions << " evictions, " << ws.resident
     << " resident (max " << warm_.max_tables() << "), "
     << ws.resident_bytes << " resident bytes";
  if (warm_.max_bytes() > 0) os << " (byte cap " << warm_.max_bytes() << ")";
  os << "\n";
  for (const WarmTableStore::EntryInfo& e : warm_.entries())
    os << "warm entry " << e.id << ": " << e.bytes << " bytes\n";
  os << "memory budget: " << rs.limit_bytes << " limit, " << rs.in_use()
     << " in use, " << rs.peak_bytes << " peak, " << rs.refusals
     << " refusals, "
     << rs.contained_bad_allocs << " contained bad_allocs\n"
     << "admission: " << as.active << " active, " << as.queued
     << " queued (max-active " << admission_.max_active()
     << ", queue-depth " << admission_.max_queued() << ")\n"
     << "table cache " << warm_.cache().directory() << ": " << cs.hits
     << " hits, " << cs.misses << " misses, " << cs.bytes_read
     << " bytes read, " << cs.bytes_written << " bytes written, "
     << cs.write_retries << " write retries, " << cs.stores_dropped
     << " stores dropped\n"
     << "resilience: "
     << peer_disconnects_.load(std::memory_order_relaxed)
     << " peer disconnects, "
     << idle_disconnects_.load(std::memory_order_relaxed)
     << " idle disconnects, "
     << accept_retries_.load(std::memory_order_relaxed)
     << " accept retries, " << cs.quarantined_at_startup
     << " quarantined at startup, " << cs.tmp_swept
     << " staging files swept, " << cs.fsyncs << " fsyncs\n";
  const solver::SolveStats ss = solver::solve_stats_total();
  os << "impedance solver: " << ss.dense_solves << " dense solves, largest "
     << ss.max_filaments << " filaments\n";
  const peec::BatchStats bs = peec::batch_stats_total();
  os << "batch engine: " << bs.volume_terms + bs.filament_terms
     << " kernel terms (" << bs.volume_terms << " volume, "
     << bs.filament_terms << " filament) in " << bs.batch_runs
     << " batches, "
     << static_cast<std::uint64_t>(bs.terms_per_second() + 0.5)
     << " terms/s, simd " << peec::batch_simd_name() << "\n";
  return os.str();
}

std::string Server::health_text() {
  const AdmissionQueue::Stats as = admission_.stats();
  const solver::SolveStats ss = solver::solve_stats_total();
  const res::Stats rs = res::Budget::global().stats();
  const WarmTableStore::Stats ws = warm_.stats();
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  std::ostringstream os;
  os << "healthy\n"
     << "uptime-s " << uptime << "\n"
     << "served " << served_.load(std::memory_order_relaxed) << "\n"
     << "active " << as.active << "\n"
     << "queued " << as.queued << "\n"
     << "peer-disconnects "
     << peer_disconnects_.load(std::memory_order_relaxed) << "\n"
     << "idle-disconnects "
     << idle_disconnects_.load(std::memory_order_relaxed) << "\n"
     << "accept-retries "
     << accept_retries_.load(std::memory_order_relaxed) << "\n"
     << "dense-solves " << ss.dense_solves << "\n"
     << "mem-limit-bytes " << rs.limit_bytes << "\n"
     << "mem-peak-bytes " << rs.peak_bytes << "\n"
     << "mem-refusals " << rs.refusals << "\n"
     << "contained-bad-allocs " << rs.contained_bad_allocs << "\n"
     << "warm-bytes " << ws.resident_bytes << "\n";
  return os.str();
}

void Server::record_request(std::uint64_t seq,
                            const std::vector<std::string>& tokens,
                            int status) {
  const std::string command =
      tokens.empty() ? std::string("none") : sanitize_command(tokens[0]);
  try {
    journal_->record("r" + std::to_string(seq) + "-" + command + "-x" +
                     std::to_string(status));
  } catch (...) {
    // Logging must never fail a request (disk full on the log volume).
  }
}

int serve_main(const std::vector<std::string>& argv, std::ostream& out,
               std::ostream& err) {
  try {
    const cli::Args args = cli::parse_args(argv);
    ServeConfig cfg;
    cfg.cache_dir = args.get("table-cache", "");
    if (cfg.cache_dir.empty())
      throw diag::UsageError("serve", "serve requires --table-cache DIR");
    cfg.socket_path = args.get("socket", "");
    cfg.stdio = args.has("stdio");
    if (cfg.stdio == !cfg.socket_path.empty())
      throw diag::UsageError(
          "serve", "serve requires exactly one of --socket PATH or "
                   "--stdio");
    cfg.max_tables =
        static_cast<std::size_t>(args.get_num("max-tables", 16));
    const double table_mib = args.get_num("max-table-mib", 0.0);
    if (table_mib < 0.0)
      throw diag::UsageError("serve",
                             "--max-table-mib must be >= 0 MiB");
    cfg.max_table_bytes =
        static_cast<std::size_t>(table_mib * 1024.0 * 1024.0);
    if (args.has("mem-budget")) {
      const double budget_mib = args.get_num("mem-budget", 0.0);
      if (budget_mib < 0.0)
        throw diag::UsageError("serve", "--mem-budget must be >= 0 MiB");
      res::Budget::global().set_limit(
          static_cast<std::uint64_t>(budget_mib * 1024.0 * 1024.0));
    }
    cfg.max_active = static_cast<int>(args.get_num("max-active", 4));
    cfg.queue_depth = static_cast<int>(args.get_num("queue-depth", 64));
    cfg.request_deadline_s = args.get_num("request-deadline-s", 0.0);
    cfg.idle_timeout_s = args.get_num("idle-timeout-s", 0.0);
    cfg.log_path = args.get("log", "");
    cfg.strict = args.has("strict");

    // In stdio mode stdout carries frames, so lifecycle lines go to err.
    Server server(cfg, cfg.stdio ? err : out);
    // A client that closes mid-reply must cost one connection, not the
    // process: EPIPE over SIGPIPE everywhere in the daemon (FdStream's
    // MSG_NOSIGNAL covers sockets; this covers the rest).
    const run::ScopedSigpipeIgnore no_sigpipe;
    const run::ScopedSigintCancel on_sigint(server.shutdown_token());
    const run::ScopedSigtermCancel on_sigterm(server.shutdown_token());
    return cfg.stdio ? server.run_stdio() : server.run_socket();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    if (dynamic_cast<const diag::Fault*>(&e) != nullptr)
      return diag::exit_code(
          diag::category_of(e, diag::Category::kUsage));
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
      return 2;
    return 1;
  }
}

}  // namespace rlcx::serve
