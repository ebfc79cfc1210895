// The `rlcx serve` daemon: a long-lived extraction service.
//
// One process opens the table cache once, keeps deserialised tables hot
// in a WarmTableStore, and answers framed requests (serve/protocol.h,
// normative spec in docs/serve-protocol.md) over a Unix domain socket —
// or over stdin/stdout in --stdio mode, which lets tests and tooling
// drive the full protocol without a socket.
//
// Threading model: the accept loop hands each connection a dedicated
// protocol thread; requests execute on that thread under an ambient
// run::ScopedRunControl (the server's shutdown token + the per-request
// deadline), and the extraction inside fans its field solves onto the
// shared rt pool.  Admission control (serve/admission.h) bounds how many
// requests execute or wait; beyond that clients get an immediate typed
// `overloaded` rejection (exit code 6).  Admission is also cost-based:
// a request whose estimated footprint (cli::estimate_request_bytes)
// exceeds the process memory budget gets a typed `resource-exhausted`
// refusal (exit code 7) before any slot is granted, and a std::bad_alloc
// escaping a request is contained as a status-7 response — never a dead
// daemon (docs/robustness.md "Resource governance").
//
// Lifecycle: SIGINT/SIGTERM (or a `shutdown` request) request the
// shutdown token; the accept loop stops, in-flight requests unwind at
// their next checkpoint (status-5 responses), connections drain, the
// socket file is removed.  Every answered request is appended to a
// request log (a run::AppendLog in the journal format), so an operator can
// replay what a daemon did.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "run/control.h"
#include "run/journal.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/table_store.h"

namespace rlcx::serve {

struct ServeConfig {
  std::string cache_dir;    ///< --table-cache (required)
  std::string socket_path;  ///< --socket; empty with stdio=true
  bool stdio = false;       ///< --stdio: speak the protocol on stdin/stdout
  std::size_t max_tables = 16;     ///< --max-tables: warm-store LRU bound
  std::size_t max_table_bytes = 0; ///< --max-table-mib: warm-store byte
                                   ///< bound (0 = count-bounded only)
  int max_active = 4;              ///< --max-active: executing requests
  int queue_depth = 64;            ///< --queue-depth: waiting requests
  double request_deadline_s = 0.0; ///< --request-deadline-s (0 = none)
  double idle_timeout_s = 0.0;     ///< --idle-timeout-s: drop connections
                                   ///< silent this long (0 = never; the
                                   ///< slow-loris defense)
  std::string log_path;     ///< --log (default <cache_dir>/serve.journal)
  bool strict = false;      ///< --strict: kStrict cache recovery
};

class Server {
 public:
  /// Opens the cache and the request log; throws typed faults on invalid
  /// configuration.  `diag` receives the daemon's own lifecycle lines
  /// (listening/drained) — stdout in socket mode, stderr in stdio mode
  /// (where stdout carries frames).
  Server(ServeConfig config, std::ostream& diag);
  ~Server();

  /// Binds the Unix socket (removing a stale file first), then accepts
  /// until shutdown.  Returns 0 after a graceful drain.
  int run_socket();

  /// Speaks the protocol on stdin/stdout: one connection, then exit.
  int run_stdio();

  /// Full protocol loop over one established transport (used directly by
  /// tests; run_socket()/run_stdio() call it per connection).
  void handle_connection(ByteStream& stream);

  /// The shutdown token: requesting it drains the daemon.  serve_main
  /// points SIGINT/SIGTERM at it.
  const run::CancelToken& shutdown_token() const noexcept {
    return shutdown_;
  }

  /// The admission queue (stats; tests occupy slots deterministically).
  AdmissionQueue& admission() noexcept { return admission_; }

 private:
  void handle_request(ByteStream& stream, const std::string& payload);
  Response execute(const std::vector<std::string>& tokens,
                   FrameKind* kind);
  std::string stats_text();
  std::string health_text();
  void record_request(std::uint64_t seq,
                      const std::vector<std::string>& tokens, int status);
  void reap_finished_locked();
  void join_connections();

  ServeConfig config_;
  std::ostream& diag_;
  WarmTableStore warm_;
  AdmissionQueue admission_;
  run::CancelToken shutdown_;
  std::unique_ptr<run::AppendLog> log_;  ///< the request log
  std::mutex threads_m_;
  std::vector<std::thread> connections_;
  std::vector<std::thread::id> finished_;  ///< connection threads done and
                                           ///< ready to be reaped/joined
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> peer_disconnects_{0};  ///< closed/reset mid-reply
  std::atomic<std::size_t> idle_disconnects_{0};  ///< dropped by the idle
                                                  ///< read deadline
  std::atomic<std::size_t> accept_retries_{0};    ///< transient accept()
                                                  ///< failures backed off
};

/// `rlcx serve ...`: parses flags (argv starts with "serve"), runs the
/// daemon, maps faults to the documented exit codes.
int serve_main(const std::vector<std::string>& argv, std::ostream& out,
               std::ostream& err);

}  // namespace rlcx::serve
