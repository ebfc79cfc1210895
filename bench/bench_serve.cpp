// Warm daemon vs cold CLI: the latency case for `rlcx serve`.
//
// A one-shot CLI extraction pays process start, table-cache open and
// bundle deserialisation on every invocation; the daemon pays them once
// and answers from its warm table store.  This bench measures both sides
// of that trade for the same request — a cached-table extract lookup —
// and reports p50/p99 latency and throughput at 1/4/16/64 concurrent
// clients.  Output is JSON; the committed reference run lives in
// BENCH_serve.json (acceptance: warm p50 >= 10x below cold CLI p50).
//
// Modes:
//   (default)             self-contained: starts an in-process daemon on
//                         a temp socket, measures, drains.  Cold-CLI
//                         timing spawns the real binary (--rlcx PATH, or
//                         RLCX_BIN, default build/src/cli/rlcx; skipped
//                         with a note when absent).
//   --smoke --socket S    load-check an EXTERNAL daemon: 100 mixed
//                         requests over 4 connections (valid, warm,
//                         disallowed, malformed-empty), verify every
//                         documented status, then send shutdown.  Exit
//                         nonzero on any protocol violation — the CI
//                         serve job runs this under ASan.
//   --hostile --socket S  abuse an EXTERNAL daemon with 100 mixed hostile
//                         clients — mid-frame closes, slow-loris dribbles,
//                         garbage magic, connection floods — then verify
//                         it still answers ping and health.  The daemon is
//                         left running (CI follows with --smoke, which
//                         shuts it down).  Exit nonzero if the daemon
//                         stopped answering.
//   --pressure            self-contained memory-pressure run: baseline
//                         small-request latency, then a tight process
//                         budget with oversized requests mixed in.  Every
//                         oversized request must draw a status-7 refusal
//                         at admission, small requests must keep
//                         succeeding (their p50/p99 under pressure is
//                         reported against the baseline), and one
//                         injected mid-build budget failure must draw a
//                         typed status-7 refusal whose retry succeeds.
//                         The JSON goes into BENCH_serve.json as the
//                         "pressure" object.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "res/budget.h"
#include "run/fault_injection.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace rlcx;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

std::vector<std::string> extract_argv() {
  // Signals-only bus: a pure cached-table lookup, no screening solves —
  // the headline workload of the warm store.
  return {"extract",  "--structure", "cpw",        "--length-um", "6000",
          "--traces", "s:10,s:5",    "--spacings", "2"};
}

/// One timed cold CLI invocation: fork/exec the real binary, wall-clock
/// the whole process. Returns -1 when the spawn fails.
double cold_cli_ms(const std::string& rlcx_bin,
                   const std::string& cache_dir) {
  std::vector<std::string> argv_s = extract_argv();
  argv_s.insert(argv_s.begin(), rlcx_bin);
  argv_s.push_back("--table-cache");
  argv_s.push_back(cache_dir);
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    ::freopen("/dev/null", "w", stdout);
    ::freopen("/dev/null", "w", stderr);
    ::execv(rlcx_bin.c_str(), argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return ms_since(t0);
}

struct Level {
  int clients = 0;
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;
};

Level run_level(const std::string& socket, int clients,
                std::size_t per_client) {
  std::vector<std::vector<double>> lat(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(socket);
      for (std::size_t i = 0; i < per_client; ++i) {
        const Clock::time_point r0 = Clock::now();
        const serve::Response resp = client.request(extract_argv());
        if (resp.status != 0)
          throw std::runtime_error("request failed: " + resp.err);
        lat[static_cast<std::size_t>(c)].push_back(ms_since(r0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = ms_since(t0) / 1000.0;
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  Level lvl;
  lvl.clients = clients;
  lvl.requests = all.size();
  lvl.p50_ms = percentile(all, 0.50);
  lvl.p99_ms = percentile(all, 0.99);
  lvl.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  return lvl;
}

int run_bench(const std::string& rlcx_bin) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "rlcx_bench_serve")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string cache_dir = root + "/cache";
  const std::string socket = root + "/serve.sock";

  // Characterise once so both sides measure pure lookup cost.
  {
    std::vector<std::string> argv = extract_argv();
    argv.push_back("--table-cache");
    argv.push_back(cache_dir);
    std::ostringstream out, err;
    if (cli::run(argv, out, err) != 0) {
      std::fprintf(stderr, "precharacterisation failed:\n%s",
                   err.str().c_str());
      return 1;
    }
  }

  serve::ServeConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.socket_path = socket;
  cfg.max_active = 8;
  cfg.queue_depth = 256;
  std::ostringstream daemon_log;
  serve::Server server(cfg, daemon_log);
  std::thread daemon([&] { server.run_socket(); });
  for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Prime the warm store so measurements see steady state.
  {
    serve::Client client(socket);
    client.request(extract_argv());
  }

  std::vector<Level> levels;
  for (const int clients : {1, 4, 16, 64})
    levels.push_back(
        run_level(socket, clients, clients >= 16 ? 16 : 64));

  // Cold CLI: true process starts against the same cache.
  std::vector<double> cold;
  const bool have_bin = std::filesystem::exists(rlcx_bin);
  if (have_bin) {
    for (int i = 0; i < 7; ++i) {
      const double ms = cold_cli_ms(rlcx_bin, cache_dir);
      if (ms >= 0.0) cold.push_back(ms);
    }
  }

  {
    serve::Client client(socket);
    client.request({"shutdown"});
  }
  daemon.join();
  std::filesystem::remove_all(root);

  const double cold_p50 = percentile(cold, 0.50);
  const double warm_p50 = levels.front().p50_ms;
  std::printf("{\n  \"experiment\": \"serve\",\n  \"smoke\": false,\n");
  if (!cold.empty())
    std::printf("  \"cold_cli\": {\"runs\": %zu, \"p50_ms\": %.3f},\n",
                cold.size(), cold_p50);
  else
    std::printf("  \"cold_cli\": null,\n");
  std::printf("  \"warm_daemon\": [\n");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const Level& l = levels[i];
    std::printf("    {\"clients\": %d, \"requests\": %zu, \"p50_ms\": "
                "%.3f, \"p99_ms\": %.3f, \"throughput_rps\": %.1f}%s\n",
                l.clients, l.requests, l.p50_ms, l.p99_ms,
                l.throughput_rps, i + 1 < levels.size() ? "," : "");
  }
  std::printf("  ],\n");
  if (!cold.empty() && warm_p50 > 0.0)
    std::printf("  \"speedup_p50\": %.1f\n", cold_p50 / warm_p50);
  else
    std::printf("  \"speedup_p50\": null\n");
  std::printf("}\n");
  if (cold.empty())
    std::fprintf(stderr,
                 "note: rlcx binary not found at %s — cold-CLI side "
                 "skipped (set RLCX_BIN or --rlcx)\n",
                 rlcx_bin.c_str());
  return 0;
}

/// --smoke: drive an external daemon with a mixed request load and
/// verify every documented behaviour; used by the CI serve job.
int run_smoke(const std::string& socket, std::size_t total_requests) {
  // The daemon may still be binding its socket.
  for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kThreads = 4;
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        serve::Client client(socket);
        const std::size_t share =
            total_requests / kThreads +
            (static_cast<std::size_t>(t) <
                     total_requests % kThreads
                 ? 1u
                 : 0u);
        for (std::size_t i = 0; i < share; ++i) {
          switch (i % 5) {
            case 0: {
              if (client.request({"ping"}).out != "pong\n") ++failures;
              break;
            }
            case 1: {
              const serve::Response r = client.request(extract_argv());
              if (r.status != 0) ++failures;
              break;
            }
            case 2: {
              if (client.request({"stats"}).status != 0) ++failures;
              break;
            }
            case 3: {  // disallowed command -> status 2 error frame
              const serve::Response r = client.request({"batch"});
              if (r.status != 2 ||
                  client.last_kind() != serve::FrameKind::kError)
                ++failures;
              break;
            }
            default: {  // malformed empty request; connection survives
              const serve::Response r = client.request({});
              if (r.status != 2 ||
                  client.last_kind() != serve::FrameKind::kError)
                ++failures;
              break;
            }
          }
          ++done;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "smoke client %d: %s\n", t, e.what());
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  bool drained = false;
  try {
    serve::Client client(socket);
    drained = client.request({"shutdown"}).out == "draining\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smoke shutdown: %s\n", e.what());
  }
  const std::size_t failed = failures.load();
  std::printf("{\"experiment\": \"serve\", \"smoke\": true, "
              "\"requests\": %zu, \"failures\": %zu, \"drained\": %s}\n",
              done.load(), failed, drained ? "true" : "false");
  return (failed == 0 && drained) ? 0 : 1;
}

/// Raw AF_UNIX connect for clients that deliberately violate the
/// protocol; returns -1 when the daemon (or kernel) refuses.
int raw_connect(const std::string& socket) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// --hostile: every class of client the daemon must shrug off.  None of
/// these speak the protocol to completion; the only pass criterion is
/// that a well-behaved client still gets answers afterwards.
int run_hostile(const std::string& socket, std::size_t total_clients) {
  for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::string ping_frame =
      serve::encode_frame(serve::FrameKind::kRequest, "ping");
  constexpr int kThreads = 4;
  std::atomic<std::size_t> launched{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t share =
          total_clients / kThreads +
          (static_cast<std::size_t>(t) < total_clients % kThreads ? 1u
                                                                  : 0u);
      for (std::size_t i = 0; i < share; ++i) {
        switch (i % 4) {
          case 0: {  // mid-frame close: header promises bytes, then gone
            const int fd = raw_connect(socket);
            if (fd < 0) break;
            (void)!::write(fd, ping_frame.data(), 5);
            ::close(fd);
            break;
          }
          case 1: {  // slow loris: a dribble, a stall, then vanish
            const int fd = raw_connect(socket);
            if (fd < 0) break;
            (void)!::write(fd, ping_frame.data(), 2);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            ::close(fd);
            break;
          }
          case 2: {  // garbage magic: the daemon replies error and closes
            const int fd = raw_connect(socket);
            if (fd < 0) break;
            (void)!::write(fd, "XXXXXXXX", 8);
            char reply[64];
            (void)!::read(fd, reply, sizeof reply);
            ::close(fd);
            break;
          }
          default: {  // connect flood: a burst of silent connections,
                      // enough to brush the process fd ceiling under the
                      // CI job's lowered ulimit
            int burst[16];
            for (int& fd : burst) fd = raw_connect(socket);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            for (const int fd : burst)
              if (fd >= 0) ::close(fd);
            break;
          }
        }
        ++launched;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The daemon must still be standing and answering.
  bool ping_ok = false;
  bool health_ok = false;
  try {
    serve::Client client(socket);
    ping_ok = client.request({"ping"}).out == "pong\n";
    const serve::Response health = client.request({"health"});
    health_ok = health.status == 0 &&
                health.out.substr(0, 8) == "healthy\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostile verify: %s\n", e.what());
  }
  std::printf("{\"experiment\": \"serve\", \"hostile\": true, "
              "\"clients\": %zu, \"ping_ok\": %s, \"health_ok\": %s}\n",
              launched.load(), ping_ok ? "true" : "false",
              health_ok ? "true" : "false");
  return (ping_ok && health_ok) ? 0 : 1;
}

/// --pressure: the resource-governance story under load.  A tight budget
/// must split traffic cleanly — oversized requests refused at admission
/// with status 7, small requests unaffected — and an injected mid-build
/// budget failure must be refused typed (status 7) and contained to that
/// request: its retry succeeds.
int run_pressure() {
  const std::string root =
      (std::filesystem::temp_directory_path() / "rlcx_bench_pressure")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string cache_dir = root + "/cache";
  const std::string socket = root + "/serve.sock";

  // Characterise the small request's tables once, unlimited.
  res::Budget::global().set_limit(0);
  {
    std::vector<std::string> argv = extract_argv();
    argv.push_back("--table-cache");
    argv.push_back(cache_dir);
    std::ostringstream out, err;
    if (cli::run(argv, out, err) != 0) {
      std::fprintf(stderr, "precharacterisation failed:\n%s",
                   err.str().c_str());
      return 1;
    }
  }

  serve::ServeConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.socket_path = socket;
  cfg.max_active = 4;
  cfg.queue_depth = 64;
  std::ostringstream daemon_log;
  serve::Server server(cfg, daemon_log);
  std::thread daemon([&] { server.run_socket(); });
  for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    serve::Client client(socket);
    client.request(extract_argv());  // prime the warm store
  }

  // Phase 1: baseline small-request latency, unlimited budget.
  const Level baseline = run_level(socket, 2, 100);

  // Phase 2: a tight budget.  Small requests (default 4-point grid) fit
  // comfortably; the oversized request's 64-point grid estimate (~270 MB)
  // can never fit, so admission must refuse it with status 7.
  constexpr std::uint64_t kBudgetMib = 64;
  res::Budget::global().set_limit(kBudgetMib * 1024 * 1024);
  std::vector<std::string> oversized = extract_argv();
  oversized.push_back("--points");
  oversized.push_back("64");

  constexpr std::size_t kOversized = 20;
  std::atomic<std::size_t> refused{0};
  std::atomic<std::size_t> small_failures{0};
  std::vector<std::vector<double>> small_lat(2);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(socket);
      for (std::size_t i = 0; i < 100; ++i) {
        const Clock::time_point r0 = Clock::now();
        if (client.request(extract_argv()).status != 0) ++small_failures;
        small_lat[static_cast<std::size_t>(c)].push_back(ms_since(r0));
      }
    });
  }
  threads.emplace_back([&] {
    serve::Client client(socket);
    for (std::size_t i = 0; i < kOversized; ++i) {
      const serve::Response r = client.request(oversized);
      if (r.status == 7 &&
          r.err.find("resource-exhausted") != std::string::npos)
        ++refused;
    }
  });
  for (std::thread& t : threads) t.join();
  const double pressure_wall_s = ms_since(t0) / 1000.0;
  std::vector<double> all_small;
  for (const auto& v : small_lat)
    all_small.insert(all_small.end(), v.begin(), v.end());
  const double p50 = percentile(all_small, 0.50);
  const double p99 = percentile(all_small, 0.99);

  // Phase 3: a budget failure in the middle of a live characterisation
  // (fresh cache key) must be refused typed — status 7 — and contained to
  // that request: the retry of the same request succeeds.  Per-request
  // alloc_fail order: 1 = admission estimate, 2 = table-grid reservation,
  // 3 = the first grid point's dense-solve reservation.
  run::FaultInjector::global().set_schedule("alloc_fail:3");
  int midbuild_status = -1;
  bool midbuild_typed = false;
  bool retry_ok = false;
  {
    serve::Client client(socket);
    std::vector<std::string> fresh = extract_argv();
    // A different characterisation grid => a new content address, so the
    // tables build live under the tight budget.
    fresh.push_back("--points");
    fresh.push_back("5");
    const serve::Response refused_mid = client.request(fresh);
    midbuild_status = refused_mid.status;
    midbuild_typed =
        refused_mid.err.find("resource-exhausted") != std::string::npos;
    run::FaultInjector::global().clear();
    retry_ok = client.request(fresh).status == 0;
  }
  run::FaultInjector::global().clear();

  const std::size_t admission_refused = server.admission().stats().refused;
  {
    serve::Client client(socket);
    client.request({"shutdown"});
  }
  daemon.join();
  std::filesystem::remove_all(root);
  res::Budget::global().set_limit(0);

  const double refusal_rate =
      static_cast<double>(refused.load()) / kOversized;
  std::printf(
      "{\n  \"experiment\": \"serve\",\n  \"pressure\": true,\n"
      "  \"budget_mib\": %llu,\n"
      "  \"baseline_small\": {\"requests\": %zu, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f},\n"
      "  \"pressure_small\": {\"requests\": %zu, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f, \"failures\": %zu, \"wall_s\": %.2f},\n"
      "  \"oversized\": {\"requests\": %zu, \"refused\": %zu, "
      "\"refusal_rate\": %.2f},\n"
      "  \"admission_refused\": %zu,\n"
      "  \"midbuild_refusal_status\": %d,\n"
      "  \"midbuild_retry_ok\": %s\n}\n",
      static_cast<unsigned long long>(kBudgetMib), baseline.requests,
      baseline.p50_ms, baseline.p99_ms, all_small.size(), p50, p99,
      small_failures.load(), pressure_wall_s, kOversized, refused.load(),
      refusal_rate, admission_refused, midbuild_status,
      retry_ok ? "true" : "false");
  const bool pass = small_failures.load() == 0 &&
                    refused.load() == kOversized && midbuild_status == 7 &&
                    midbuild_typed && retry_ok;
  if (!pass)
    std::fprintf(stderr, "pressure run failed acceptance\n%s",
                 daemon_log.str().c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool hostile = false;
  bool pressure = false;
  std::string socket;
  std::size_t requests = 100;
  std::string rlcx_bin = "build/src/cli/rlcx";
  if (const char* env = std::getenv("RLCX_BIN")) rlcx_bin = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--hostile") == 0) hostile = true;
    else if (std::strcmp(argv[i], "--pressure") == 0) pressure = true;
    else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc)
      socket = argv[++i];
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (std::strcmp(argv[i], "--rlcx") == 0 && i + 1 < argc)
      rlcx_bin = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: bench_serve [--rlcx PATH] | --pressure | "
                   "(--smoke | --hostile) --socket PATH [--requests N]\n");
      return 2;
    }
  }
  if (pressure) return run_pressure();
  if (smoke || hostile) {
    if (socket.empty()) {
      std::fprintf(stderr, "--smoke/--hostile require --socket PATH\n");
      return 2;
    }
    return hostile ? run_hostile(socket, requests)
                   : run_smoke(socket, requests);
  }
  return run_bench(rlcx_bin);
}
