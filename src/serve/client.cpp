#include "serve/client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "cli/cli.h"
#include "diag/error.h"

namespace rlcx::serve {

namespace {

/// connect(2) bounded by `timeout_ms`: non-blocking connect, poll for
/// writability, then read the pending error with SO_ERROR.  Returns 0 or
/// the errno the connect resolved to.
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t len,
                         int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return errno;
  int result = 0;
  if (::connect(fd, addr, len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      result = errno;
    } else {
      pollfd p{};
      p.fd = fd;
      p.events = POLLOUT;
      const int r = ::poll(&p, 1, timeout_ms);
      if (r == 0) {
        result = ETIMEDOUT;
      } else if (r < 0) {
        result = errno;
      } else {
        int soerr = 0;
        socklen_t slen = sizeof soerr;
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) < 0)
          result = errno;
        else
          result = soerr;
      }
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for the frame I/O
  return result;
}

}  // namespace

Client::Client(const std::string& socket_path, const ClientOptions& options)
    : stream_(-1, -1) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
    throw diag::UsageError(
        "serve", "--socket path must be 1.." +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes, got " + std::to_string(socket_path.size()));
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw diag::IoError("serve", std::string("socket: ") +
                                     std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int cerr =
      options.connect_timeout_ms > 0
          ? connect_with_timeout(fd_,
                                 reinterpret_cast<const sockaddr*>(&addr),
                                 sizeof(addr), options.connect_timeout_ms)
          : (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0
                 ? errno
                 : 0);
  if (cerr != 0) {
    ::close(fd_);
    fd_ = -1;
    throw diag::IoError("serve",
                        "connect " + socket_path + ": " +
                            std::strerror(cerr) +
                            " (is the daemon running? start it with "
                            "`rlcx serve --table-cache DIR --socket " +
                            socket_path + "`)");
  }
  if (options.io_timeout_ms > 0) {
    // Bound each socket read and write so a wedged daemon surfaces as a
    // typed IoError (EAGAIN from the timed-out syscall) the retry loop in
    // query_main can act on, instead of hanging the client forever.
    timeval tv{};
    tv.tv_sec = options.io_timeout_ms / 1000;
    tv.tv_usec = (options.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  stream_ = FdStream(fd_, fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Response Client::request(const std::vector<std::string>& argv) {
  write_frame(stream_, FrameKind::kRequest, join_request(argv));
  Frame frame;
  if (!read_frame(stream_, &frame))
    throw diag::IoError("serve",
                        "connection closed before a reply arrived");
  if (frame.kind == FrameKind::kRequest)
    throw diag::IoError("serve", "peer sent a request frame as a reply");
  last_kind_ = frame.kind;
  return parse_response(frame.payload);
}

bool retry_safe(const std::string& command) {
  return command == "extract" || command == "delay" || command == "ping" ||
         command == "stats" || command == "health" || command == "help";
}

int query_main(const std::vector<std::string>& argv, std::ostream& out,
               std::ostream& err) {
  try {
    // argv is ["query", resilience flags..., "--socket", PATH, CMD,
    // flags...]: everything after the socket is forwarded verbatim as the
    // request.
    const char* const usage =
        "usage: rlcx query [--retries N] [--backoff-ms MS] "
        "[--connect-timeout-s S] [--timeout-s S] --socket PATH CMD "
        "[flags...] (e.g. rlcx query --socket /tmp/rlcx.sock extract "
        "--structure cpw --length-um 6000)";
    if (argv.empty() || argv[0] != "query")
      throw diag::UsageError("serve", usage);
    int retries = 0;
    double backoff_ms = 100.0;
    ClientOptions options;
    std::size_t i = 1;
    const auto flag_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argv.size())
        throw diag::UsageError("serve", std::string(flag) +
                                            " requires a value (" + usage +
                                            ")");
      return argv[++i];
    };
    // The same checked conversions as cli::Args, before any cast: the
    // timeouts are converted to int milliseconds, and the backoff of the
    // last retry is 2^kMaxRetries times --backoff-ms.
    constexpr int kMaxRetries = 30;
    std::string socket_path;
    for (; i < argv.size(); ++i) {
      const std::string& a = argv[i];
      if (a == "--retries")
        retries = cli::parse_int("retries", flag_value("--retries"), 0,
                                 kMaxRetries);
      else if (a == "--backoff-ms")
        backoff_ms = cli::parse_num("backoff-ms", flag_value("--backoff-ms"),
                                    0.0, cli::kMaxFlagSeconds * 1000.0);
      else if (a == "--connect-timeout-s")
        options.connect_timeout_ms = static_cast<int>(
            cli::parse_num("connect-timeout-s",
                           flag_value("--connect-timeout-s"), 0.0,
                           cli::kMaxFlagSeconds) *
            1000.0);
      else if (a == "--timeout-s")
        options.io_timeout_ms = static_cast<int>(
            cli::parse_num("timeout-s", flag_value("--timeout-s"), 0.0,
                           cli::kMaxFlagSeconds) *
            1000.0);
      else if (a == "--socket") {
        socket_path = flag_value("--socket");
        ++i;
        break;
      } else {
        throw diag::UsageError("serve", "unknown flag before --socket: " +
                                            a + " (" + usage + ")");
      }
    }
    if (socket_path.empty() || i >= argv.size())
      throw diag::UsageError("serve", usage);
    const std::vector<std::string> request(argv.begin() +
                                               static_cast<long>(i),
                                           argv.end());
    // Only idempotent commands may retry: replaying a `shutdown` (or any
    // future mutating command) after an ambiguous failure could act
    // twice.  Transport faults on non-retry-safe commands surface
    // immediately.
    const int budget = retry_safe(request[0]) ? retries : 0;
    std::mt19937 rng(static_cast<std::uint32_t>(
        ::getpid() ^
        std::chrono::steady_clock::now().time_since_epoch().count()));
    for (int attempt = 0;; ++attempt) {
      std::string reason;
      try {
        Client client(socket_path, options);
        const Response resp = client.request(request);
        // Status 6 (`overloaded`) is the daemon's explicit "back off and
        // retry" — the one *executed-request* status worth the backoff
        // loop.  Everything else is final — deliberately including
        // status 7 (`resource-exhausted`): the refusal is about the
        // request's size versus the daemon's memory budget, neither of
        // which a retry changes, so retrying would only burn admission
        // bandwidth (docs/serve-protocol.md "retry semantics").
        if (resp.status != 6 || attempt >= budget) {
          out << resp.out;
          err << resp.err;
          return resp.status;
        }
        reason = "daemon overloaded";
      } catch (const diag::IoError& e) {
        if (attempt >= budget) throw;
        reason = e.message();
      }
      // Exponential backoff with +/-50% jitter so a herd of retrying
      // clients does not re-converge on the daemon in lockstep.
      const double base = backoff_ms * static_cast<double>(1 << attempt);
      std::uniform_real_distribution<double> jitter(0.5, 1.5);
      const double sleep_ms = base * jitter(rng);
      err << "query: attempt " << (attempt + 1) << "/" << (budget + 1)
          << " failed (" << reason << "); retrying in "
          << static_cast<long long>(sleep_ms) << " ms\n";
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
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
