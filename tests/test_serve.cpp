// Tests for the `rlcx serve` daemon: the wire protocol against its
// normative spec (docs/serve-protocol.md), admission control, and the
// full request path through Server::handle_connection — including the
// warm-vs-cold bit-identity guarantee.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "diag/error.h"
#include "res/budget.h"
#include "run/control.h"
#include "run/fault_injection.h"
#include "run/journal.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/table_store.h"
#include "support/scratch_dir.h"

namespace rlcx::serve {
namespace {

std::string read_protocol_doc() {
  const std::filesystem::path path =
      std::filesystem::path(RLCX_SOURCE_DIR) / "docs" / "serve-protocol.md";
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::string hex_byte(unsigned value) {
  char b[8];
  std::snprintf(b, sizeof(b), "0x%02x", value);
  return b;
}

TEST(Protocol, HeaderLayoutMatchesSpec) {
  ASSERT_EQ(kHeaderBytes, 8u);
  const std::string h = encode_header(FrameKind::kRequest, 5);
  ASSERT_EQ(h.size(), kHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(h[0]), kMagic0);  // 'R'
  EXPECT_EQ(static_cast<unsigned char>(h[1]), kMagic1);  // 'X'
  EXPECT_EQ(h[0], 'R');
  EXPECT_EQ(h[1], 'X');
  EXPECT_EQ(static_cast<unsigned char>(h[2]), kProtocolVersion);
  EXPECT_EQ(static_cast<unsigned char>(h[3]), 0x01u);  // request kind
  EXPECT_EQ(static_cast<unsigned char>(h[4]), 5u);
  EXPECT_EQ(static_cast<unsigned char>(h[5]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(h[6]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(h[7]), 0u);
}

TEST(Protocol, LengthFieldIsLittleEndian) {
  // 0x012345 = 74565 bytes: byte 4 = 0x45, byte 5 = 0x23, byte 6 = 0x01.
  const std::string h = encode_header(FrameKind::kResponse, 0x012345);
  EXPECT_EQ(static_cast<unsigned char>(h[4]), 0x45u);
  EXPECT_EQ(static_cast<unsigned char>(h[5]), 0x23u);
  EXPECT_EQ(static_cast<unsigned char>(h[6]), 0x01u);
  EXPECT_EQ(static_cast<unsigned char>(h[7]), 0x00u);
}

TEST(Protocol, FrameRoundTripThroughMemoryStream) {
  MemoryStream out;
  write_frame(out, FrameKind::kRequest,
              "extract\n--structure\ncpw\n--length-um\n6000");
  write_frame(out, FrameKind::kResponse, std::string("a\0b", 3));

  MemoryStream in(out.output());
  Frame f;
  ASSERT_TRUE(read_frame(in, &f));
  EXPECT_EQ(f.kind, FrameKind::kRequest);
  EXPECT_EQ(f.payload, "extract\n--structure\ncpw\n--length-um\n6000");
  ASSERT_TRUE(read_frame(in, &f));
  EXPECT_EQ(f.kind, FrameKind::kResponse);
  EXPECT_EQ(f.payload, std::string("a\0b", 3));
  EXPECT_FALSE(read_frame(in, &f));  // clean EOF
}

TEST(Protocol, CleanEofAtFrameBoundaryReturnsFalse) {
  MemoryStream in("");
  Frame f;
  EXPECT_FALSE(read_frame(in, &f));
}

TEST(Protocol, FramingViolationsAreTypedIoErrors) {
  Frame f;
  {
    MemoryStream in("XYzzzzzz");  // bad magic
    EXPECT_THROW(read_frame(in, &f), diag::IoError);
  }
  {
    std::string h = encode_header(FrameKind::kRequest, 0);
    h[2] = 0x7f;  // unsupported version
    MemoryStream in(h);
    EXPECT_THROW(read_frame(in, &f), diag::IoError);
  }
  {
    std::string h = encode_header(FrameKind::kRequest, 0);
    h[3] = 0x09;  // unknown kind
    MemoryStream in(h);
    EXPECT_THROW(read_frame(in, &f), diag::IoError);
  }
  {
    std::string h = encode_header(FrameKind::kRequest, 0);
    h[7] = 0x7f;  // length way over kMaxPayloadBytes
    MemoryStream in(h);
    EXPECT_THROW(read_frame(in, &f), diag::IoError);
  }
  {
    MemoryStream in(encode_header(FrameKind::kRequest, 4).substr(0, 5));
    EXPECT_THROW(read_frame(in, &f), diag::IoError);  // truncated header
  }
  {
    MemoryStream in(encode_header(FrameKind::kRequest, 4) + "ab");
    EXPECT_THROW(read_frame(in, &f), diag::IoError);  // truncated payload
  }
  EXPECT_THROW(encode_header(FrameKind::kRequest, kMaxPayloadBytes + 1),
               diag::UsageError);
}

TEST(Protocol, ResponseRoundTripPreservesBinaryStreams) {
  Response r;
  r.status = 4;
  r.label = status_label(4);
  r.out = std::string("line\nwith\0byte", 14);
  r.err = "[numeric] lu: zero pivot\n";
  const Response back = parse_response(encode_response(r));
  EXPECT_EQ(back.status, 4);
  EXPECT_EQ(back.label, "numeric");
  EXPECT_EQ(back.out, r.out);
  EXPECT_EQ(back.err, r.err);
}

TEST(Protocol, StatusLabelsFollowTheExitCodeContract) {
  EXPECT_STREQ(status_label(0), "ok");
  EXPECT_STREQ(status_label(1), "internal");
  EXPECT_STREQ(status_label(2), "usage");
  EXPECT_STREQ(status_label(3), "invalid-input");
  EXPECT_STREQ(status_label(4), "numeric");
  EXPECT_STREQ(status_label(5), "cancelled");
  EXPECT_STREQ(status_label(6), "overloaded");
  EXPECT_STREQ(status_label(7), "resource-exhausted");
  EXPECT_STREQ(status_label(99), "unknown");
}

TEST(Protocol, MalformedResponsePayloadIsTypedIoError) {
  EXPECT_THROW(parse_response(""), diag::IoError);
  EXPECT_THROW(parse_response("status x ok\nout 0\nerr 0\n\n"),
               diag::IoError);
  EXPECT_THROW(parse_response("status 0 ok\nout 5\nerr 0\n\nab"),
               diag::IoError);  // body shorter than promised
  EXPECT_THROW(parse_response("status 0 ok\nout 0\nerr 0\n"),
               diag::IoError);  // missing blank line
}

TEST(Protocol, RequestJoinSplitRoundTrip) {
  const std::vector<std::string> argv = {"extract", "--structure", "cpw",
                                         "--length-um", "6000"};
  EXPECT_EQ(split_request(join_request(argv)), argv);
  EXPECT_TRUE(split_request("").empty());
  EXPECT_EQ(join_request({}), "");
  EXPECT_EQ(split_request("ping"), std::vector<std::string>{"ping"});
}

// docs/serve-protocol.md is the normative artifact: the constants the
// implementation compiles must appear in the document verbatim, so the
// spec can never drift silently from the code.
TEST(Protocol, SpecQuotesTheImplementationConstants) {
  const std::string doc = read_protocol_doc();
  ASSERT_FALSE(doc.empty()) << "docs/serve-protocol.md missing";
  EXPECT_NE(doc.find(hex_byte(kMagic0)), std::string::npos);  // 0x52
  EXPECT_NE(doc.find(hex_byte(kMagic1)), std::string::npos);  // 0x58
  EXPECT_NE(doc.find(hex_byte(kProtocolVersion)), std::string::npos);
  EXPECT_NE(doc.find(std::to_string(kMaxPayloadBytes)), std::string::npos);
  EXPECT_NE(doc.find("little-endian"), std::string::npos);
  EXPECT_NE(doc.find("0x01"), std::string::npos);  // request kind
  EXPECT_NE(doc.find("0x02"), std::string::npos);  // response kind
  EXPECT_NE(doc.find("0x03"), std::string::npos);  // error kind
  EXPECT_NE(doc.find("status <code> <label>"), std::string::npos);
  EXPECT_NE(doc.find("out <n>"), std::string::npos);
  EXPECT_NE(doc.find("err <m>"), std::string::npos);
  for (int code = 0; code <= 7; ++code)
    EXPECT_NE(doc.find(std::string("`") + status_label(code) + "`"),
              std::string::npos)
        << "label missing from spec: " << status_label(code);
}

TEST(Admission, OverflowRejectsImmediately) {
  AdmissionQueue q(/*max_active=*/1, /*max_queued=*/0);
  run::CancelToken shutdown;
  EXPECT_EQ(q.enter(shutdown), AdmissionQueue::Admission::kAdmitted);
  EXPECT_EQ(q.enter(shutdown), AdmissionQueue::Admission::kOverloaded);
  q.leave();
  EXPECT_EQ(q.enter(shutdown), AdmissionQueue::Admission::kAdmitted);
  q.leave();
  const AdmissionQueue::Stats s = q.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.active, 0);
}

TEST(Admission, ShutdownCancelsAQueuedWaiter) {
  AdmissionQueue q(/*max_active=*/1, /*max_queued=*/4);
  run::CancelToken shutdown;
  EXPECT_EQ(q.enter(shutdown), AdmissionQueue::Admission::kAdmitted);
  shutdown.request();
  EXPECT_EQ(q.enter(shutdown), AdmissionQueue::Admission::kCancelled);
  q.leave();
}

TEST(Admission, BoundsAreValidated) {
  EXPECT_THROW(AdmissionQueue(0, 4), diag::UsageError);
  EXPECT_THROW(AdmissionQueue(1, -1), diag::UsageError);
}

TEST(ServeFlags, RealFlagsRefuseNanInfinityAndOutOfRange) {
  // Each value would reach a size, budget or millisecond conversion; the
  // daemon refuses it as a usage error before it binds or opens anything.
  const testing::ScratchDir scratch("rlcx_serve_real_flags");
  const std::string cache = scratch.file("cache");
  const std::uint64_t limit = res::Budget::global().limit();
  for (const char* v : {"nan", "inf", "1e30", "-1"})
    for (const char* flag : {"--max-table-mib", "--mem-budget",
                             "--request-deadline-s", "--idle-timeout-s"}) {
      std::ostringstream out, err;
      const int code = serve_main(
          {"serve", "--table-cache", cache, "--stdio", flag, v}, out, err);
      EXPECT_EQ(code, 2) << flag << " " << v << ": " << err.str();
      EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
    }
  EXPECT_EQ(res::Budget::global().limit(), limit);
  EXPECT_FALSE(std::filesystem::exists(cache));
}

// ---------------------------------------------------------------------
// Full request path through Server::handle_connection over an in-memory
// transport (the same bytes a socket would carry).

using testing::ScratchDir;

std::vector<std::string> extract_argv() {
  // A signals-only bus: planes kNone, no grounds, so the request is a
  // pure table lookup once the store is warm.
  return {"extract",  "--structure", "cpw",      "--length-um", "6000",
          "--traces", "s:10,s:5",    "--spacings", "2"};
}

ServeConfig test_config(const ScratchDir& dir) {
  ServeConfig cfg;
  cfg.cache_dir = dir.file("cache");
  cfg.max_tables = 4;
  cfg.max_active = 2;
  cfg.queue_depth = 4;
  return cfg;
}

/// Feeds `frames` to a fresh connection, returns the reply frames.
std::vector<Frame> drive(Server& server, const std::string& frames) {
  MemoryStream stream(frames);
  server.handle_connection(stream);
  MemoryStream replies(stream.output());
  std::vector<Frame> out;
  Frame f;
  while (read_frame(replies, &f)) out.push_back(f);
  return out;
}

std::string from_structure_line(const std::string& text) {
  const std::size_t at = text.find("structure:");
  EXPECT_NE(at, std::string::npos) << text;
  return at == std::string::npos ? text : text.substr(at);
}

TEST(ServeFlow, WarmResultIsBitIdenticalToColdCli) {
  const ScratchDir dir("rlcx_serve");
  const ServeConfig cfg = test_config(dir);

  // Cold: the one-shot CLI path through the on-disk cache.
  std::vector<std::string> cold_argv = extract_argv();
  cold_argv.push_back("--table-cache");
  cold_argv.push_back(cfg.cache_dir);
  std::ostringstream cold_out, cold_err;
  ASSERT_EQ(cli::run(cold_argv, cold_out, cold_err), 0) << cold_err.str();

  std::ostringstream diag;
  Server server(cfg, diag);
  const std::string request =
      encode_frame(FrameKind::kRequest, join_request(extract_argv()));
  const std::vector<Frame> replies = drive(server, request + request);

  ASSERT_EQ(replies.size(), 2u);
  for (const Frame& f : replies) {
    EXPECT_EQ(f.kind, FrameKind::kResponse);
    const Response r = parse_response(f.payload);
    EXPECT_EQ(r.status, 0) << r.err;
    // Byte-for-byte identical from the first report line on (the
    // provenance line above it names the table's source: on-disk cache
    // cold, warm store here).
    EXPECT_EQ(from_structure_line(r.out),
              from_structure_line(cold_out.str()));
  }
  // First request missed the warm store (served from the on-disk cache
  // with zero solves), the second hit it.
  const Response first = parse_response(replies[0].payload);
  const Response second = parse_response(replies[1].payload);
  EXPECT_NE(first.out.find("table store: warm miss"), std::string::npos);
  EXPECT_NE(first.out.find("0 field solves"), std::string::npos);
  EXPECT_NE(second.out.find("table store: warm hit"), std::string::npos);
}

TEST(ServeFlow, MalformedPayloadGetsErrorFrameAndConnectionSurvives) {
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  const std::vector<Frame> replies =
      drive(server, encode_frame(FrameKind::kRequest, "") +
                        encode_frame(FrameKind::kRequest, "ping"));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, FrameKind::kError);
  const Response bad = parse_response(replies[0].payload);
  EXPECT_EQ(bad.status, 2);
  EXPECT_EQ(bad.label, "usage");
  // The connection survived: the next request was answered normally.
  EXPECT_EQ(replies[1].kind, FrameKind::kResponse);
  EXPECT_EQ(parse_response(replies[1].payload).out, "pong\n");
}

TEST(ServeFlow, LostSyncClosesConnectionAfterErrorFrame) {
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  // Bad magic, then a well-formed ping that must NOT be answered: the
  // stream is out of sync and the connection closes.
  const std::vector<Frame> replies =
      drive(server, "XXXXXXXX" + encode_frame(FrameKind::kRequest, "ping"));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, FrameKind::kError);
  EXPECT_EQ(parse_response(replies[0].payload).status, 3);  // io
}

TEST(ServeFlow, DisallowedCommandsStayOffTheWire) {
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  for (const char* cmd : {"batch", "tables", "cache", "serve", "query"}) {
    const std::vector<Frame> replies =
        drive(server, encode_frame(FrameKind::kRequest, cmd));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].kind, FrameKind::kError);
    const Response r = parse_response(replies[0].payload);
    EXPECT_EQ(r.status, 2) << cmd;
    EXPECT_NE(r.err.find("not allowed over the wire"), std::string::npos);
  }
}

TEST(ServeFlow, ExpiredRequestDeadlineReturnsStatusFive) {
  const ScratchDir dir("rlcx_serve");
  ServeConfig cfg = test_config(dir);
  cfg.request_deadline_s = 1e-6;  // expired before the first checkpoint
  std::ostringstream diag;
  Server server(cfg, diag);
  // A cold extract must characterise tables — work with checkpoints —
  // so the expired deadline unwinds it.
  const std::vector<Frame> replies = drive(
      server, encode_frame(FrameKind::kRequest, join_request(extract_argv())));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, FrameKind::kResponse);  // executed, then unwound
  const Response r = parse_response(replies[0].payload);
  EXPECT_EQ(r.status, 5);
  EXPECT_EQ(r.label, "cancelled");
  EXPECT_NE(r.err.find("deadline"), std::string::npos) << r.err;
}

TEST(ServeFlow, AdmissionOverflowReturnsStatusSix) {
  const ScratchDir dir("rlcx_serve");
  ServeConfig cfg = test_config(dir);
  cfg.max_active = 1;
  cfg.queue_depth = 0;
  std::ostringstream diag;
  Server server(cfg, diag);
  // Occupy the single execution slot, then request work.
  ASSERT_EQ(server.admission().enter(server.shutdown_token()),
            AdmissionQueue::Admission::kAdmitted);
  const std::string request =
      encode_frame(FrameKind::kRequest, join_request(extract_argv()));
  {
    const std::vector<Frame> replies = drive(server, request);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].kind, FrameKind::kError);
    const Response r = parse_response(replies[0].payload);
    EXPECT_EQ(r.status, 6);
    EXPECT_EQ(r.label, "overloaded");
    EXPECT_NE(r.err.find("[overloaded]"), std::string::npos);
  }
  server.admission().leave();
  const std::vector<Frame> replies = drive(server, request);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(parse_response(replies[0].payload).status, 0);
}

TEST(ServeFlow, ShutdownRequestDrainsTheConnection) {
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  const std::vector<Frame> replies =
      drive(server, encode_frame(FrameKind::kRequest, "ping") +
                        encode_frame(FrameKind::kRequest, "shutdown") +
                        encode_frame(FrameKind::kRequest, "ping"));
  // The third request is never answered: shutdown drains the loop.
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(parse_response(replies[1].payload).out, "draining\n");
  EXPECT_TRUE(server.shutdown_token().requested());
}

TEST(ServeFlow, EveryRequestIsJournaled) {
  const ScratchDir dir("rlcx_serve");
  const ServeConfig cfg = test_config(dir);
  {
    std::ostringstream diag;
    Server server(cfg, diag);
    drive(server, encode_frame(FrameKind::kRequest, "ping") +
                      encode_frame(FrameKind::kRequest, "batch"));
  }
  const std::set<std::string> logged =
      run::BatchJournal::load(cfg.cache_dir + "/serve.journal");
  EXPECT_EQ(logged.count("r1-ping-x0"), 1u);
  EXPECT_EQ(logged.count("r2-batch-x2"), 1u);
}

TEST(ServeFlow, RequestLogKeepsEveryRestartsRequests) {
  // Request numbers restart at 1 in every daemon: a second daemon on the
  // same cache dir appends its r1 again rather than skipping it as seen.
  const ScratchDir dir("rlcx_serve");
  const ServeConfig cfg = test_config(dir);
  for (int life = 0; life < 2; ++life) {
    std::ostringstream diag;
    Server server(cfg, diag);
    drive(server, encode_frame(FrameKind::kRequest, "ping"));
  }
  std::ifstream is(cfg.cache_dir + "/serve.journal");
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"rlcx-journal 1",
                                             "done r1-ping-x0",
                                             "done r1-ping-x0"}));
}

TEST(ServeFlow, StatsReportWarmStoreAndAdmissionCounters) {
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  const std::vector<Frame> replies = drive(
      server, encode_frame(FrameKind::kRequest,
                           join_request(extract_argv())) +
                  encode_frame(FrameKind::kRequest,
                               join_request(extract_argv())) +
                  encode_frame(FrameKind::kRequest, "stats"));
  ASSERT_EQ(replies.size(), 3u);
  const Response stats = parse_response(replies[2].payload);
  EXPECT_NE(stats.out.find("warm store: 1 hits, 1 misses"),
            std::string::npos)
      << stats.out;
  EXPECT_NE(stats.out.find("requests: 2 served"), std::string::npos);
  EXPECT_NE(stats.out.find("table cache "), std::string::npos);
}

TEST(ServeFlow, StatsPrintOneMemoryBudgetLineAfterARefusal) {
  // The daemon-wide budget, as `rlcx serve --mem-budget 64` sets it.
  const std::uint64_t saved_limit = res::Budget::global().limit();
  res::Budget::global().set_limit(std::uint64_t{64} << 20);
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  std::vector<std::string> oversized = extract_argv();
  oversized.push_back("--points");
  oversized.push_back("64");
  const std::vector<Frame> replies = drive(
      server,
      encode_frame(FrameKind::kRequest, join_request(oversized)) +
          encode_frame(FrameKind::kRequest, "stats"));
  res::Budget::global().set_limit(saved_limit);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(parse_response(replies[0].payload).status, 7);
  const Response stats = parse_response(replies[1].payload);
  std::istringstream lines(stats.out);
  int budget_lines = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("memory budget:", 0) == 0) ++budget_lines;
  EXPECT_EQ(budget_lines, 1) << stats.out;
}

// ------------------------------------------------- hostile-client defense

TEST(ServeHardening, PeerGoneBeforeReplyDoesNotKillTheDaemon) {
  // The SIGPIPE regression: a client that sends a request and closes
  // without reading the reply makes the daemon's reply write hit a dead
  // socket.  Without MSG_NOSIGNAL that raises SIGPIPE and kills this whole
  // test binary — surviving to the assertions below IS the test.
  const ScratchDir dir("rlcx_serve");
  std::ostringstream diag;
  Server server(test_config(dir), diag);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string request = encode_frame(FrameKind::kRequest, "ping");
  ASSERT_EQ(::write(fds[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(fds[1]);  // peer gone before the reply is written
  FdStream stream(fds[0], fds[0]);
  server.handle_connection(stream);  // EPIPE inside, absorbed and counted
  ::close(fds[0]);

  // The daemon still serves, and the drop is visible in the stats.
  const std::vector<Frame> replies =
      drive(server, encode_frame(FrameKind::kRequest, "stats"));
  ASSERT_EQ(replies.size(), 1u);
  const Response stats = parse_response(replies[0].payload);
  EXPECT_EQ(stats.status, 0);
  EXPECT_NE(stats.out.find("1 peer disconnects"), std::string::npos)
      << stats.out;
}

TEST(ServeHardening, SlowLorisConnectionIsDroppedWithTypedGoodbye) {
  const ScratchDir dir("rlcx_serve");
  ServeConfig cfg = test_config(dir);
  cfg.idle_timeout_s = 0.2;
  std::ostringstream diag;
  Server server(cfg, diag);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread connection([&] {
    FdStream stream(fds[0], fds[0]);
    server.handle_connection(stream);
  });
  // Send nothing: the idle deadline must fire, emit a status-3 goodbye
  // frame, and close — not pin the connection thread forever.
  FdStream client(fds[1], fds[1]);
  Frame goodbye;
  ASSERT_TRUE(read_frame(client, &goodbye));
  connection.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(goodbye.kind, FrameKind::kError);
  const Response r = parse_response(goodbye.payload);
  EXPECT_EQ(r.status, 3);
  EXPECT_NE(r.err.find("idle"), std::string::npos) << r.err;

  const std::vector<Frame> replies =
      drive(server, encode_frame(FrameKind::kRequest, "stats"));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_NE(parse_response(replies[0].payload)
                .out.find("1 idle disconnects"),
            std::string::npos);
}

TEST(ServeHardening, HealthAnswersWithoutAnAdmissionSlot) {
  const ScratchDir dir("rlcx_serve");
  ServeConfig cfg = test_config(dir);
  cfg.max_active = 1;
  cfg.queue_depth = 0;
  std::ostringstream diag;
  Server server(cfg, diag);
  // Saturate admission: real work is rejected with status 6...
  ASSERT_EQ(server.admission().enter(server.shutdown_token()),
            AdmissionQueue::Admission::kAdmitted);
  {
    const std::vector<Frame> replies = drive(
        server, encode_frame(FrameKind::kRequest,
                             join_request(extract_argv())));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(parse_response(replies[0].payload).status, 6);
  }
  // ...but health still answers — it is the probe an operator uses to
  // tell "overloaded" from "dead", so it must not queue behind the load.
  const std::vector<Frame> replies =
      drive(server, encode_frame(FrameKind::kRequest, "health"));
  ASSERT_EQ(replies.size(), 1u);
  const Response health = parse_response(replies[0].payload);
  EXPECT_EQ(health.status, 0);
  EXPECT_EQ(health.out.substr(0, 8), "healthy\n") << health.out;
  EXPECT_NE(health.out.find("uptime-s "), std::string::npos);
  EXPECT_NE(health.out.find("active 1\n"), std::string::npos)
      << health.out;
  server.admission().leave();
}

TEST(ServeHardening, TransientAcceptFailureBacksOffAndRecovers) {
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } reset;
  const ScratchDir dir("rlcx_serve");
  ServeConfig cfg = test_config(dir);
  cfg.socket_path = dir.file("s.sock");
  std::ostringstream diag;
  Server server(cfg, diag);
  // The first accept() reports EMFILE (injected): the loop must back off
  // and keep listening instead of dying — the next client connects fine.
  run::FaultInjector::global().set_schedule("accept_emfile:1");
  std::thread daemon([&] { server.run_socket(); });
  for (int i = 0; i < 500 && !std::filesystem::exists(cfg.socket_path);
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(cfg.socket_path));
  {
    Client client(cfg.socket_path);
    EXPECT_EQ(client.request({"ping"}).status, 0);
    const Response stats = client.request({"stats"});
    EXPECT_NE(stats.out.find("1 accept retries"), std::string::npos)
        << stats.out;
    client.request({"shutdown"});
  }
  daemon.join();
}

TEST(ServeHardening, DrainJoinsAConnectionStillOpenAtShutdown) {
  // A connection thread's last act is to take the daemon's thread-list
  // mutex and announce itself finished.  Client `open` keeps its
  // connection idle past the `shutdown`; when the accept loop sees the
  // shutdown first (both poll in 100 ms slices), it drains while that
  // connection thread has yet to finish, and must join it without holding
  // the mutex it needs.  Which poll wakes first varies, so several daemons
  // with staggered request times make the race all but certain.
  for (int cycle = 0; cycle < 8; ++cycle) {
    const ScratchDir dir("rlcx_serve");
    ServeConfig cfg = test_config(dir);
    cfg.socket_path = dir.file("s.sock");
    std::ostringstream diag;
    Server server(cfg, diag);
    std::promise<void> drained;
    std::future<void> done = drained.get_future();
    std::thread daemon([&] {
      server.run_socket();
      drained.set_value();
    });
    for (int i = 0; i < 500 && !std::filesystem::exists(cfg.socket_path);
         ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(std::filesystem::exists(cfg.socket_path));
    Client open(cfg.socket_path);
    {
      Client closer(cfg.socket_path);
      std::this_thread::sleep_for(std::chrono::milliseconds(20 + 10 * cycle));
      EXPECT_EQ(open.request({"ping"}).status, 0);
      closer.request({"shutdown"});
    }
    if (done.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      // Deadlocked: the daemon thread can be neither joined nor abandoned.
      ADD_FAILURE() << "run_socket did not drain within 10 s";
      std::abort();
    }
    daemon.join();
  }
}

}  // namespace
}  // namespace rlcx::serve
