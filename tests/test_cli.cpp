// Tests for the command-line front end (driven through run()).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "cli/cli.h"
#include "run/fault_injection.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/scratch_dir.h"

namespace rlcx::cli {
namespace {

struct Result {
  int code;
  std::string out;
  std::string err;
};

Result drive(const std::vector<std::string>& argv) {
  std::ostringstream out, err;
  const int code = run(argv, out, err);
  return {code, out.str(), err.str()};
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(CliParse, CommandAndFlags) {
  const Args a = parse_args({"extract", "--length-um", "6000",
                             "--ac-resistance", "--structure", "cpw"});
  EXPECT_EQ(a.command, "extract");
  EXPECT_EQ(a.get("length-um", ""), "6000");
  EXPECT_TRUE(a.has("ac-resistance"));
  EXPECT_EQ(a.get("structure", ""), "cpw");
  EXPECT_DOUBLE_EQ(a.get_num("length-um", 0.0), 6000.0);
  EXPECT_DOUBLE_EQ(a.get_num("missing", 42.0), 42.0);
}

TEST(CliParse, Malformed) {
  EXPECT_THROW(parse_args({"extract", "oops"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"extract", "--"}), std::invalid_argument);
  const Args bad = parse_args({"delay", "--rs", "abc"});
  EXPECT_THROW(bad.get_num("rs", 0.0), std::invalid_argument);
}

TEST(Cli, HelpAndUnknownCommand) {
  const Result h = drive({"help"});
  EXPECT_EQ(h.code, 0);
  EXPECT_NE(h.out.find("extract"), std::string::npos);
  const Result empty = drive({});
  EXPECT_EQ(empty.code, 0);
  const Result bad = drive({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ExtractCpwReportsRlc) {
  const Result r = drive({"extract", "--structure", "cpw", "--length-um",
                          "1000", "--signal-um", "10", "--ground-um", "5",
                          "--spacing-um", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace sig"), std::string::npos);
  EXPECT_NE(r.out.find("mutual L"), std::string::npos);
  EXPECT_NE(r.out.find("coupling C"), std::string::npos);
  // R of 10 um x 2 um x 1000 um copper: 1 ohm.
  EXPECT_NE(r.out.find("R = 1 ohm"), std::string::npos);
}

TEST(Cli, ExtractMicrostripUsesLoopTables) {
  const Result r = drive({"extract", "--structure", "microstrip",
                          "--length-um", "500"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("planes below"), std::string::npos);
}

TEST(Cli, ExtractRejectsBadStructure) {
  const Result r = drive({"extract", "--structure", "coax"});
  EXPECT_EQ(r.code, 2);  // usage error per the exit-code contract
  EXPECT_NE(r.err.find("unknown structure"), std::string::npos);
}

TEST(Cli, ExtractWritesSpiceDeck) {
  const testing::ScratchDir scratch("rlcx_cli");
  const std::string path = scratch.file("test.sp");
  const Result r = drive({"extract", "--length-um", "500", "--spice", path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream deck;
  deck << f.rdbuf();
  EXPECT_NE(deck.str().find(".END"), std::string::npos);
  EXPECT_NE(deck.str().find("K1 "), std::string::npos);
}

TEST(Cli, DelayRcVsRlcOrdering) {
  const std::vector<std::string> base{
      "delay", "--structure", "cpw", "--length-um", "4000", "--trise-ps",
      "200", "--rs", "25", "--sections", "6"};
  const Result rlc = drive(base);
  ASSERT_EQ(rlc.code, 0) << rlc.err;
  std::vector<std::string> rc_args = base;
  rc_args.push_back("--no-inductance");
  const Result rc = drive(rc_args);
  ASSERT_EQ(rc.code, 0) << rc.err;
  EXPECT_NE(rlc.out.find("RLC"), std::string::npos);
  EXPECT_NE(rc.out.find("RC-only"), std::string::npos);

  auto delay_of = [](const std::string& s) {
    const auto pos = s.find("delay: ");
    return std::stod(s.substr(pos + 7));
  };
  EXPECT_GT(delay_of(rlc.out), delay_of(rc.out));
}

TEST(Cli, DelayWritesCsv) {
  const testing::ScratchDir scratch("rlcx_cli");
  const std::string path = scratch.file("wave.csv");
  const Result r = drive({"delay", "--length-um", "500", "--csv", path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "time,buf,sink");
}

TEST(Cli, DelayCsvMarchesInFullAndPrintsTheSameMeasures) {
  // Without --csv the transient stops once its measures are certified;
  // with it, the whole waveform to t_stop = 10 t_r + 1 ns is written.  The
  // printed delay and overshoot lines agree either way.
  const testing::ScratchDir scratch("rlcx_cli");
  const std::string path = scratch.file("wave.csv");
  const std::vector<std::string> base{"delay", "--length-um", "3000",
                                      "--trise-ps", "100"};
  const Result stopped = drive(base);
  ASSERT_EQ(stopped.code, 0) << stopped.err;
  std::vector<std::string> with_csv = base;
  with_csv.insert(with_csv.end(), {"--csv", path});
  const Result full = drive(with_csv);
  ASSERT_EQ(full.code, 0) << full.err;
  EXPECT_EQ(full.out.substr(0, stopped.out.size()), stopped.out);

  std::ifstream f(path);
  std::string line;
  std::size_t rows = 0;
  std::getline(f, line);  // header
  while (std::getline(f, line)) ++rows;
  const double tr = 100e-12;
  EXPECT_EQ(rows, static_cast<std::size_t>(
                      std::ceil((10.0 * tr + 1e-9) / (tr / 200.0))) + 1);
}

TEST(Cli, ExtractCustomTraces) {
  const Result r = drive({"extract", "--traces", "g:6,s:3,s:3,g:6",
                          "--spacings", "1,1.5,1", "--length-um", "800"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace s1"), std::string::npos);
  EXPECT_NE(r.out.find("trace s2"), std::string::npos);
  EXPECT_NE(r.out.find("mutual L(s1,s2)"), std::string::npos);
}

TEST(Cli, ExtractCustomTracesValidation) {
  const Result bad = drive({"extract", "--traces", "x:6,s:3"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("bad --traces token"), std::string::npos);
  const Result bad2 = drive({"extract", "--traces", "g:6,s:3,g:6",
                             "--spacings", "1"});
  EXPECT_EQ(bad2.code, 2);
}

TEST(Cli, ExtractPrintsScreeningVerdict) {
  const Result r = drive({"extract", "--structure", "cpw", "--length-um",
                          "6000", "--signal-um", "10", "--ground-um", "5",
                          "--spacing-um", "1", "--trise-ps", "100"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("SIGNIFICANT"), std::string::npos);
  // A short resistive net screens as negligible.
  const Result r2 = drive({"extract", "--structure", "cpw", "--length-um",
                           "200", "--signal-um", "0.5", "--ground-um",
                           "0.5", "--spacing-um", "0.5", "--trise-ps",
                           "500"});
  EXPECT_EQ(r2.code, 0) << r2.err;
  EXPECT_NE(r2.out.find("negligible"), std::string::npos);
}

TEST(Cli, ExtractTracesTolerateWhitespace) {
  // Regression: split_commas() used to keep surrounding whitespace, so
  // quoted lists like "g:5, s:10" threw on the spaced token.
  const Result r = drive({"extract", "--traces", "g:5, s:10", "--spacings",
                          " 1 ", "--length-um", "500"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace s1"), std::string::npos);
}

TEST(Cli, ExtractTracesRejectEmptyItems) {
  const Result r = drive({"extract", "--traces", "g:5,,s:10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("empty item"), std::string::npos);
  const Result r2 = drive({"extract", "--traces", "g:5,s:10,"});
  EXPECT_EQ(r2.code, 2);
  EXPECT_NE(r2.err.find("empty item"), std::string::npos);
}

TEST(Cli, TableCacheColdWarmAndMaintenance) {
  const testing::ScratchDir scratch("rlcx_cli_cache");
  const std::string dir = scratch.file("cache");
  const std::string out_path = scratch.file("cached_tables.tbl");

  const std::vector<std::string> build{"tables", "--out", out_path,
                                       "--points", "2", "--table-cache",
                                       dir};
  const Result cold = drive(build);
  ASSERT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.out.find("cache miss"), std::string::npos);

  const Result warm = drive(build);
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("cache hit, 0 field solves"), std::string::npos);

  // The file `tables --out` writes is the cache entry, byte for byte.
  std::vector<std::string> entries;
  for (const auto& de : std::filesystem::directory_iterator(dir))
    if (de.path().extension() == ".tbl") entries.push_back(de.path());
  ASSERT_EQ(entries.size(), 1u);
  const std::string written = read_bytes(out_path);
  EXPECT_EQ(written.substr(0, 4), "RLXB");
  EXPECT_TRUE(written == read_bytes(entries[0]))
      << out_path << " differs from " << entries[0];

  // extract answers from the same cache entry (same tech/grid/frequency).
  const Result ext = drive({"extract", "--structure", "cpw", "--length-um",
                            "1000", "--points", "2", "--table-cache", dir});
  ASSERT_EQ(ext.code, 0) << ext.err;
  EXPECT_NE(ext.out.find("cache hit, 0 field solves"), std::string::npos);

  const Result stat = drive({"cache", "--dir", dir});
  ASSERT_EQ(stat.code, 0) << stat.err;
  EXPECT_NE(stat.out.find("1 entries"), std::string::npos);
  const Result list = drive({"cache", "--dir", dir, "--list"});
  ASSERT_EQ(list.code, 0) << list.err;
  EXPECT_NE(list.out.find("layer 6"), std::string::npos);
  const Result purge = drive({"cache", "--dir", dir, "--purge"});
  ASSERT_EQ(purge.code, 0) << purge.err;
  EXPECT_NE(purge.out.find("purged 1"), std::string::npos);
  const Result stat2 = drive({"cache", "--dir", dir});
  EXPECT_NE(stat2.out.find("0 entries"), std::string::npos);
}

TEST(Cli, CacheCommandRequiresDir) {
  const Result r = drive({"cache"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--dir"), std::string::npos);
}

TEST(Cli, TablesRequireOutAndBuild) {
  const Result missing = drive({"tables"});
  EXPECT_EQ(missing.code, 2);
  const testing::ScratchDir scratch("rlcx_cli");
  const std::string path = scratch.file("tables.tbl");
  const Result r = drive({"tables", "--out", path, "--points", "2",
                          "--planes", "none"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("saved to"), std::string::npos);
  EXPECT_EQ(read_bytes(path).substr(0, 4), "RLXB");
}

TEST(Cli, PointsMustBeAnIntegerFromTwo) {
  // Checked before the grid is built: a negative, NaN or huge count would
  // reach an undefined cast, and a fraction would build a smaller grid.
  for (const char* points : {"-3", "nan", "2.5", "1", "1e30"}) {
    const Result r =
        drive({"tables", "--out", "/dev/null", "--points", points});
    EXPECT_EQ(r.code, 2) << "--points " << points << ": " << r.err;
    EXPECT_NE(r.err.find("--points"), std::string::npos) << r.err;
  }
}

TEST(Cli, IntegerFlagsRefuseFractionsNanAndOutOfRange) {
  // Each value is refused as a usage error before the cast it would make
  // undefined or lossy, and before any pool, solve or daemon starts.
  const testing::ScratchDir scratch("rlcx_cli_int_flags");
  const std::string cache = scratch.file("cache");
  for (const char* v : {"-3", "nan", "2.5", "1e30", "1e400"}) {
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        cases = {
            {"--layer", {"extract", "--layer", v}},
            {"--layer", {"tables", "--out", "/dev/null", "--layer", v}},
            {"--sections", {"delay", "--sections", v}},
            {"--sections",
             {"extract", "--spice", "/dev/null", "--sections", v}},
            {"--threads", {"tables", "--out", "/dev/null", "--threads", v}},
        };
    for (const auto& [flag, argv] : cases) {
      const Result r = drive(argv);
      EXPECT_EQ(r.code, 2) << argv[0] << " " << flag << " " << v << ": "
                           << r.err;
      EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
      EXPECT_EQ(r.out, "") << "refused after work began: " << r.out;
    }
    for (const char* flag : {"--max-tables", "--max-active", "--queue-depth"}) {
      std::ostringstream out, err;
      const int code = serve::serve_main(
          {"serve", "--table-cache", cache, "--stdio", flag, v}, out, err);
      EXPECT_EQ(code, 2) << flag << " " << v << ": " << err.str();
      EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
    }
  }
  EXPECT_FALSE(std::filesystem::exists(cache));
}

TEST(Cli, RealFlagsRefuseNanInfinityAndOutOfRange) {
  // --mem-budget and --deadline-s feed a byte count and a clock duration:
  // NaN, an infinity, a negative or a huge value is a usage error before
  // the conversion it would make undefined, and before any work.
  for (const char* v : {"nan", "inf", "-inf", "1e30", "-1"}) {
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        cases = {
            {"--mem-budget",
             {"delay", "--length-um", "200", "--mem-budget", v}},
            {"--deadline-s",
             {"extract", "--structure", "cpw", "--deadline-s", v}},
        };
    for (const auto& [flag, argv] : cases) {
      const Result r = drive(argv);
      EXPECT_EQ(r.code, 2) << flag << " " << v << ": " << r.err;
      EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
      EXPECT_EQ(r.out, "") << "refused after work began: " << r.out;
    }
  }
}

TEST(Cli, ListFlagEntriesRefuseWhatTheScalarFlagsRefuse) {
  // Every entry of --layers, --traces and --spacings goes through the
  // scalar flags' checked conversion: exit 2 naming the flag and the
  // token, before any work.  --layers entries take --layer's range.
  const testing::ScratchDir scratch("rlcx_cli_list_flags");
  const std::string cache = scratch.file("cache");
  const std::vector<std::tuple<std::string, std::string,
                               std::vector<std::string>>>
      cases = {
          {"--layers", "99999999999",
           {"batch", "--table-cache", cache, "--layers", "99999999999"}},
          {"--layers", "abc",
           {"batch", "--table-cache", cache, "--layers", "6,abc"}},
          {"--layers", "0", {"batch", "--table-cache", cache, "--layers", "0"}},
          {"--layers", "2.5",
           {"batch", "--table-cache", cache, "--layers", "2.5"}},
          {"--traces", "1e400",
           {"extract", "--traces", "g:1e400,s:5,g:5"}},
          {"--traces", "5x", {"extract", "--traces", "g:5,s:5x,g:5"}},
          {"--spacings", "1e400",
           {"extract", "--traces", "g:5,s:10,g:5", "--spacings",
            "1e400,1"}},
      };
  for (const auto& [flag, token, argv] : cases) {
    const Result r = drive(argv);
    EXPECT_EQ(r.code, 2) << flag << " " << token << ": " << r.err;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(token), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << "refused after work began: " << r.out;
  }
  EXPECT_FALSE(std::filesystem::exists(cache));
}

TEST(Cli, QueryFlagsRefuseNanHugeAndFractions) {
  // query's --retries feeds an int and a shift, its timeouts an int of
  // milliseconds: each is checked like cli::Args' flags and refused with
  // exit 2 before any connect (a socket that does not exist would exit 3).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--retries", "nan"},          {"--retries", "1e30"},
      {"--retries", "2.5"},          {"--retries", "-1"},
      {"--connect-timeout-s", "1e30"}, {"--connect-timeout-s", "inf"},
      {"--timeout-s", "nan"},        {"--timeout-s", "-1"},
      {"--backoff-ms", "inf"},       {"--backoff-ms", "nan"},
  };
  for (const auto& [flag, value] : cases) {
    std::ostringstream out, err;
    const int code = serve::query_main(
        {"query", flag, value, "--socket", "/nonexistent/rlcx.sock", "ping"},
        out, err);
    EXPECT_EQ(code, 2) << flag << " " << value << ": " << err.str();
    EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
  }
  // In-range values get past parsing and fail at the connect.
  std::ostringstream out, err;
  EXPECT_EQ(serve::query_main({"query", "--retries", "0", "--timeout-s", "1",
                               "--socket", "/nonexistent/rlcx.sock", "ping"},
                              out, err),
            3)
      << err.str();
}

// ---- Exit-code contract (see cli.h): 2 usage, 3 invalid input, 4 numeric.

TEST(CliExitCodes, ValidationFailureExitsThree) {
  // A zero-width trace is structurally invalid geometry, not a usage error:
  // the flags parse fine, the input they describe does not.
  const Result r = drive({"extract", "--traces", "s:0", "--length-um", "500"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.err.find("[geometry]"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("width"), std::string::npos) << r.err;
}

TEST(CliExitCodes, MutuallyExclusiveStrictLenient) {
  const Result r = drive({"extract", "--strict", "--lenient"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("mutually exclusive"), std::string::npos);
}

TEST(CliExitCodes, UnknownExtrapolationPolicyIsUsage) {
  const Result r = drive({"extract", "--extrapolation", "maybe"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--extrapolation"), std::string::npos);
}

TEST(CliExitCodes, ExtrapolationPolicyGovernsOutOfGridQueries) {
  const testing::ScratchDir scratch("rlcx_cli_extrap");
  const std::string dir = scratch.file("cache");

  // Characterise a tiny grid (widths 1..20 um), then ask for a 50 um trace.
  const std::vector<std::string> base{
      "extract", "--structure", "cpw",   "--length-um",   "1000",
      "--signal-um", "50",      "--points", "2", "--table-cache", dir};

  // Default (warn): succeeds, with a numeric warning on stderr.
  const Result warn = drive(base);
  EXPECT_EQ(warn.code, 0) << warn.err;
  EXPECT_NE(warn.err.find("warning: [numeric]"), std::string::npos)
      << warn.err;
  EXPECT_NE(warn.err.find("outside table"), std::string::npos) << warn.err;

  // --strict escalates that warning to the numeric exit code.
  std::vector<std::string> strict = base;
  strict.push_back("--strict");
  const Result esc = drive(strict);
  EXPECT_EQ(esc.code, 4) << esc.err;
  EXPECT_NE(esc.err.find("strict mode"), std::string::npos) << esc.err;

  // --extrapolation throw refuses outright with a numeric error naming the
  // table, even in the default lenient mode.
  std::vector<std::string> hard = base;
  hard.push_back("--extrapolation");
  hard.push_back("throw");
  const Result thrown = drive(hard);
  EXPECT_EQ(thrown.code, 4) << thrown.err;
  EXPECT_NE(thrown.err.find("[numeric]"), std::string::npos) << thrown.err;
  EXPECT_NE(thrown.err.find("mutual-L"), std::string::npos) << thrown.err;

  // --extrapolation clamp answers from the grid edge, silently.
  std::vector<std::string> clamp = base;
  clamp.push_back("--extrapolation");
  clamp.push_back("clamp");
  const Result clamped = drive(clamp);
  EXPECT_EQ(clamped.code, 0) << clamped.err;
  EXPECT_EQ(clamped.err.find("warning:"), std::string::npos) << clamped.err;
}

TEST(CliExitCodes, CorruptCacheRecoversByDefaultAndFailsUnderStrict) {
  const testing::ScratchDir scratch("rlcx_cli_corrupt");
  const std::string dir = scratch.file("cache");
  const std::vector<std::string> base{"extract",    "--structure", "cpw",
                                      "--length-um", "1000",       "--points",
                                      "2",          "--table-cache", dir};
  ASSERT_EQ(drive(base).code, 0);

  auto corrupt_entry = [&] {
    for (const auto& de : std::filesystem::directory_iterator(dir))
      if (de.path().extension() == ".tbl") {
        std::ofstream os(de.path(), std::ios::binary | std::ios::trunc);
        os << "RLXBgarbage";
      }
  };

  // Default policy: quarantined, warned, transparently re-characterised.
  corrupt_entry();
  const Result rec = drive(base);
  EXPECT_EQ(rec.code, 0) << rec.err;
  EXPECT_NE(rec.err.find("warning: [cache]"), std::string::npos) << rec.err;
  EXPECT_NE(rec.err.find("quarantined"), std::string::npos) << rec.err;
  EXPECT_NE(rec.out.find("quarantined and re-characterised"),
            std::string::npos)
      << rec.out;
  const Result stat = drive({"cache", "--dir", dir});
  EXPECT_NE(stat.out.find("1 quarantined"), std::string::npos) << stat.out;

  // Strict policy: the corrupt entry is a hard cache error (exit 3).
  corrupt_entry();
  std::vector<std::string> strict = base;
  strict.push_back("--strict");
  const Result hard = drive(strict);
  EXPECT_EQ(hard.code, 3) << hard.err;
  EXPECT_NE(hard.err.find("[cache]"), std::string::npos) << hard.err;
}

TEST(CliBatch, RequiresTableCache) {
  const Result r = drive({"batch"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--table-cache"), std::string::npos);
}

TEST(CliBatch, CampaignJournalGuardAndResume) {
  const testing::ScratchDir scratch("rlcx_cli_batch");
  const std::string dir = scratch.file("cache");
  const std::vector<std::string> base{"batch",     "--table-cache", dir,
                                      "--layers",  "6",             "--points",
                                      "2",         "--planes-list", "none"};

  const Result first = drive(base);
  ASSERT_EQ(first.code, 0) << first.err;
  EXPECT_NE(first.out.find("1 jobs"), std::string::npos) << first.out;
  EXPECT_NE(first.out.find("0 resumed from journal"), std::string::npos);
  EXPECT_NE(first.out.find("16 field solves"), std::string::npos);
  EXPECT_NE(first.out.find("1 completed ids"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/batch.journal"));

  // Re-running without --resume must not silently reuse the journal.
  const Result guarded = drive(base);
  EXPECT_EQ(guarded.code, 2) << guarded.err;
  EXPECT_NE(guarded.err.find("--resume"), std::string::npos) << guarded.err;

  // --resume: journaled job served from the cache, zero re-solves.
  std::vector<std::string> resume = base;
  resume.push_back("--resume");
  const Result resumed = drive(resume);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("1 resumed from journal, 0 field solves"),
            std::string::npos)
      << resumed.out;
}

TEST(CliBatch, CancelledCampaignExitsFiveAndResumes) {
  struct InjectorReset {
    ~InjectorReset() { run::FaultInjector::global().clear(); }
  } injector_reset;
  const testing::ScratchDir scratch("rlcx_cli_batch_cancel");
  const std::string dir = scratch.file("cache");
  const std::vector<std::string> base{"batch",     "--table-cache", dir,
                                      "--layers",  "6,4",           "--points",
                                      "2",         "--planes-list", "none"};

  // A reproducible SIGINT: cancellation at a mid-campaign checkpoint.
  run::FaultInjector::global().set_schedule("cancel:40");
  const Result killed = drive(base);
  EXPECT_EQ(killed.code, 5) << killed.err;
  EXPECT_NE(killed.err.find("[cancelled]"), std::string::npos) << killed.err;
  run::FaultInjector::global().clear();

  // The relaunch completes the campaign; journaled work is not re-done.
  std::vector<std::string> resume = base;
  resume.push_back("--resume");
  const Result resumed = drive(resume);
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("2 completed ids"), std::string::npos)
      << resumed.out;
}

TEST(CliBatch, ExpiredDeadlineExitsFive) {
  const testing::ScratchDir scratch("rlcx_cli_batch_dl");
  const std::string dir = scratch.file("cache");
  const Result r = drive({"batch", "--table-cache", dir, "--layers", "6",
                          "--points", "2", "--planes-list", "none",
                          "--deadline-s", "0"});
  EXPECT_EQ(r.code, 5) << r.err;
  EXPECT_NE(r.err.find("[deadline]"), std::string::npos) << r.err;
}

TEST(CliBatch, DeadlineAppliesToEveryCommand) {
  const Result r = drive({"extract", "--structure", "cpw", "--length-um",
                          "1000", "--deadline-s", "0"});
  EXPECT_EQ(r.code, 5) << r.err;
  EXPECT_NE(r.err.find("[deadline]"), std::string::npos) << r.err;
}

TEST(CliBatch, HelpDocumentsRunControl) {
  const Result h = drive({"help"});
  EXPECT_NE(h.out.find("batch"), std::string::npos);
  EXPECT_NE(h.out.find("--deadline-s"), std::string::npos);
  EXPECT_NE(h.out.find("5 cancelled"), std::string::npos);
}

}  // namespace
}  // namespace rlcx::cli
