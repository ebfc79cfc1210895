// Command-line front end: extract / tables / delay as one-shot commands.
//
// The logic lives in run() so tests can drive it with argument vectors and
// captured streams; src/cli/main.cpp is a thin shell around it.  The same
// entry point backs the `rlcx serve` daemon: the server turns each framed
// request into an argument vector and drives run() with a ProviderSource
// that serves inductance tables from its warm in-memory store, so daemon
// responses are formatted by exactly the code path the one-shot CLI uses.
#pragma once

#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/inductance_model.h"
#include "core/table_builder.h"
#include "geom/block.h"
#include "solver/options.h"

namespace rlcx::cli {

/// Parsed command line: a command word plus --key value pairs.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_num(const std::string& key, double fallback) const;
  /// A real flag in [lo, hi], checked before any cast: NaN, an infinity or
  /// an out-of-range value is a usage error.
  double get_num(const std::string& key, double fallback, double lo,
                 double hi) const;
  /// An integer flag in [lo, hi], checked before the cast: a fraction, NaN
  /// or out-of-range value is a usage error, never a truncation or an
  /// undefined conversion.
  int get_int(const std::string& key, int fallback, int lo,
              int hi = std::numeric_limits<int>::max()) const;
};

/// Upper bounds of the real-valued resource flags (--mem-budget,
/// --max-table-mib; --deadline-s, --request-deadline-s, --idle-timeout-s):
/// far beyond any machine or run, and small enough that the byte and
/// millisecond conversions they feed stay in range.
inline constexpr double kMaxFlagMib = 1e9;      // ~1 PB
inline constexpr double kMaxFlagSeconds = 1e6;  // ~11.6 days

/// Parse ["extract", "--length-um", "6000", ...]; throws
/// std::invalid_argument on malformed input (flag without value, unknown
/// shape).
Args parse_args(const std::vector<std::string>& argv);

/// Estimated resident bytes of executing `argv`: for extract/delay, the
/// impedance-solver estimate of the request's block
/// (solver::estimate_extract_bytes) plus the characterisation grid the
/// table path would build (core::estimate_grid_bytes); 0 for other
/// commands and for argv that fails to parse (the request is admitted and
/// run() reports the error through the normal typed path).  Feeds the
/// serve daemon's cost-based admission (docs/robustness.md "Resource
/// governance"): a request whose estimate exceeds the memory budget gets
/// a typed status-7 refusal before a slot is granted.
std::size_t estimate_request_bytes(const std::vector<std::string>& argv);

/// Everything that determines which inductance tables a command needs —
/// the same tuple that content-addresses a table-cache entry
/// (core::TableCache::key_text).
struct ProviderRequest {
  const geom::Technology* tech = nullptr;
  int layer = 0;
  geom::PlaneConfig planes = geom::PlaneConfig::kNone;
  core::TableGrid grid;
  solver::SolveOptions options;
  core::ExtrapolationPolicy extrapolation = core::ExtrapolationPolicy::kWarn;
};

/// Hook for an embedding service: supplies ready inductance providers so
/// per-invocation cache opens and table deserialisation are skipped.  The
/// `rlcx serve` daemon implements this over its LRU-bounded warm table
/// store; when run() receives a source, extract/delay resolve their
/// tables through it instead of the --table-cache/direct-solver path.
/// provider() may write a one-line provenance note to `out` (the warm
/// analogue of the cold path's "table cache ..." line).
class ProviderSource {
 public:
  virtual ~ProviderSource() = default;
  virtual std::shared_ptr<const core::InductanceProvider> provider(
      const ProviderRequest& request, std::ostream& out) = 0;
};

/// The engine report of a build or of a process: the kernel-memo,
/// batch-engine and impedance-solver lines, each printed only when its
/// counters are non-zero.  extract/delay/tables/batch pass the build's
/// BuildStats; the serve daemon's `stats` passes the process totals
/// (core::engine_counters()).
void print_engine_report(const core::BuildStats& stats, std::ostream& out);

/// Execute.  Returns a process exit code; normal output goes to `out`,
/// diagnostics (errors and the library's warnings channel) to `err`.
///
/// Exit-code contract (stable; scripts may rely on it):
///   0  success
///   1  internal/uncategorized error
///   2  usage error (bad flags, unknown command/structure)
///   3  invalid input (geometry, file I/O, cache corruption under --strict)
///   4  numerical failure (singular system, diverging transient,
///      out-of-grid lookup under --extrapolation throw)
///   5  cancelled (SIGINT) or --deadline-s exceeded — the run unwound at a
///      safe boundary; `batch` campaigns resume with --resume
///   6  overloaded — an admission-controlled service (`rlcx serve`)
///      rejected the request because its queue was full; back off & retry
/// --strict escalates any warning to the exit code of its category;
/// --lenient (the default) reports warnings on `err` and exits 0.
///
/// Commands:
///   help
///   extract --structure cpw|microstrip|stripline --length-um N
///           [--signal-um N --ground-um N --spacing-um N --layer N
///            --trise-ps N --spice FILE --ac-resistance]
///           [--traces g:W,s:W,... --spacings S,S,...]  (custom bus, um)
///   tables  --planes none|below|above|both --out FILE
///           [--layer N --trise-ps N --points N]  (FILE is an RLXB bundle,
///           byte-identical to the --table-cache entry of the same class)
///   batch   --table-cache DIR [--layers 5,6 --planes-list none,below
///            --points N --journal FILE --resume [FILE] --deadline-s N]
///   delay   (extract flags) [--rs N --sink-ff N --vdd N --sections N
///            --no-inductance --csv FILE]
/// (`serve` and `query` are dispatched by main.cpp to the rlcx_serve
/// library before run() is reached; see docs/serve-protocol.md.)
///
/// `warm`, when non-null, supplies inductance providers for extract/delay
/// from an embedding service's warm store (see ProviderSource).  When an
/// ambient run::ScopedRunControl is already installed, run() chains onto
/// it: the nested control shares its cancellation token and inherits its
/// deadline (tightened further by --deadline-s), so a server's shutdown
/// signal reaches in-flight requests.
int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err, ProviderSource* warm = nullptr);

}  // namespace rlcx::cli
