#include "cli/cli.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "ckt/spice_export.h"
#include "diag/error.h"
#include "diag/warnings.h"
#include "ckt/transient.h"
#include "core/batch_extractor.h"
#include "core/netlist_builder.h"
#include "core/rlc_extractor.h"
#include "core/screening.h"
#include "core/table_builder.h"
#include "core/table_cache.h"
#include "geom/builders.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "res/budget.h"
#include "rt/pool.h"
#include "run/control.h"
#include "run/journal.h"
#include "run/signal.h"
#include "solver/block_solver.h"
#include "solver/frequency.h"

namespace rlcx::cli {

namespace {

using units::um;

geom::PlaneConfig parse_planes(const std::string& s) {
  if (s == "none") return geom::PlaneConfig::kNone;
  if (s == "below") return geom::PlaneConfig::kBelow;
  if (s == "above") return geom::PlaneConfig::kAbove;
  if (s == "both") return geom::PlaneConfig::kBothSides;
  throw diag::UsageError(
      "cli", "unknown plane config: " + s + " (none|below|above|both)");
}

core::ExtrapolationPolicy parse_extrapolation(const std::string& s) {
  if (s == "warn") return core::ExtrapolationPolicy::kWarn;
  if (s == "clamp") return core::ExtrapolationPolicy::kClamp;
  if (s == "throw") return core::ExtrapolationPolicy::kThrow;
  throw diag::UsageError(
      "cli", "unknown --extrapolation policy: " + s + " (warn|clamp|throw)");
}

/// --strict hardens the table cache too: corrupt entries fail loudly
/// instead of being quarantined and rebuilt.
core::CacheRecoveryPolicy cache_policy(const Args& args) {
  return args.has("strict") ? core::CacheRecoveryPolicy::kStrict
                            : core::CacheRecoveryPolicy::kRecover;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Splits on commas, trimming whitespace around each item (so
/// --traces "g:5, s:10" works) and rejecting empty ones.
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(trim(cur));
  for (const std::string& tok : out)
    if (tok.empty())
      throw diag::UsageError(
          "cli", "empty item in comma-separated list: \"" + s + "\"");
  return out;
}

// Custom structure: --traces "g:5,s:10,g:5" --spacings "1,1" (widths in um,
// g = dedicated ground/shield, s = signal).
geom::Block make_custom(const geom::Technology& tech, const Args& args,
                        int layer, double len, geom::PlaneConfig planes) {
  std::vector<geom::Trace> traces;
  std::vector<double> widths;
  for (const std::string& tok : split_commas(args.get("traces", ""))) {
    if (tok.size() < 3 || tok[1] != ':' || (tok[0] != 'g' && tok[0] != 's'))
      throw diag::UsageError("cli", "bad --traces token: " + tok +
                                        " (expected g:W or s:W)");
    geom::Trace t;
    t.role = tok[0] == 'g' ? geom::TraceRole::kGround
                           : geom::TraceRole::kSignal;
    t.width = um(std::stod(tok.substr(2)));
    t.name = std::string(1, tok[0]) + std::to_string(traces.size());
    traces.push_back(t);
    widths.push_back(t.width);
  }
  std::vector<double> spacings;
  if (args.has("spacings"))
    for (const std::string& tok : split_commas(args.get("spacings", "")))
      spacings.push_back(um(std::stod(tok)));
  else
    spacings.assign(traces.size() > 0 ? traces.size() - 1 : 0,
                    um(args.get_num("spacing-um", 1.0)));
  if (spacings.size() + 1 != traces.size())
    throw diag::UsageError("cli", "--spacings needs one fewer entry than "
                                  "--traces");
  double x = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) x += spacings[i - 1];
    traces[i].x_center = x + 0.5 * widths[i];
    x += widths[i];
  }
  return geom::Block(&tech, layer, len, std::move(traces), planes);
}

geom::Block make_structure(const geom::Technology& tech, const Args& args) {
  const std::string kind = args.get("structure", "cpw");
  const int layer = static_cast<int>(args.get_num("layer", 6));
  const double len = um(args.get_num("length-um", 1000.0));
  const double ws = um(args.get_num("signal-um", 10.0));
  const double wg = um(args.get_num("ground-um", 5.0));
  const double sp = um(args.get_num("spacing-um", 1.0));
  if (args.has("traces")) {
    geom::PlaneConfig planes = geom::PlaneConfig::kNone;
    if (kind == "microstrip") planes = geom::PlaneConfig::kBelow;
    if (kind == "stripline") planes = geom::PlaneConfig::kBothSides;
    return make_custom(tech, args, layer, len, planes);
  }
  if (kind == "cpw")
    return geom::coplanar_waveguide(tech, layer, len, ws, wg, sp);
  if (kind == "microstrip")
    return geom::microstrip(tech, layer, len, ws, wg, sp);
  if (kind == "stripline")
    return geom::stripline(tech, layer, len, ws, wg, sp);
  throw diag::UsageError(
      "cli", "unknown structure: " + kind + " (cpw|microstrip|stripline)");
}

solver::SolveOptions solve_options(const Args& args) {
  solver::SolveOptions opt;
  const double tr = args.get_num("trise-ps", 200.0) * 1e-12;
  opt.frequency = solver::significant_frequency(tr);
  return opt;
}

// The characterisation grid the `tables` command and the --table-cache
// paths share: --points samples per axis over the clock-wiring ranges.
core::TableGrid grid_from_args(const Args& args) {
  const auto n = static_cast<std::size_t>(args.get_num("points", 4));
  if (n < 2) throw diag::UsageError("cli", "--points must be >= 2");
  core::TableGrid grid;
  grid.widths = geomspace(um(1), um(20), n);
  grid.spacings = geomspace(um(0.5), um(10), n);
  grid.lengths = geomspace(um(100), um(6000), n);
  return grid;
}

/// The shared cache-stats report of every cache-backed command (extract /
/// tables / batch): one line of hit/miss + traffic counters — including
/// the store-retry counters PRs 4-5 added — and, when the build ran any
/// matrix fills, the kernel-memo hit rate.  The `rlcx serve` stats
/// request reports the same shape, so one runbook covers both paths.
void print_cache_stats(const core::TableCache& cache, std::size_t solves,
                       const core::BuildStats* build, std::ostream& out) {
  const core::CacheStats cs = cache.stats();
  out << "table cache " << cache.directory() << ": "
      << (cs.hits > 0 ? "cache hit" : "cache miss") << ", " << solves
      << " field solves, " << cs.bytes_read << " bytes read, "
      << cs.bytes_written << " bytes written";
  if (cs.write_retries > 0) out << ", " << cs.write_retries
                                << " write retries";
  if (cs.stores_dropped > 0) out << ", " << cs.stores_dropped
                                 << " stores dropped";
  if (cs.quarantined_at_startup > 0)
    out << ", " << cs.quarantined_at_startup << " quarantined at startup";
  if (cs.tmp_swept > 0)
    out << ", " << cs.tmp_swept << " staging files swept";
  if (cs.fsyncs > 0) out << ", " << cs.fsyncs << " fsyncs";
  out << "\n";
  if (build != nullptr && build->pair_lookups > 0)
    out << "kernel memo: " << build->memo_hits << "/"
        << build->pair_lookups << " pair lookups served ("
        << static_cast<int>(100.0 * build->memo_hit_rate() + 0.5)
        << "% hit rate, " << build->kernel_evals << " evaluations)\n";
  if (build != nullptr && build->batch_runs > 0)
    out << "batch engine: "
        << build->batch_volume_terms + build->batch_filament_terms
        << " kernel terms (" << build->batch_volume_terms << " volume, "
        << build->batch_filament_terms << " filament) in "
        << build->batch_runs << " batches, "
        << static_cast<std::uint64_t>(build->batch_terms_per_second() + 0.5)
        << " terms/s, simd " << peec::batch_simd_name() << "\n";
  if (build != nullptr && build->dense_solves > 0)
    out << "impedance solver: " << build->dense_solves
        << " dense solves, largest " << build->max_filaments
        << " filaments\n";
  if (build != nullptr && build->mem_refusals > 0)
    out << "memory budget: " << build->mem_refusals << " refusal"
        << (build->mem_refusals == 1 ? "" : "s") << " (budget "
        << build->mem_limit_bytes << " bytes, peak " << build->mem_peak_bytes
        << ")\n";
  if (cs.quarantined > 0)
    out << "table cache: " << cs.quarantined << " corrupt entr"
        << (cs.quarantined == 1 ? "y" : "ies")
        << " quarantined and re-characterised\n";
}

/// The inductance provider for extract/delay: the direct field solver by
/// default; with --table-cache DIR pre-characterised tables served
/// cache-first, with the hit/miss and solve counters reported on `out`;
/// with a warm ProviderSource (the serve daemon) the source's in-memory
/// store, skipping the per-invocation cache open entirely.
std::shared_ptr<const core::InductanceProvider> make_inductance_model(
    const Args& args, const geom::Technology& tech, const geom::Block& blk,
    const solver::SolveOptions& sopt, std::ostream& out,
    ProviderSource* warm) {
  // Validate the policy flag up front so a typo is a usage error even on
  // the direct-solver path, where it would otherwise never be read.
  const core::ExtrapolationPolicy extrapolation =
      parse_extrapolation(args.get("extrapolation", "warn"));
  if (warm != nullptr) {
    ProviderRequest req;
    req.tech = &tech;
    req.layer = blk.layer_index();
    req.planes = blk.planes();
    req.grid = grid_from_args(args);
    req.options = sopt;
    req.extrapolation = extrapolation;
    return warm->provider(req, out);
  }
  if (!args.has("table-cache"))
    return std::make_shared<core::DirectInductanceModel>(
        &tech, blk.layer_index(), blk.planes(), sopt);
  core::TableCache cache(args.get("table-cache", ""), cache_policy(args));
  const std::size_t solves_before = core::table_build_solve_count();
  core::BuildStats bstats;
  core::InductanceTables tables = core::build_tables_cached(
      blk.tech(), blk.layer_index(), blk.planes(), grid_from_args(args),
      sopt, cache, static_cast<int>(args.get_num("threads", 0)), &bstats);
  print_cache_stats(cache, core::table_build_solve_count() - solves_before,
                    &bstats, out);
  auto model =
      std::make_shared<core::TableInductanceModel>(std::move(tables));
  model->set_extrapolation_policy(extrapolation);
  return model;
}

int cmd_help(std::ostream& out) {
  out << "rlcx — clocktree RLC extraction (DATE 2000 reproduction)\n\n"
         "commands:\n"
         "  extract   extract R, L, C of a shielded wire structure\n"
         "  tables    pre-characterise inductance tables and save them\n"
         "  batch     characterisation campaign over layers x plane\n"
         "            configs, with checkpoint/resume\n"
         "  delay     simulate buffer->sink delay of the structure\n"
         "  cache     inspect or purge an on-disk table cache\n"
         "  serve     long-lived extraction daemon with a warm table\n"
         "            store (docs/serve-protocol.md)\n"
         "  query     send one request to a running daemon\n"
         "  help      this text\n\n"
         "common flags: --structure cpw|microstrip|stripline --layer N\n"
         "  --length-um N --signal-um N --ground-um N --spacing-um N\n"
         "  --trise-ps N (sets the significant frequency 0.32/t_rise)\n"
         "  --table-cache DIR (serve inductance from cached tables;\n"
         "  a changed tech/grid/frequency re-characterises automatically)\n"
         "  --strict (escalate warnings to errors; corrupt cache entries\n"
         "  fail instead of being quarantined)  --lenient (default)\n"
         "  --extrapolation warn|clamp|throw (out-of-grid table queries)\n"
         "  --threads N (size the worker pool; precedence: --threads, then\n"
         "  RLCX_THREADS, then hardware concurrency; results are\n"
         "  bit-identical for any thread count)\n"
         "  --mem-budget MIB (process memory budget; precedence:\n"
         "  --mem-budget, then RLCX_MEM_BUDGET, then half of physical RAM;\n"
         "  0 = unlimited.  Work that cannot fit exits 7)\n\n"
         "extract: [--spice FILE] [--ac-resistance] [--table-cache DIR]\n"
         "tables:  --out FILE [--planes none|below|above|both] [--points N]\n"
         "         [--threads N] (0 = RLCX_THREADS/all cores) [--binary]\n"
         "         [--table-cache DIR]\n"
         "batch:   --table-cache DIR [--layers 5,6] [--planes-list\n"
         "         none,below,...] [--points N] [--journal FILE]\n"
         "         [--resume [FILE]] (continue an interrupted campaign;\n"
         "         journaled jobs re-solve nothing) [--fsync] (fsync the\n"
         "         journal per job: resume survives power loss)\n"
         "delay:   [--rs OHM] [--sink-ff N] [--vdd V] [--sections N]\n"
         "         [--no-inductance] [--csv FILE] [--table-cache DIR]\n"
         "cache:   --dir DIR [--stat] [--list] [--purge]  (default: stat)\n"
         "serve:   --table-cache DIR (--socket PATH | --stdio)\n"
         "         [--max-tables N] [--max-active N] [--queue-depth N]\n"
         "         [--request-deadline-s S] [--idle-timeout-s S] (drop\n"
         "         connections silent this long) [--log FILE]\n"
         "query:   [--retries N] [--backoff-ms MS] [--connect-timeout-s S]\n"
         "         [--timeout-s S] --socket PATH CMD [flags...]  (retries\n"
         "         only idempotent commands, with jittered backoff)\n\n"
         "run control: --deadline-s N bounds any command's wall clock;\n"
         "  Ctrl-C on `batch` cancels cooperatively — completed jobs stay\n"
         "  cached + journaled, relaunch with --resume to continue\n\n"
         "exit codes: 0 success, 1 internal error, 2 usage error,\n"
         "  3 invalid input (geometry/io/cache), 4 numerical failure,\n"
         "  5 cancelled or deadline exceeded (resumable for batch),\n"
         "  6 overloaded (serve admission queue full — back off, retry),\n"
         "  7 resource-exhausted (over the memory budget — not\n"
         "  retryable; shrink the request or raise --mem-budget);\n"
         "  warnings go to stderr (docs/robustness.md)\n";
  return 0;
}

int cmd_extract(const Args& args, std::ostream& out, ProviderSource* warm) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::Block blk = make_structure(tech, args);
  const solver::SolveOptions sopt = solve_options(args);
  const std::shared_ptr<const core::InductanceProvider> model =
      make_inductance_model(args, tech, blk, sopt, out, warm);
  core::ExtractOptions eopt;
  eopt.ac_resistance = args.has("ac-resistance");
  const core::SegmentRlc seg = core::extract_segment_rlc(blk, *model, eopt);

  out << "structure: " << args.get("structure", "cpw") << ", layer "
      << blk.layer_index() << ", length "
      << units::to_um(blk.length()) << " um, planes "
      << geom::to_string(blk.planes()) << "\n";
  out << "extraction frequency: " << units::to_ghz(sopt.frequency)
      << " GHz\n\n";
  for (std::size_t i = 0; i < blk.size(); ++i) {
    out << "trace " << blk.trace(i).name << " (w="
        << units::to_um(blk.trace(i).width) << " um): R = "
        << seg.resistance[i] << " ohm";
    // Inductance rows may cover a subset of traces (loop mode).
    for (std::size_t r = 0; r < seg.l_traces.size(); ++r) {
      if (seg.l_traces[r] != i) continue;
      out << ", L = " << units::to_nh(seg.inductance(r, r)) << " nH";
    }
    out << ", Cg = " << units::to_ff(seg.cap_ground[i]) << " fF\n";
  }
  for (std::size_t r = 0; r < seg.l_traces.size(); ++r)
    for (std::size_t q = r + 1; q < seg.l_traces.size(); ++q)
      out << "mutual L(" << blk.trace(seg.l_traces[r]).name << ","
          << blk.trace(seg.l_traces[q]).name << ") = "
          << units::to_nh(seg.inductance(r, q)) << " nH\n";
  for (std::size_t i = 0; i + 1 < blk.size(); ++i)
    out << "coupling C(" << blk.trace(i).name << "," << blk.trace(i + 1).name
        << ") = " << units::to_ff(seg.cap_coupling[i]) << " fF\n";

  // Inductance-significance screen for the first signal, when the block
  // offers a return path for a loop-L estimate.
  const auto signals = blk.signal_indices();
  if (!signals.empty() &&
      (blk.planes() != geom::PlaneConfig::kNone ||
       !blk.ground_indices().empty())) {
    const solver::LoopResult loop = solver::extract_loop(blk, sopt);
    core::ScreeningInput si;
    const std::size_t sig = signals.front();
    si.resistance = seg.resistance[sig];
    si.inductance = loop.inductance(0, 0);
    si.capacitance = seg.cap_ground[sig];
    if (sig > 0) si.capacitance += seg.cap_coupling[sig - 1];
    if (sig < seg.cap_coupling.size()) si.capacitance += seg.cap_coupling[sig];
    si.rise_time = args.get_num("trise-ps", 200.0) * 1e-12;
    const core::ScreeningResult sr = core::screen_inductance(si);
    out << "\nscreen: loop L = " << units::to_nh(si.inductance)
        << " nH, Z0 = " << sr.line_impedance << " ohm, edge ratio "
        << sr.edge_ratio << ", damping ratio " << sr.damping_ratio
        << "\n        -> inductance "
        << (sr.inductance_significant ? "SIGNIFICANT: use the RLC netlist"
                                      : "negligible: RC extraction suffices")
        << "\n";
  }

  if (args.has("spice")) {
    ckt::Netlist nl;
    const ckt::NodeId in = nl.add_node("in");
    core::LadderOptions lopt;
    lopt.sections = static_cast<int>(args.get_num("sections", 4));
    core::stamp_segment(nl, blk, seg, {in}, lopt);
    ckt::SpiceExportOptions xopt;
    xopt.title = "rlcx extract deck";
    std::ofstream f(args.get("spice", ""));
    if (!f)
      throw diag::IoError("cli", "cannot open SPICE output file " +
                                     args.get("spice", ""));
    ckt::write_spice(f, nl, xopt);
    out << "\nSPICE deck written to " << args.get("spice", "") << "\n";
  }
  return 0;
}

int cmd_tables(const Args& args, std::ostream& out) {
  if (!args.has("out"))
    throw diag::UsageError("cli", "tables: --out FILE is required");
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::PlaneConfig planes =
      parse_planes(args.get("planes", "none"));
  const int layer = static_cast<int>(args.get_num("layer", 6));
  const core::TableGrid grid = grid_from_args(args);
  const int threads = static_cast<int>(args.get_num("threads", 0));
  const solver::SolveOptions sopt = solve_options(args);

  core::InductanceTables tables;
  if (args.has("table-cache")) {
    core::TableCache cache(args.get("table-cache", ""), cache_policy(args));
    const std::size_t solves_before = core::table_build_solve_count();
    core::BuildStats bstats;
    tables = core::build_tables_cached(tech, layer, planes, grid, sopt,
                                       cache, threads, &bstats);
    print_cache_stats(cache,
                      core::table_build_solve_count() - solves_before,
                      &bstats, out);
  } else {
    tables = core::build_tables(tech, layer, planes, grid, sopt, threads);
  }
  if (args.has("binary"))
    tables.save_file_binary(args.get("out", ""));
  else
    tables.save_file(args.get("out", ""));
  out << "built " << tables.self.values().size() << " self + "
      << tables.mutual.values().size() << " mutual entries at "
      << units::to_ghz(tables.frequency) << " GHz; saved to "
      << args.get("out", "") << (args.has("binary") ? " (binary)" : "")
      << "\n";
  return 0;
}

int cmd_cache(const Args& args, std::ostream& out) {
  if (!args.has("dir"))
    throw diag::UsageError("cli", "cache: --dir DIR is required");
  core::TableCache cache(args.get("dir", ""), cache_policy(args));
  if (args.has("purge")) {
    out << "purged " << cache.purge() << " entries from "
        << cache.directory() << "\n";
    return 0;
  }
  const std::vector<core::TableCache::Entry> entries = cache.list();
  std::uint64_t bytes = 0;
  for (const core::TableCache::Entry& e : entries) bytes += e.bytes;
  std::size_t quarantined = 0;
  for (const std::filesystem::directory_entry& de :
       std::filesystem::directory_iterator(cache.directory()))
    if (de.path().extension() == ".tbl.quarantine" ||
        (de.path().extension() == ".quarantine" &&
         de.path().stem().extension() == ".tbl"))
      ++quarantined;
  const core::CacheStats cs = cache.stats();
  out << "cache " << cache.directory() << ": " << entries.size()
      << " entries, " << bytes << " bytes";
  if (quarantined > 0) out << ", " << quarantined << " quarantined";
  if (cs.quarantined_at_startup > 0)
    out << ", " << cs.quarantined_at_startup
        << " torn entries quarantined at open";
  if (cs.tmp_swept > 0)
    out << ", " << cs.tmp_swept << " orphaned staging files swept";
  out << "\n";
  if (args.has("list"))
    for (const core::TableCache::Entry& e : entries)
      out << "  " << e.id << "  layer " << e.layer << "  planes "
          << geom::to_string(e.planes) << "  "
          << units::to_ghz(e.frequency) << " GHz  " << e.bytes
          << " bytes\n";
  return 0;
}

// batch: a characterisation campaign — the cross product of --layers and
// --planes-list, fanned out as one flat solve range, every completed job
// stored in the cache and journaled so an interrupted campaign resumes
// with zero re-solves for finished work.
int cmd_batch(const Args& args, const run::RunControl& rc,
              std::ostream& out) {
  if (!args.has("table-cache"))
    throw diag::UsageError("cli", "batch: --table-cache DIR is required");
  const geom::Technology tech = geom::Technology::generic_025um();
  const solver::SolveOptions sopt = solve_options(args);
  const core::TableGrid grid = grid_from_args(args);

  std::vector<int> layers;
  for (const std::string& tok : split_commas(args.get("layers", "6"))) {
    std::size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size())
      throw diag::UsageError("cli", "bad --layers entry: " + tok);
    layers.push_back(v);
  }
  std::vector<geom::PlaneConfig> plane_list;
  for (const std::string& tok : split_commas(args.get("planes-list", "none")))
    plane_list.push_back(parse_planes(tok));

  std::vector<core::BatchJob> jobs;
  for (int layer : layers)
    for (geom::PlaneConfig p : plane_list) jobs.push_back({layer, p, grid});

  core::TableCache cache(args.get("table-cache", ""), cache_policy(args));
  std::string journal_path =
      args.get("journal", cache.directory() + "/batch.journal");
  if (args.has("resume") && !args.get("resume", "").empty())
    journal_path = args.get("resume", "");
  // Fresh-run guard: an existing journal with completions belongs to a
  // previous campaign.  Continuing it silently would mask "I forgot this
  // cache dir is in use"; the operator must opt in with --resume.
  if (!args.has("resume") && !run::BatchJournal::load(journal_path).empty())
    throw diag::UsageError(
        "cli", "journal " + journal_path +
                   " already records completed jobs; relaunch with --resume "
                   "to continue the campaign, or delete the journal to "
                   "start over");
  // --fsync: pay one disk flush per completed job so the journal (and
  // therefore --resume) survives a power cut, not just a process kill.
  run::BatchJournal journal(journal_path, args.has("fsync")
                                              ? run::Durability::kFsync
                                              : run::Durability::kFlush);
  const std::size_t journaled_before = journal.size();

  core::BatchOptions bopt;
  bopt.cache = &cache;
  bopt.journal = &journal;

  // Ctrl-C requests cooperative cancellation on the ambient control's
  // token; the fan-out unwinds at the next checkpoint with every finished
  // job already stored and journaled (exit code 5, resumable).
  run::ScopedSigintCancel sigint(rc.token);

  const std::size_t solves_before = core::table_build_solve_count();
  const peec::FillStats fills_before = peec::fill_stats_total();
  const peec::BatchStats batches_before = peec::batch_stats_total();
  const solver::SolveStats impedance_before = solver::solve_stats_total();
  const core::BatchResult res = core::characterize_batch(tech, jobs, sopt,
                                                         bopt);
  const std::size_t solves = core::table_build_solve_count() - solves_before;

  out << "batch: " << jobs.size() << " jobs (" << layers.size()
      << (layers.size() == 1 ? " layer x " : " layers x ")
      << plane_list.size() << " plane config"
      << (plane_list.size() == 1 ? "" : "s") << "), " << res.jobs_resumed
      << " resumed from journal, " << solves << " field solves\n";
  const core::CacheStats cs = cache.stats();
  out << "cache " << cache.directory() << ": " << cs.hits << " hits, "
      << cs.misses << " misses, " << cs.bytes_written << " bytes written";
  if (cs.write_retries > 0) out << ", " << cs.write_retries
                                << " write retries";
  if (cs.stores_dropped > 0) out << ", " << cs.stores_dropped
                                 << " stores dropped";
  if (cs.quarantined_at_startup > 0)
    out << ", " << cs.quarantined_at_startup << " quarantined at startup";
  if (cs.tmp_swept > 0)
    out << ", " << cs.tmp_swept << " staging files swept";
  if (cs.fsyncs > 0) out << ", " << cs.fsyncs << " fsyncs";
  out << "\n";
  // The fan-out phase is shared across jobs, so report the campaign-wide
  // memo rate from the process aggregate delta.
  const peec::FillStats fills_delta{
      peec::fill_stats_total().pair_lookups - fills_before.pair_lookups,
      peec::fill_stats_total().kernel_evals - fills_before.kernel_evals,
      peec::fill_stats_total().memo_hits - fills_before.memo_hits};
  if (fills_delta.pair_lookups > 0)
    out << "kernel memo: " << fills_delta.memo_hits << "/"
        << fills_delta.pair_lookups << " pair lookups served ("
        << static_cast<int>(100.0 * fills_delta.hit_rate() + 0.5)
        << "% hit rate, " << fills_delta.kernel_evals << " evaluations)\n";
  const peec::BatchStats bnow = peec::batch_stats_total();
  const std::size_t bterms =
      (bnow.volume_terms - batches_before.volume_terms) +
      (bnow.filament_terms - batches_before.filament_terms);
  const std::uint64_t bnanos = bnow.eval_nanos - batches_before.eval_nanos;
  if (bnow.batch_runs > batches_before.batch_runs)
    out << "batch engine: " << bterms << " kernel terms in "
        << bnow.batch_runs - batches_before.batch_runs << " batches, "
        << static_cast<std::uint64_t>(
               bnanos == 0 ? 0.0
                           : static_cast<double>(bterms) * 1e9 /
                                     static_cast<double>(bnanos) +
                                 0.5)
        << " terms/s, simd " << peec::batch_simd_name() << "\n";
  const solver::SolveStats ss = solver::solve_stats_total();
  if (ss.dense_solves > impedance_before.dense_solves)
    out << "impedance solver: "
        << ss.dense_solves - impedance_before.dense_solves
        << " dense solves, largest " << ss.max_filaments << " filaments\n";
  out << "journal " << journal.path() << ": " << journal.size()
      << " completed ids (" << journal.size() - journaled_before
      << " new";
  if (journal.durability() == run::Durability::kFsync)
    out << ", " << journal.fsyncs() << " fsyncs";
  out << ")\n";
  return 0;
}

int cmd_delay(const Args& args, std::ostream& out, ProviderSource* warm) {
  const geom::Technology tech = geom::Technology::generic_025um();
  const geom::Block blk = make_structure(tech, args);
  const solver::SolveOptions sopt = solve_options(args);
  const std::shared_ptr<const core::InductanceProvider> model =
      make_inductance_model(args, tech, blk, sopt, out, warm);
  const core::SegmentRlc seg = core::extract_segment_rlc(blk, *model);

  const double vdd = args.get_num("vdd", 1.8);
  const double tr = args.get_num("trise-ps", 200.0) * 1e-12;

  ckt::Netlist nl;
  const ckt::NodeId vin = nl.add_node("vin");
  const ckt::NodeId buf = nl.add_node("buf");
  nl.add_vsource(vin, ckt::kGround, ckt::SourceWaveform::ramp(vdd, tr));
  nl.add_resistor(vin, buf, args.get_num("rs", 25.0));
  core::LadderOptions lopt;
  lopt.sections = static_cast<int>(args.get_num("sections", 8));
  lopt.include_inductance = !args.has("no-inductance");
  const auto outs = core::stamp_segment(nl, blk, seg, {buf}, lopt);
  nl.add_capacitor(outs[0], ckt::kGround,
                   args.get_num("sink-ff", 200.0) * 1e-15);

  ckt::TransientOptions topt;
  topt.t_stop = 10.0 * tr + 1e-9;
  topt.dt = tr / 200.0;
  const ckt::TransientResult res = ckt::simulate(nl, topt);
  const ckt::Waveform wbuf = res.waveform(buf);
  const ckt::Waveform wsink = res.waveform(outs[0]);

  out << "netlist: " << (lopt.include_inductance ? "RLC" : "RC-only")
      << ", " << lopt.sections << " sections\n";
  out << "buffer->sink 50% delay: "
      << units::to_ps(ckt::delay_50(wbuf, wsink, vdd)) << " ps\n";
  out << "sink overshoot: "
      << 1e3 * std::max(0.0, wsink.max() - vdd) << " mV, undershoot: "
      << 1e3 * wsink.undershoot() << " mV\n";

  if (args.has("csv")) {
    std::ofstream f(args.get("csv", ""));
    if (!f)
      throw diag::IoError("cli", "cannot open CSV output file " +
                                     args.get("csv", ""));
    ckt::write_csv(f, {{"buf", wbuf}, {"sink", wsink}});
    out << "waveforms written to " << args.get("csv", "") << "\n";
  }
  return 0;
}

}  // namespace

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

double Args::get_num(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size())
    throw diag::UsageError("cli", "bad numeric value for --" + key + ": " +
                                      it->second);
  return v;
}

std::size_t estimate_request_bytes(const std::vector<std::string>& argv) {
  try {
    const Args args = parse_args(argv);
    if (args.command != "extract" && args.command != "delay") return 0;
    const geom::Technology tech = geom::Technology::generic_025um();
    const geom::Block blk = make_structure(tech, args);
    const solver::SolveOptions sopt = solve_options(args);
    // The grid term covers the table path (serve's warm store and
    // --table-cache both characterise at --points samples per axis); for
    // a direct-solver request it is a small overestimate, which only errs
    // the admission decision toward safety.
    return solver::estimate_extract_bytes(blk, sopt) +
           core::estimate_grid_bytes(grid_from_args(args));
  } catch (...) {
    // Malformed requests cost nothing to refuse properly later.
    return 0;
  }
}

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) {
    args.command = "help";
    return args;
  }
  args.command = argv[0];
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& tok = argv[i];
    if (tok.rfind("--", 0) != 0)
      throw diag::UsageError("cli", "expected --flag, got: " + tok);
    const std::string key = tok.substr(2);
    if (key.empty()) throw diag::UsageError("cli", "empty flag");
    // Boolean flags: next token missing or looks like another flag.
    if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
      args.options[key] = argv[i + 1];
      ++i;
    } else {
      args.options[key] = "";
    }
  }
  return args;
}

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err, ProviderSource* warm) {
  // Route the library's warnings channel to this invocation's error stream
  // and remember the worst category so --strict can escalate it.
  std::size_t warning_count = 0;
  diag::Category worst_warning = diag::Category::kUsage;
  const diag::ScopedWarningHandler warnings([&](const diag::Warning& w) {
    if (warning_count == 0 ||
        diag::exit_code(w.category) > diag::exit_code(worst_warning))
      worst_warning = w.category;
    ++warning_count;
    err << diag::format_warning(w) << "\n";
  });

  try {
    const Args args = parse_args(argv);
    if (args.has("strict") && args.has("lenient"))
      throw diag::UsageError("cli",
                             "--strict and --lenient are mutually exclusive");
    // A CLI --threads outranks RLCX_THREADS: size the process-global pool
    // before any command touches it.
    if (args.has("threads"))
      rt::Pool::set_global_threads(
          static_cast<int>(args.get_num("threads", 0)));
    // --mem-budget MiB outranks RLCX_MEM_BUDGET the same way: resize the
    // process budget before any command reserves against it (0 =
    // unlimited, docs/robustness.md "Resource governance").
    if (args.has("mem-budget")) {
      const double mib = args.get_num("mem-budget", 0.0);
      if (mib < 0.0)
        throw diag::UsageError("cli", "--mem-budget must be >= 0 MiB");
      res::Budget::global().set_limit(
          static_cast<std::uint64_t>(mib * 1024.0 * 1024.0));
    }
    // Every command runs under an ambient run control: --deadline-s bounds
    // the whole invocation, and the `cancel` fault-injection site plus the
    // batch command's SIGINT handler act on its token.  A triggered
    // checkpoint unwinds as a typed fault -> exit code 5.  When an outer
    // control is already installed (the serve daemon wrapping a request),
    // chain onto it: share its cancellation token and inherit its deadline
    // — the nested scope must tighten the embedder's bounds, not mask them.
    run::RunControl rc;
    run::RunControl ambient;
    if (run::current_control(&ambient)) {
      rc.token = ambient.token;
      rc.deadline = ambient.deadline;
    }
    if (args.has("deadline-s")) {
      const run::Deadline d =
          run::Deadline::after(args.get_num("deadline-s", 0.0));
      if (!rc.deadline.active() || d.when() < rc.deadline.when())
        rc.deadline = d;
    }
    run::ScopedRunControl control(rc);
    int code = 0;
    if (args.command == "help" || args.command == "--help")
      return cmd_help(out);
    else if (args.command == "extract") code = cmd_extract(args, out, warm);
    else if (args.command == "tables") code = cmd_tables(args, out);
    else if (args.command == "delay") code = cmd_delay(args, out, warm);
    else if (args.command == "cache") code = cmd_cache(args, out);
    else if (args.command == "batch") code = cmd_batch(args, rc, out);
    else {
      err << "unknown command: " << args.command << " (try 'rlcx help')\n";
      return 2;
    }
    if (code == 0 && args.has("strict") && warning_count > 0) {
      err << "strict mode: " << warning_count << " warning"
          << (warning_count == 1 ? "" : "s")
          << " escalated to an error (worst category: "
          << diag::to_string(worst_warning) << ")\n";
      return diag::exit_code(worst_warning);
    }
    return code;
  } catch (const std::bad_alloc&) {
    // A real allocation failure the budget's estimators did not predict.
    // Contained here so the serve daemon converts it into a typed status-7
    // response instead of dying and taking every other client with it.
    res::Budget::global().record_contained_bad_alloc();
    err << "error: [resource-exhausted] cli: allocation failed "
           "(std::bad_alloc); the request exceeds available memory — "
           "shrink it or raise --mem-budget\n";
    return 7;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    if (dynamic_cast<const diag::Fault*>(&e) != nullptr)
      return diag::exit_code(diag::category_of(e, diag::Category::kUsage));
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
      return 2;  // uncategorized bad input (e.g. std::stod) = usage
    return 1;
  }
}

}  // namespace rlcx::cli
