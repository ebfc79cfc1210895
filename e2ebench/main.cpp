// End-to-end benchmark of the paper's path, driven from outside through each
// layer's public functions (normally launched by run.py):
//
//   rlcx_e2ebench --workload characterize_cold|htree_skew|serve_warm
//                 --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Each workload's set-up runs kSetups times (setup_s is the median); the
// timed phase repeats whole units of work — a cold characterisation
// campaign, an RLC+RC skew pass over a tree set, a connection's cycle
// through its list of daemon `delay` requests — for --seconds and reports
// medians (op_p50_ms is the unit's).  Outputs are checked (ok_frac),
// deterministic counts are printed and compared between passes, and the
// last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1: an untraced timed phase, then a traced one whose bench-side
// spans are kept in memory and written to DIR/traces at exit).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckt/moments.h"
#include "ckt/transient.h"
#include "cli/cli.h"
#include "clocktree/skew.h"
#include "clocktree/tree_netlist.h"
#include "core/batch_extractor.h"
#include "core/netlist_builder.h"
#include "core/table_cache.h"
#include "diag/warnings.h"
#include "geom/builders.h"
#include "hmat/stats.h"
#include "numeric/simd.h"
#include "numeric/spline.h"
#include "numeric/units.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "peec/mesh.h"
#include "res/budget.h"
#include "rt/pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/table_store.h"
#include "solver/block_solver.h"
#include "solver/frequency.h"

using namespace rlcx;
namespace fs = std::filesystem;
using units::um;

namespace {

// ------------------------------------------------------------------ basics

/// rt pool width of every workload: at most nproc, and 2 so a shared 4-core
/// host keeps headroom — run-to-run noise comes from cache and memory
/// contention, which more workers only widen.
constexpr int kPoolWidth = 2;
constexpr int kSetups = 5;    ///< set-ups per run; setup_s is their median
constexpr int kMinUnits = 2;  ///< timed units per run, at least (so passes
                              ///< can be compared for determinism)

/// While true, every fan-out outside a characterisation campaign runs
/// inline (SmallFanOutGuard), and every run says so on stdout.
/// rt::TaskGroup::task_done() decrements the pending count before it locks
/// the group's mutex, so wait() can return and the group be destroyed while
/// the last worker is still about to lock it (a use-after-free).  Fan-outs
/// of a few tiny tasks — extract_segments_batch inside every analyze_skew,
/// the two-conductor solves of a direct check — hit that window and crashed
/// about one htree_skew run in a dozen; a campaign's long point solves
/// practically never do.  The serialised fan-outs are under 0.1 % of a skew
/// pass.  Set to false once the race is fixed.
constexpr bool kSerialiseSmallFanOuts = true;

/// RAII: the fan-outs of this thread run inline for the guard's lifetime
/// (or until release()) when kSerialiseSmallFanOuts is set.
class SmallFanOutGuard {
 public:
  SmallFanOutGuard() {
    if (kSerialiseSmallFanOuts) region_.emplace();
  }
  void release() { region_.reset(); }

 private:
  std::optional<rt::SerialRegion> region_;
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics of the traced run.  A layer the workload's path never
/// enters reports 0.
constexpr MetricSpec kLayers[] = {
    {"core.build_s", "s"},
    {"core.solves", "count"},
    {"core.cache_store_ms", "ms"},
    {"core.table_load_ms", "ms"},
    {"core.lookup_ns", "ns"},
    {"peec.pair_lookups", "count"},
    {"peec.kernel_evals", "count"},
    {"peec.memo_hit_rate", "ratio"},
    {"peec.batch_eval_s", "s"},
    {"peec.fill_ms", "ms"},
    {"solver.point_solve_ms", "ms"},
    {"solver.dense_solves", "count"},
    {"hmat.solves", "count"},
    {"rt.threads", "count"},
    {"rt.parallel_efficiency", "ratio"},
    {"res.peak_mib", "MiB"},
    {"clocktree.extract_ms", "ms"},
    {"clocktree.netlist_ms", "ms"},
    {"ckt.mna_dim", "count"},
    {"ckt.steps", "count"},
    {"ckt.factor_ms", "ms"},
    {"ckt.step_us", "us"},
    {"ckt.step_bytes_computed", "bytes"},
    {"ckt.simulate_ms", "ms"},
    {"ckt.simulate_share", "ratio"},
    {"ckt.measure_ms", "ms"},
    {"cli.run_ms", "ms"},
    {"serve.roundtrip_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.warm_hits", "count"},
    {"serve.warm_misses", "count"},
    {"trace.overhead_frac", "ratio"},
};

/// What one run reports.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool run_failed = false;  ///< a whole-run check failed (passes with the
                           ///< same seed disagreed, a timed phase warned)
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  std::vector<std::string> problems;  ///< the first few failures, for stderr

  /// One attempted operation; `problem` is empty when its output checked.
  void op(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    note(problem);
  }
  void fail_run(const std::string& what) {
    run_failed = true;
    note(what);
  }
  void note(const std::string& what) {
    if (problems.size() < 16) problems.push_back(what);
  }
  void e2e(const std::string& n, double v) { end_to_end[n] = v; }
  void layer(const std::string& n, double v) { layers[n] = v; }
};

/// Counts the diag warnings (extrapolating table lookups, degraded solves)
/// emitted anywhere in the process while alive.
class WarningCounter {
 public:
  WarningCounter()
      : handler_([this](const diag::Warning& w) {
          const std::lock_guard<std::mutex> lock(m_);
          if (count_++ == 0) first_ = diag::format_warning(w);
        }) {}
  std::size_t count() const {
    const std::lock_guard<std::mutex> lock(m_);
    return count_;
  }
  std::string first() const {
    const std::lock_guard<std::mutex> lock(m_);
    return first_;
  }

 private:
  mutable std::mutex m_;
  std::size_t count_ = 0;
  std::string first_;
  diag::ScopedWarningHandler handler_;  // last: routes into the above
};

/// A timed phase's warnings fail the run: an extrapolating lookup times
/// the warning path, not the spline.
void charge_warnings(const WarningCounter& w, const char* phase,
                     Report& report) {
  if (w.count() == 0) return;
  report.fail_run(std::string(phase) + ": " + std::to_string(w.count()) +
              " diag warnings, first: " + w.first());
}

// ----------------------------------------------------------------- tracing

/// Bench-side spans around public layer calls, kept in memory and written
/// as Chrome trace-event JSON at exit.  While disabled a span is one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< enclosing span on the thread (0 = root)
    std::uint64_t unit = 0;    ///< shared by the spans of one unit of work
    int tid = 0;
    double t0 = 0.0;  ///< seconds since the tracer started
    double t1 = -1.0;
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }

  std::uint64_t begin(const char* name, std::uint64_t unit,
                      std::uint64_t parent, int tid) {
    const double t = seconds_since(start_);
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, spans_.size() + 1, parent, unit, tid, t, -1.0});
    return spans_.size();
  }
  void end(std::uint64_t id) {
    const double t = seconds_since(start_);
    const std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].t1 = t;
  }

  /// Finished spans called `name`: duration [ms] keyed by unit id (summed
  /// when a unit holds several).
  std::map<std::uint64_t, double> per_unit_ms(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(m_);
    std::map<std::uint64_t, double> out;
    for (const Span& s : spans_)
      if (s.t1 >= 0.0 && name == s.name) out[s.unit] += 1e3 * (s.t1 - s.t0);
    return out;
  }
  /// Durations [ms] of every finished span called `name`.
  std::vector<double> each_ms(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.t1 >= 0.0 && name == s.name) out.push_back(1e3 * (s.t1 - s.t0));
    return out;
  }

  void write(const fs::path& file) const {
    const std::lock_guard<std::mutex> lock(m_);
    std::ofstream os(file);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
         << "\"tid\": " << s.tid << ", \"ts\": " << fmt(1e6 * s.t0)
         << ", \"dur\": " << fmt(1e6 * std::max(0.0, s.t1 - s.t0))
         << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"unit\": " << s.unit << "}}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  std::atomic<bool> enabled_{false};
  const Clock::time_point start_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

thread_local std::uint64_t t_span = 0;  ///< innermost open span
thread_local std::uint64_t t_unit = 0;  ///< unit of work being run
thread_local int t_tid = 0;

/// RAII span, nested under the thread's innermost open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    parent_ = t_span;
    id_ = t.begin(name, t_unit, parent_, t_tid);
    t_span = id_;
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    Tracer::get().end(id_);
    t_span = parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Median over units of the per-unit summed duration of spans `name` [ms].
double median_per_unit_ms(const std::string& name) {
  std::vector<double> v;
  for (const auto& [unit, ms] : Tracer::get().per_unit_ms(name))
    v.push_back(ms);
  return median(v);
}

double median_each_ms(const std::string& name) {
  return median(Tracer::get().each_ms(name));
}

// ------------------------------------------------- characterisation layer

const geom::Technology& tech() {
  static const geom::Technology t = geom::Technology::generic_025um();
  return t;
}

/// Deltas of the process-wide work counters over one campaign.  A batch's
/// BuildStats carry only solves and wall time; the kernel and solver
/// counters are the same process totals BuildStats deltas in build_tables,
/// exact here because nothing else runs during a campaign.
struct CampaignCounts {
  std::size_t solves = 0;
  std::size_t grid_points = 0;
  std::size_t pair_lookups = 0;
  std::size_t kernel_evals = 0;
  std::size_t memo_hits = 0;
  std::size_t dense_solves = 0;
  std::size_t hmat_solves = 0;
  double batch_eval_s = 0.0;  ///< wall inside the SoA kernels (summed
                              ///< across workers), not a count

  bool operator==(const CampaignCounts& o) const {
    return solves == o.solves && grid_points == o.grid_points &&
           pair_lookups == o.pair_lookups && kernel_evals == o.kernel_evals &&
           memo_hits == o.memo_hits && dense_solves == o.dense_solves &&
           hmat_solves == o.hmat_solves;
  }
  std::string text() const {
    std::ostringstream os;
    os << solves << " solves (grid points " << grid_points << "), "
       << kernel_evals << " kernel evaluations, " << memo_hits << "/"
       << pair_lookups << " memo hits, " << dense_solves << " dense / "
       << hmat_solves << " hmat solves";
    return os.str();
  }
};

struct Campaign {
  core::BatchResult result;
  CampaignCounts counts;
  double wall_s = 0.0;
};

/// One cold characterisation campaign into a fresh, empty cache directory.
Campaign run_campaign(const std::vector<core::BatchJob>& jobs,
                      const solver::SolveOptions& sopt,
                      const fs::path& cache_dir) {
  fs::remove_all(cache_dir);
  fs::create_directories(cache_dir);
  core::TableCache cache(cache_dir.string());
  core::BatchOptions bopt;
  bopt.cache = &cache;
  const peec::FillStats f0 = peec::fill_stats_total();
  const peec::BatchStats b0 = peec::batch_stats_total();
  const hmat::SolveStats h0 = hmat::solve_stats_total();
  Campaign c;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span("core.characterize_batch");
    c.result = core::characterize_batch(tech(), jobs, sopt, bopt);
  }
  c.wall_s = seconds_since(t0);
  const peec::FillStats f1 = peec::fill_stats_total();
  const peec::BatchStats b1 = peec::batch_stats_total();
  const hmat::SolveStats h1 = hmat::solve_stats_total();
  for (const core::BuildStats& s : c.result.stats) {
    c.counts.solves += s.solves;
    c.counts.grid_points += s.grid_points;
  }
  c.counts.pair_lookups = f1.pair_lookups - f0.pair_lookups;
  c.counts.kernel_evals = f1.kernel_evals - f0.kernel_evals;
  c.counts.memo_hits = f1.memo_hits - f0.memo_hits;
  c.counts.dense_solves = h1.dense_solves - h0.dense_solves;
  c.counts.hmat_solves = h1.hmat_solves - h0.hmat_solves;
  c.counts.batch_eval_s = 1e-9 * static_cast<double>(b1.eval_nanos -
                                                     b0.eval_nanos);
  return c;
}

/// Relative agreement of a table lookup at a grid node with a direct solve
/// of the same geometry (the spline passes through its nodes).
constexpr double kNodeTolerance = 1e-9;

std::size_t grid_size(const core::TableGrid& g) {
  return g.widths.size() * g.widths.size() * g.spacings.size() *
         g.lengths.size();
}

/// The 2-trace block a grid point solves (core/table_builder.cpp).
geom::Block pair_block(int layer, geom::PlaneConfig planes, double w1,
                       double w2, double s, double l) {
  std::vector<geom::Trace> traces{
      {geom::TraceRole::kSignal, w1, -0.5 * (s + w1), "a"},
      {geom::TraceRole::kSignal, w2, 0.5 * (s + w2), "b"},
  };
  return geom::Block(&tech(), layer, l, std::move(traces), planes);
}

/// Filaments of `blk` as the solver meshes them (solver/block_solver.cpp:
/// every trace, plus the plane strips in loop mode).
std::vector<peec::Filament> block_filaments(const geom::Block& blk,
                                            const solver::SolveOptions& opt) {
  std::vector<peec::Filament> out;
  auto mesh = [&](const peec::Bar& envelope, double rho) {
    const peec::MeshOptions m = peec::mesh_for_skin_depth(
        envelope, peec::skin_depth(rho, opt.frequency),
        opt.max_filaments_per_dim);
    for (const peec::Bar& b : peec::mesh_cross_section(envelope, m))
      out.push_back({b, 1.0, peec::bar_resistance(b, rho)});
  };
  for (std::size_t i = 0; i < blk.size(); ++i) {
    peec::Bar bar;
    bar.axis = peec::Axis::kY;
    bar.length = blk.length();
    bar.t_min = blk.trace(i).x_left();
    bar.t_width = blk.trace(i).width;
    bar.z_min = blk.layer().z_bottom;
    bar.z_thick = blk.layer().thickness;
    mesh(bar, blk.layer().rho);
  }
  if (core::table_kind_for(blk.planes()) == core::TableKind::kLoop) {
    const int pl = blk.planes() == geom::PlaneConfig::kAbove
                       ? blk.plane_layer_above()
                       : blk.plane_layer_below();
    for (const peec::Bar& strip : solver::plane_strips(blk, pl, opt.plane))
      mesh(strip, tech().layer(pl).rho);
  }
  return out;
}

struct GridPoint {
  std::size_t job = 0;
  std::size_t i = 0, j = 0, k = 0, m = 0;  ///< w1, w2, spacing, length
};

/// Seeded grid points of every job, stratified so their solve cost does
/// not depend on the seed: for each length, every first width once, paired
/// with every second width and every spacing once (seeded rotations).
std::vector<GridPoint> sample_points(const std::vector<core::BatchJob>& jobs,
                                     std::mt19937_64& rng) {
  std::vector<GridPoint> pts;
  for (std::size_t jb = 0; jb < jobs.size(); ++jb) {
    const core::TableGrid& g = jobs[jb].grid;
    const std::size_t nw = g.widths.size(), ns = g.spacings.size();
    for (std::size_t m = 0; m < g.lengths.size(); ++m) {
      const std::size_t rw = rng() % nw, rs = rng() % ns;
      for (std::size_t i = 0; i < nw; ++i)
        pts.push_back({jb, i, (i + rw) % nw, (i + rs) % ns, m});
    }
  }
  return pts;
}

/// Direct solves (core::DirectInductanceModel) of the seeded grid points'
/// mutual-L [H]: the references a campaign's tables are checked against.
std::vector<double> direct_references(const std::vector<core::BatchJob>& jobs,
                                      const solver::SolveOptions& sopt,
                                      const std::vector<GridPoint>& points) {
  const SmallFanOutGuard guard;
  std::vector<double> out;
  for (const GridPoint& p : points) {
    const core::BatchJob& job = jobs[p.job];
    const core::TableGrid& g = job.grid;
    const core::DirectInductanceModel direct(&tech(), job.layer, job.planes,
                                             sopt);
    out.push_back(direct.mutual(g.widths[p.i], g.widths[p.j],
                                g.spacings[p.k], g.lengths[p.m]));
  }
  return out;
}

/// The raw table value at a grid point, not TableInductanceModel::mutual,
/// which averages the (w1, w2) and (w2, w1) entries.
double table_node(const std::vector<core::BatchJob>& jobs, const Campaign& c,
                  const GridPoint& p) {
  const core::TableGrid& g = jobs[p.job].grid;
  return c.result.tables[p.job].mutual.lookup(
      {g.widths[p.i], g.widths[p.j], g.spacings[p.k], g.lengths[p.m]});
}

/// Output check of a campaign: every job solved its whole grid, and the
/// seeded grid points' mutual-L matches the direct solves `want` of the
/// same geometry (a lookup at a grid node reproduces the solved value).
/// Returns the first problem, empty when the campaign checks out.
std::string check_campaign(const std::vector<core::BatchJob>& jobs,
                           const Campaign& c,
                           const std::vector<GridPoint>& points,
                           const std::vector<double>& want) {
  for (std::size_t jb = 0; jb < jobs.size(); ++jb)
    if (c.result.stats[jb].solves != grid_size(jobs[jb].grid))
      return "job " + std::to_string(jb) + ": " +
             std::to_string(c.result.stats[jb].solves) +
             " solves, its grid has " +
             std::to_string(grid_size(jobs[jb].grid)) + " points";
  for (std::size_t n = 0; n < points.size(); ++n) {
    const double got = table_node(jobs, c, points[n]);
    if (!(std::abs(got - want[n]) <= kNodeTolerance * std::abs(want[n])))
      return "job " + std::to_string(points[n].job) + " grid-point mutual-L " +
             fmt(got) + " H vs direct solve " + fmt(want[n]) + " H";
  }
  return {};
}

/// Per-layer probes of a characterisation, run once outside the timed
/// phase: cache store and load of the campaign's tables, one grid-point
/// solve and one PEEC fill at seeded points, and the pool's parallel
/// efficiency on one planes-none build.
void characterisation_layers(const std::vector<core::BatchJob>& jobs,
                             const solver::SolveOptions& sopt,
                             const std::vector<Campaign>& campaigns,
                             const std::vector<GridPoint>& points,
                             const fs::path& scratch, Report& report) {
  std::vector<double> builds, stores, loads;
  for (const Campaign& c : campaigns) builds.push_back(c.wall_s);
  // Store and load the last campaign's tables through a fresh cache, the
  // same calls characterize_batch and the table store make.
  const Campaign& last = campaigns.back();
  for (int rep = 0; rep < 3; ++rep) {
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    core::TableCache cache(scratch.string());
    double st = 0.0, ld = 0.0;
    for (std::size_t jb = 0; jb < jobs.size(); ++jb) {
      const std::string key =
          core::TableCache::key_text(tech(), jobs[jb].layer, jobs[jb].planes,
                                     jobs[jb].grid, sopt);
      Clock::time_point t0 = Clock::now();
      {
        const ScopedSpan span("core.cache_store");
        if (!cache.store(key, last.result.tables[jb]))
          report.note("cache probe: store dropped");
      }
      st += seconds_since(t0);
      t0 = Clock::now();
      {
        const ScopedSpan span("core.table_load");
        if (!cache.load(key)) report.note("cache probe: stored entry missing");
      }
      ld += seconds_since(t0);
    }
    stores.push_back(1e3 * st);
    loads.push_back(1e3 * ld);
  }
  fs::remove_all(scratch);

  // pair_block and block_filaments copy table_builder's and the solver's
  // geometry, so each probe is checked against the program: the point
  // solve must reproduce the campaign's table node, and the standalone fill
  // must make the same pair lookups and kernel evaluations as the solve's.
  std::vector<double> point_ms, fill_ms;
  SmallFanOutGuard guard;
  const Campaign& first = campaigns.front();
  for (const GridPoint& p : points) {
    const core::BatchJob& job = jobs[p.job];
    const core::TableGrid& g = job.grid;
    const geom::Block blk =
        pair_block(job.layer, job.planes, g.widths[p.i], g.widths[p.j],
                   g.spacings[p.k], g.lengths[p.m]);
    const peec::FillStats s0 = peec::fill_stats_total();
    Clock::time_point t0 = Clock::now();
    double mutual = 0.0;
    {
      const ScopedSpan span("solver.point_solve");
      mutual = core::table_kind_for(job.planes) == core::TableKind::kPartial
                   ? solver::extract_partial(blk, sopt).inductance(0, 1)
                   : solver::extract_loop(blk, sopt).inductance(0, 1);
    }
    point_ms.push_back(1e3 * seconds_since(t0));
    const peec::FillStats s1 = peec::fill_stats_total();
    const std::vector<peec::Filament> fil = block_filaments(blk, sopt);
    t0 = Clock::now();
    {
      const ScopedSpan span("peec.fill");
      (void)peec::partial_inductance_matrix(fil, sopt.partial);
    }
    fill_ms.push_back(1e3 * seconds_since(t0));
    const peec::FillStats s2 = peec::fill_stats_total();
    const double node = table_node(jobs, first, p);
    if (!(std::abs(mutual - node) <= kNodeTolerance * std::abs(node)))
      report.fail_run("point-solve probe: mutual-L " + fmt(mutual) +
                      " H vs table node " + fmt(node) + " H");
    if (s2.pair_lookups - s1.pair_lookups != s1.pair_lookups - s0.pair_lookups ||
        s2.kernel_evals - s1.kernel_evals != s1.kernel_evals - s0.kernel_evals)
      report.fail_run("fill probe: " + std::to_string(fil.size()) +
                      " filaments made " +
                      std::to_string(s2.pair_lookups - s1.pair_lookups) +
                      " pair lookups, the solver's fill " +
                      std::to_string(s1.pair_lookups - s0.pair_lookups));
  }
  guard.release();

  // Parallel efficiency: serial builds of the first job against the same
  // build at the pool width, alternated, medians of three each.  A waiting
  // caller helps run pool tasks, so a width-w build runs w + 1 threads.
  const core::BatchJob& j0 = jobs.front();
  std::vector<double> serial, wide;
  for (int rep = 0; rep < 3; ++rep)
    for (int threads : {1, kPoolWidth}) {
      const Clock::time_point t0 = Clock::now();
      (void)core::build_tables(tech(), j0.layer, j0.planes, j0.grid, sopt,
                               threads);
      (threads == 1 ? serial : wide).push_back(seconds_since(t0));
    }
  const double serial_s = median(serial), wide_s = median(wide);

  std::vector<CampaignCounts> counts;
  for (const Campaign& c : campaigns) counts.push_back(c.counts);
  const CampaignCounts& cc = counts.front();
  std::vector<double> evals_s;
  for (const CampaignCounts& k : counts) evals_s.push_back(k.batch_eval_s);
  report.layer("core.build_s", median(builds));
  report.layer("core.solves", static_cast<double>(cc.solves));
  report.layer("core.cache_store_ms", median(stores));
  report.layer("core.table_load_ms", median(loads));
  report.layer("peec.pair_lookups", static_cast<double>(cc.pair_lookups));
  report.layer("peec.kernel_evals", static_cast<double>(cc.kernel_evals));
  report.layer("peec.memo_hit_rate",
               cc.pair_lookups == 0 ? 0.0
                                    : static_cast<double>(cc.memo_hits) /
                                          static_cast<double>(cc.pair_lookups));
  report.layer("peec.batch_eval_s", median(evals_s));
  report.layer("peec.fill_ms", median(fill_ms));
  report.layer("solver.point_solve_ms", median(point_ms));
  report.layer("solver.dense_solves", static_cast<double>(cc.dense_solves));
  report.layer("hmat.solves", static_cast<double>(cc.hmat_solves));
  report.layer("rt.parallel_efficiency",
               serial_s / (wide_s * static_cast<double>(kPoolWidth + 1)));
  std::printf("probe: point solve %.3f ms (PEEC fill %.3f ms, so LU and "
              "reduction self time %.3f ms) over %zu seeded grid points\n",
              median(point_ms), median(fill_ms),
              median(point_ms) - median(fill_ms), points.size());
  std::printf("probe: serial build %.3f s, %d-wide pool build %.3f s\n",
              serial_s, kPoolWidth, wide_s);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;  ///< this run's scratch directory (removed at exit)
};

solver::SolveOptions clock_solve_options(double t_rise) {
  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(t_rise);
  return sopt;
}

/// Cold campaigns until `seconds` elapse (at least kMinUnits), each one an
/// attempted operation checked against the direct solver, and its counts
/// compared with the first campaign's.
std::vector<Campaign> timed_campaigns(const RunConfig& cfg,
                                      const std::vector<core::BatchJob>& jobs,
                                      const solver::SolveOptions& sopt,
                                      const std::vector<GridPoint>& points,
                                      const std::vector<double>& references,
                                      Report& report, double* wall_s) {
  std::vector<Campaign> out;
  {
    const WarningCounter warnings;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<int>(out.size()) < kMinUnits ||
           seconds_since(t0) < cfg.seconds) {
      t_unit = out.size() + 1;
      out.push_back(run_campaign(jobs, sopt, cfg.work / "cold-cache"));
    }
    *wall_s = seconds_since(t0);
    charge_warnings(warnings, "cold campaigns", report);
  }
  for (const Campaign& c : out) {
    report.op(check_campaign(jobs, c, points, references));
    if (!(c.counts == out.front().counts))
      report.fail_run("campaign counts differ: " + c.counts.text() + " vs " +
                      out.front().counts.text());
  }
  return out;
}

std::vector<double> walls_of(const std::vector<Campaign>& campaigns) {
  std::vector<double> w;
  for (const Campaign& c : campaigns) w.push_back(c.wall_s);
  return w;
}

// characterize_cold: the paper's table pre-characterisation — layers {5,6}
// x planes {none, below} on default_clock_grid(), one cold campaign into an
// empty cache per timed unit.
void characterize_cold(const RunConfig& cfg, Report& report) {
  std::vector<core::BatchJob> jobs;
  for (int layer : {5, 6})
    for (geom::PlaneConfig p :
         {geom::PlaneConfig::kNone, geom::PlaneConfig::kBelow})
      jobs.push_back({layer, p, core::default_clock_grid()});
  const solver::SolveOptions sopt = clock_solve_options(150e-12);
  std::mt19937_64 rng(cfg.seed);
  const std::vector<GridPoint> points = sample_points(jobs, rng);

  // Set-up: the direct solves of the output check's reference points, the
  // one phase before the timed campaigns (a cold campaign needs nothing
  // else).  They must repeat exactly.
  std::vector<double> setups, references;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> r = direct_references(jobs, sopt, points);
    setups.push_back(seconds_since(t0));
    if (s > 0 && r != references)
      report.fail_run("direct references differ between set-ups");
    references = std::move(r);
  }

  double wall_s = 0.0;
  const std::vector<Campaign> campaigns = timed_campaigns(
      cfg, jobs, sopt, points, references, report, &wall_s);
  const std::vector<double> walls = walls_of(campaigns);
  std::printf("counts: cold campaign of %zu jobs: %s\n", jobs.size(),
              campaigns.front().counts.text().c_str());
  std::printf("characterize_s = %.4f s (median of %zu cold campaigns; "
              "op_p50_ms here), each:",
              median(walls), walls.size());
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  report.e2e("setup_s", median(setups));
  report.e2e("op_p50_ms", 1e3 * median(walls));
  report.e2e("ops_per_s", static_cast<double>(walls.size()) / wall_s);
  if (!cfg.trace) return;

  // Traced run: the same campaigns with spans on, then the layer probes.
  Tracer::get().enable();
  double traced_wall_s = 0.0;
  const std::vector<Campaign> traced = timed_campaigns(
      cfg, jobs, sopt, points, references, report, &traced_wall_s);
  characterisation_layers(jobs, sopt, traced, points, cfg.work / "probe",
                          report);
  report.layer("trace.overhead_frac",
               median(walls_of(traced)) / median(walls) - 1.0);
}

// ---------------------------------------------------- workload: H-tree skew

/// A seeded CPW H-tree with `levels` levels (2^(levels-1) sinks), on layer
/// 6 or alternating layers 6/5 with vias.  Every table query stays inside
/// default_clock_grid(): widths 1-20 um, spacings 0.5-10 um (the far
/// shield-to-shield spacing included), lengths 100-6000 um.
clocktree::HTreeSpec seeded_tree(std::mt19937_64& rng, std::size_t levels,
                                 bool alternate) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  clocktree::HTreeSpec spec = clocktree::example_cpw_tree();
  spec.levels.clear();
  const double root_len = 2600.0 + 1400.0 * u(rng);
  double ws = 4.0 + 2.0 * u(rng);
  for (std::size_t lv = 0; lv < levels; ++lv) {
    clocktree::LevelSpec l;
    const double len = root_len / std::ldexp(1.0, static_cast<int>(lv));
    l.length = um(std::max(150.0, len * (0.9 + 0.2 * u(rng))));
    const double sp = 0.6 + 0.6 * u(rng);
    const double w = std::min(ws, 9.5 - 2.0 * sp);
    l.signal_width = um(w);
    l.ground_width = um(w * (1.0 + 0.5 * u(rng)));
    l.spacing = um(sp);
    l.planes = geom::PlaneConfig::kNone;
    l.layer = alternate ? (lv % 2 == 0 ? 6 : 5) : 0;
    spec.levels.push_back(l);
    ws = std::max(2.0, 0.8 * ws);
  }
  if (alternate) spec.via.resistance = 0.8;
  return spec;
}

/// The tree set of one skew pass: 4, 8 and 16 sinks, each on one layer and
/// alternating layers.  The seed moves geometry only, so a pass costs the
/// same for every seed.
std::vector<clocktree::HTreeSpec> tree_set(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<clocktree::HTreeSpec> trees;
  for (std::size_t levels : {3, 4, 5})
    for (bool alternate : {false, true})
      trees.push_back(seeded_tree(rng, levels, alternate));
  return trees;
}

clocktree::AnalysisOptions skew_options(bool inductance) {
  clocktree::AnalysisOptions a;
  a.ladder.sections = 4;
  a.ladder.include_inductance = inductance;
  return a;
}

/// analyze_skew's transient settings (clocktree/skew.cpp).
ckt::TransientOptions skew_transient(const clocktree::HTreeSpec& spec) {
  ckt::TransientOptions t;
  t.dt = spec.driver.t_rise / 50.0;
  t.t_stop = spec.driver.t_rise * 10.0 + 2e-9;
  return t;
}

/// analyze_skew decomposed into its public layer calls, each under a span:
/// netlist build (which extracts the segments), transient, measurement.
clocktree::SkewResult traced_skew(const clocktree::HTreeSpec& spec,
                                  const core::InductanceLibrary& lib,
                                  bool inductance, std::size_t* steps) {
  const clocktree::AnalysisOptions a = skew_options(inductance);
  clocktree::TreeNetlist tree;
  {
    const ScopedSpan span("clocktree.build_tree_netlist");
    tree = clocktree::build_tree_netlist(tech(), spec, lib, a.ladder);
  }
  std::optional<ckt::TransientResult> res;
  {
    const ScopedSpan span("ckt.simulate");
    res.emplace(ckt::simulate(tree.netlist, skew_transient(spec)));
  }
  *steps = res->steps();
  const ScopedSpan span("ckt.measure");
  clocktree::SkewResult out;
  const ckt::Waveform ref = res->waveform(tree.driver_out);
  const double vdd = spec.driver.vdd;
  for (const ckt::NodeId sink : tree.sinks) {
    const ckt::Waveform w = res->waveform(sink);
    out.sink_delays.push_back(ckt::delay_50(ref, w, vdd));
    const auto arrival = w.first_rise_through(0.5 * vdd);
    if (!arrival) throw std::runtime_error("sink never reaches 50%");
    out.sink_arrivals.push_back(*arrival);
  }
  return out;
}

struct SkewPass {
  std::vector<clocktree::SkewResult> rlc, rc;  ///< per tree
  std::vector<std::size_t> steps;  ///< per tree, transient steps (traced)
  double wall_s = 0.0;
  std::string problem;  ///< first failure (a sink that never crossed 50%)
};

SkewPass run_skew_pass(const std::vector<clocktree::HTreeSpec>& trees,
                       const core::InductanceLibrary& lib, bool traced) {
  SkewPass pass;
  const Clock::time_point t0 = Clock::now();
  for (const clocktree::HTreeSpec& spec : trees) {
    try {
      if (traced) {
        std::size_t steps = 0;
        pass.rlc.push_back(traced_skew(spec, lib, true, &steps));
        pass.rc.push_back(traced_skew(spec, lib, false, &steps));
        pass.steps.push_back(steps);
      } else {
        pass.rlc.push_back(
            clocktree::analyze_skew(tech(), spec, lib, skew_options(true)));
        pass.rc.push_back(
            clocktree::analyze_skew(tech(), spec, lib, skew_options(false)));
      }
    } catch (const std::exception& e) {
      if (pass.problem.empty())
        pass.problem = std::to_string(spec.sink_count()) +
                       "-sink tree: " + e.what();
      pass.rlc.resize(pass.rc.size() + 1);
      pass.rc.resize(pass.rlc.size());
    }
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

bool same_delays(const clocktree::SkewResult& a,
                 const clocktree::SkewResult& b) {
  return a.sink_delays == b.sink_delays && a.sink_arrivals == b.sink_arrivals;
}

/// RC-only 50% arrival of a sink against the D2M two-moment metric on
/// the same netlist (ckt::transfer_moments).  The driver is a ramp of
/// rise t_r, so the moments are those of H(s) times the ramp's box filter
/// (1 - e^{-s t_r}) / (s t_r) = 1 - s t_r/2 + s^2 t_r^2/6 - ...:
///   m1' = m1 - t_r/2,   m2' = m2 - m1 t_r/2 + t_r^2/6,
/// and D2M = ln2 m1'^2 / sqrt(m2') estimates the absolute 50% arrival.
/// D2M tracks a single RC line's step response within 0.4 % (EXPERIMENTS.md,
/// bench_moments); on these ramp-driven trees it lands within 3 %, so the
/// bound is 5 %.
constexpr double kD2mTolerance = 0.05;

/// D2M reference arrivals [s] of every sink of every tree, RC netlists.
std::vector<std::vector<double>> d2m_references(
    const std::vector<clocktree::HTreeSpec>& trees,
    const core::InductanceLibrary& lib) {
  std::vector<std::vector<double>> out;
  for (const clocktree::HTreeSpec& spec : trees) {
    const clocktree::TreeNetlist tree = clocktree::build_tree_netlist(
        tech(), spec, lib, skew_options(false).ladder);
    const auto m = ckt::transfer_moments(tree.netlist, 2);
    const double tr = spec.driver.t_rise;
    std::vector<double> d;
    for (const ckt::NodeId sink : tree.sinks) {
      const double m1 = m[1][static_cast<std::size_t>(sink)] - 0.5 * tr;
      const double m2 = m[2][static_cast<std::size_t>(sink)] -
                        m[1][static_cast<std::size_t>(sink)] * 0.5 * tr +
                        tr * tr / 6.0;
      d.push_back(std::log(2.0) * m1 * m1 / std::sqrt(m2));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::string check_pass(const std::vector<clocktree::HTreeSpec>& trees,
                       const SkewPass& pass,
                       const std::vector<std::vector<double>>& d2m,
                       double* worst) {
  if (!pass.problem.empty()) return pass.problem;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const clocktree::SkewResult& rc = pass.rc[t];
    if (rc.sink_arrivals.size() != trees[t].sink_count() ||
        pass.rlc[t].sink_arrivals.size() != trees[t].sink_count())
      return "tree " + std::to_string(t) + ": missing sinks";
    for (std::size_t k = 0; k < rc.sink_arrivals.size(); ++k) {
      const double sim = rc.sink_arrivals[k];
      const double err = std::abs(sim - d2m[t][k]) / d2m[t][k];
      *worst = std::max(*worst, err);
      if (!(err <= kD2mTolerance))
        return "tree " + std::to_string(t) + " sink " + std::to_string(k) +
               ": RC arrival " + fmt(sim) + " s vs D2M " + fmt(d2m[t][k]) +
               " s";
    }
  }
  return {};
}

/// Skew passes until `seconds` elapse (at least kMinUnits): each pass is an
/// attempted operation, checked, and compared bit-for-bit with the first.
std::vector<SkewPass> timed_passes(
    const RunConfig& cfg, const std::vector<clocktree::HTreeSpec>& trees,
    const core::InductanceLibrary& lib,
    const std::vector<std::vector<double>>& d2m, bool traced, Report& report,
    double* wall_s) {
  std::vector<SkewPass> out;
  {
    const WarningCounter warnings;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<int>(out.size()) < kMinUnits ||
           seconds_since(t0) < cfg.seconds) {
      t_unit = out.size() + 1;
      out.push_back(run_skew_pass(trees, lib, traced));
    }
    *wall_s = seconds_since(t0);
    charge_warnings(warnings, "skew passes", report);
  }
  double worst = 0.0;
  for (const SkewPass& p : out) {
    report.op(check_pass(trees, p, d2m, &worst));
    for (std::size_t t = 0; t < trees.size() && p.problem.empty(); ++t)
      if (!same_delays(p.rlc[t], out.front().rlc[t]) ||
          !same_delays(p.rc[t], out.front().rc[t]))
        report.fail_run("tree " + std::to_string(t) +
                        " delays differ between passes");
  }
  std::printf("check: RC sink arrivals vs D2M, worst %.3f %% (bound %.1f %%)\n",
              100.0 * worst, 100.0 * kD2mTolerance);
  return out;
}

/// Tables loaded back from a cache directory as a library (what a skew
/// set-up and a daemon's warm store hold).
struct LoadedTables {
  core::InductanceLibrary library;
  std::vector<std::shared_ptr<const core::TableInductanceModel>> models;
  double load_ms = 0.0;
};

LoadedTables load_library(const std::vector<core::BatchJob>& jobs,
                          const solver::SolveOptions& sopt,
                          const fs::path& dir) {
  LoadedTables t;
  core::TableCache cache(dir.string());
  const Clock::time_point t0 = Clock::now();
  for (const core::BatchJob& j : jobs) {
    const ScopedSpan span("core.table_load");
    std::optional<core::InductanceTables> tables = cache.load(
        core::TableCache::key_text(tech(), j.layer, j.planes, j.grid, sopt));
    if (!tables) throw std::runtime_error("table cache lost an entry");
    auto model =
        std::make_shared<core::TableInductanceModel>(*std::move(tables));
    t.library.add(j.layer, j.planes, model);
    t.models.push_back(std::move(model));
  }
  t.load_ms = 1e3 * seconds_since(t0);
  return t;
}

/// Set-up campaigns must repeat their counts exactly.
void check_setup_counts(const std::vector<Campaign>& campaigns,
                        Report& report) {
  for (const Campaign& c : campaigns)
    if (!(c.counts == campaigns.front().counts))
      report.fail_run("set-up campaign counts differ: " + c.counts.text() +
                      " vs " + campaigns.front().counts.text());
  std::printf("counts: set-up campaign: %s\n",
              campaigns.front().counts.text().c_str());
}

/// Nanoseconds per table lookup over the self/mutual queries segment
/// extraction makes (core/rlc_extractor.cpp) for every level of `blocks`.
double lookup_ns(const std::vector<geom::Block>& blocks,
                 const core::InductanceLibrary& lib) {
  std::size_t lookups = 0;
  double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  while (lookups == 0 || seconds_since(t0) < 0.2)
    for (const geom::Block& b : blocks) {
      const core::InductanceProvider& p = lib.provider(b.layer_index(),
                                                       b.planes());
      for (std::size_t i = 0; i < b.size(); ++i) {
        sink += p.self(b.trace(i).width, b.length());
        ++lookups;
        for (std::size_t j = i + 1; j < b.size(); ++j) {
          sink += p.mutual(b.trace(i).width, b.trace(j).width,
                           b.spacing(i, j), b.length());
          ++lookups;
        }
      }
    }
  const double ns = 1e9 * seconds_since(t0) / static_cast<double>(lookups);
  return std::isfinite(sink) ? ns : -1.0;
}

struct MnaSize {
  std::size_t dim = 0;
  std::size_t inductors = 0;
  std::size_t steps = 0;
  double bytes_per_step() const {
    // A dense step reads the LU factors and the inductance matrix once.
    return 8.0 * static_cast<double>(dim * dim + inductors * inductors);
  }
};

MnaSize mna_size(const ckt::Netlist& nl, const ckt::TransientOptions& t) {
  MnaSize m;
  m.inductors = nl.inductors().size();
  m.dim = static_cast<std::size_t>(nl.node_count() - 1) +
          nl.vsources().size() + m.inductors;
  m.steps = static_cast<std::size_t>(std::ceil(t.t_stop / t.dt)) + 1;
  return m;
}

/// One-step transient: the MNA assembly, DC solve and factorisation
/// without the march.
double factor_ms(const ckt::Netlist& nl, const ckt::TransientOptions& t) {
  ckt::TransientOptions one = t;
  one.t_stop = t.dt;
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span("ckt.factor");
    (void)ckt::simulate(nl, one);
  }
  return 1e3 * seconds_since(t0);
}

// htree_skew: Section V's experiment — RLC and RC analyze_skew over seeded
// CPW H-trees of 4-16 sinks, with tables characterised in set-up.
void htree_skew(const RunConfig& cfg, Report& report) {
  const solver::SolveOptions sopt = clock_solve_options(150e-12);
  std::vector<core::BatchJob> jobs;
  for (int layer : {5, 6})
    jobs.push_back({layer, geom::PlaneConfig::kNone,
                    core::default_clock_grid()});
  const std::vector<clocktree::HTreeSpec> trees = tree_set(cfg.seed);

  // Set-up: characterise the planes-none tables for layers 5 and 6 into a
  // fresh cache and load them back as the library.
  std::vector<double> setups, characterize, loads;
  std::vector<Campaign> setup_campaigns;
  LoadedTables tables;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    const fs::path dir = cfg.work / ("tables-" + std::to_string(s));
    setup_campaigns.push_back(run_campaign(jobs, sopt, dir));
    tables = load_library(jobs, sopt, dir);
    setups.push_back(seconds_since(t0));
    characterize.push_back(setup_campaigns.back().wall_s);
    loads.push_back(tables.load_ms);
  }
  SmallFanOutGuard guard;  // the skew path's fan-outs: see the constant
  const std::vector<std::vector<double>> d2m =
      d2m_references(trees, tables.library);

  double wall_s = 0.0;
  const std::vector<SkewPass> passes =
      timed_passes(cfg, trees, tables.library, d2m, false, report, &wall_s);
  std::vector<double> walls;
  for (const SkewPass& p : passes) walls.push_back(p.wall_s);
  for (const auto& m : tables.models)
    if (m->tables().self.extrapolation_count() +
            m->tables().mutual.extrapolation_count() +
            m->tables().series_r.extrapolation_count() !=
        0)
      report.fail_run("a table lookup left the grid");

  check_setup_counts(setup_campaigns, report);
  std::printf("counts: trees (sinks, MNA dim RLC/RC, steps):");
  std::vector<MnaSize> rlc_sizes, rc_sizes;
  for (const clocktree::HTreeSpec& spec : trees) {
    const ckt::TransientOptions topt = skew_transient(spec);
    rlc_sizes.push_back(mna_size(
        clocktree::build_tree_netlist(tech(), spec, tables.library,
                                      skew_options(true).ladder)
            .netlist,
        topt));
    rc_sizes.push_back(mna_size(
        clocktree::build_tree_netlist(tech(), spec, tables.library,
                                      skew_options(false).ladder)
            .netlist,
        topt));
    std::printf(" (%zu, %zu/%zu, %zu)", spec.sink_count(),
                rlc_sizes.back().dim, rc_sizes.back().dim,
                rlc_sizes.back().steps);
  }
  std::printf("\n");
  std::printf("skew_s = %.4f s (median of %zu RLC+RC passes over %zu trees; "
              "op_p50_ms here)\n",
              median(walls), walls.size(), trees.size());
  std::printf("characterize_s = %.4f s (set-up campaign, median of %d)\n",
              median(characterize), kSetups);
  report.e2e("setup_s", median(setups));
  report.e2e("op_p50_ms", 1e3 * median(walls));
  report.e2e("ops_per_s", static_cast<double>(walls.size()) / wall_s);
  if (!cfg.trace) return;

  Tracer::get().enable();
  double traced_wall_s = 0.0;
  const std::vector<SkewPass> traced =
      timed_passes(cfg, trees, tables.library, d2m, true, report,
                   &traced_wall_s);
  std::vector<double> traced_walls;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    traced_walls.push_back(traced[p].wall_s);
    for (std::size_t t = 0; t < trees.size() && traced[p].problem.empty();
         ++t)
      if (!same_delays(traced[p].rlc[t], passes.front().rlc[t]) ||
          !same_delays(traced[p].rc[t], passes.front().rc[t]))
        report.fail_run("traced decomposition differs from analyze_skew");
      else if (traced[p].steps[t] != rlc_sizes[t].steps)
        report.fail_run("transient ran " + std::to_string(traced[p].steps[t]) +
                        " steps, not the " +
                        std::to_string(rlc_sizes[t].steps) + " counted");
  }
  // Probes, once per tree and netlist kind, as one pass would call them.
  std::vector<geom::Block> blocks;
  double extract_ms = 0.0, factor_sum_ms = 0.0;
  std::size_t steps = 0;
  MnaSize largest;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    for (bool inductance : {true, false}) {
      const Clock::time_point t0 = Clock::now();
      {
        const ScopedSpan span("clocktree.extract_tree_segments");
        (void)clocktree::extract_tree_segments(tech(), trees[t],
                                               tables.library);
      }
      extract_ms += 1e3 * seconds_since(t0);
      const clocktree::TreeNetlist tree = clocktree::build_tree_netlist(
          tech(), trees[t], tables.library,
          skew_options(inductance).ladder);
      factor_sum_ms += factor_ms(tree.netlist, skew_transient(trees[t]));
      const MnaSize m = inductance ? rlc_sizes[t] : rc_sizes[t];
      steps += m.steps;
      if (m.dim > largest.dim) largest = m;
    }
    for (std::size_t lv = 0; lv < trees[t].levels.size(); ++lv)
      blocks.push_back(clocktree::level_block(tech(), trees[t], lv));
  }
  const double simulate_ms = median_per_unit_ms("ckt.simulate");
  guard.release();
  std::mt19937_64 rng(cfg.seed);
  characterisation_layers(jobs, sopt, setup_campaigns,
                          sample_points(jobs, rng), cfg.work / "probe",
                          report);
  report.layer("core.table_load_ms", median(loads));
  report.layer("core.lookup_ns", lookup_ns(blocks, tables.library));
  report.layer("clocktree.extract_ms", extract_ms);
  report.layer("clocktree.netlist_ms",
               median_per_unit_ms("clocktree.build_tree_netlist"));
  report.layer("ckt.mna_dim", static_cast<double>(largest.dim));
  report.layer("ckt.steps", static_cast<double>(largest.steps));
  report.layer("ckt.factor_ms", factor_sum_ms);
  report.layer("ckt.step_us", 1e3 * (simulate_ms - factor_sum_ms) /
                                  static_cast<double>(steps));
  report.layer("ckt.step_bytes_computed", largest.bytes_per_step());
  report.layer("ckt.simulate_ms", simulate_ms);
  report.layer("ckt.simulate_share",
               simulate_ms / (1e3 * median(traced_walls)));
  report.layer("ckt.measure_ms", median_per_unit_ms("ckt.measure"));
  report.layer("trace.overhead_frac",
               median(traced_walls) / median(walls) - 1.0);
  std::printf("trace: ckt.simulate is %.1f %% of a traced skew pass\n",
              100.0 * simulate_ms / (1e3 * median(traced_walls)));
}

// --------------------------------------------------- workload: warm daemon

/// One seeded `delay` request: a shielded line (the CLI's cpw builder, or
/// the same ground-signal-ground shape as a custom --traces bus with
/// unequal shields and gaps) on layer 5 or 6, every table query inside the
/// CLI's default 4-point grid (same ranges as default_clock_grid()).
struct DelayRequest {
  bool custom = false;
  int layer = 6;
  std::string length, signal, ground_l, ground_r, gap_l, gap_r;  ///< [um]
  int sections = 8;
  bool inductance = true;

  std::vector<std::string> argv() const {
    std::vector<std::string> a{"delay", "--layer", std::to_string(layer),
                               "--length-um", length};
    if (custom) {
      a.insert(a.end(), {"--traces",
                         "g:" + ground_l + ",s:" + signal + ",g:" + ground_r,
                         "--spacings", gap_l + "," + gap_r});
    } else {
      a.insert(a.end(), {"--structure", "cpw", "--signal-um", signal,
                         "--ground-um", ground_l, "--spacing-um", gap_l});
    }
    a.insert(a.end(), {"--sections", std::to_string(sections)});
    if (!inductance) a.push_back("--no-inductance");
    return a;
  }

  /// The block cli::run builds for argv() (cli.cpp make_structure);
  /// checked with the netlist by delay_lines.
  geom::Block block() const {
    const auto v = [](const std::string& s) { return um(std::stod(s)); };
    if (!custom)
      return geom::coplanar_waveguide(tech(), layer, v(length), v(signal),
                                      v(ground_l), v(gap_l));
    const double w[3] = {v(ground_l), v(signal), v(ground_r)};
    const double gap[2] = {v(gap_l), v(gap_r)};
    std::vector<geom::Trace> traces;
    double x = 0.0;
    for (int i = 0; i < 3; ++i) {
      if (i > 0) x += gap[i - 1];
      traces.push_back({i == 1 ? geom::TraceRole::kSignal
                               : geom::TraceRole::kGround,
                        w[i], x + 0.5 * w[i],
                        (i == 1 ? "s" : "g") + std::to_string(i)});
      x += w[i];
    }
    return geom::Block(&tech(), layer, v(length), std::move(traces),
                       geom::PlaneConfig::kNone);
  }
};

std::string two_decimals(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", x);
  return buf;
}

/// One connection's request list: nine templates — {8, 16, 24} sections x
/// {cpw RLC, cpw RC, custom RLC} — three times each with seeded geometry.
/// An odd template count keeps the median inside one template's cluster.
std::vector<DelayRequest> request_list(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<DelayRequest> out;
  for (int rep = 0; rep < 3; ++rep)
    for (int variant = 0; variant < 3; ++variant)
      for (int sections : {8, 16, 24}) {
        DelayRequest r;
        r.custom = variant == 2;
        r.inductance = variant != 1;
        r.sections = sections;
        r.layer = rng() % 2 == 0 ? 5 : 6;
        r.length = two_decimals(400.0 + 4600.0 * u(rng));
        const double gl = 0.6 + 0.9 * u(rng);
        const double gr = r.custom ? 0.6 + 0.9 * u(rng) : gl;
        // Shield-to-shield spacing (signal + both gaps) stays <= 9.5 um.
        const double ws = std::min(2.0 + 4.0 * u(rng), 9.5 - gl - gr);
        r.signal = two_decimals(ws);
        r.gap_l = two_decimals(gl);
        r.gap_r = two_decimals(gr);
        r.ground_l = two_decimals(ws * (1.0 + 0.5 * u(rng)));
        r.ground_r = r.custom ? two_decimals(ws * (1.0 + 0.5 * u(rng)))
                              : r.ground_l;
        out.push_back(r);
      }
  return out;
}

/// The CLI's default table grid (cli.cpp grid_from_args, --points 4).  The
/// set-up checks the copy: the daemon must load these tables from the cache
/// with 0 field solves, which it does only when its own grid key matches.
core::TableGrid cli_grid() {
  core::TableGrid g;
  g.widths = geomspace(um(1), um(20), 4);
  g.spacings = geomspace(um(0.5), um(10), 4);
  g.lengths = geomspace(um(100), um(6000), 4);
  return g;
}

/// The netlist cli::run simulates for a `delay` request (cli.cpp
/// cmd_delay, default driver and load); checked every run by delay_lines.
struct DelayNetlist {
  ckt::Netlist netlist;
  ckt::NodeId buf = 0, sink = 0;
  ckt::TransientOptions transient;
};

DelayNetlist delay_netlist(const DelayRequest& r,
                           const core::InductanceLibrary& lib) {
  const geom::Block blk = r.block();
  const core::SegmentRlc seg = core::extract_segment_rlc(
      blk, lib.provider(r.layer, geom::PlaneConfig::kNone));
  const double tr = 200e-12;
  DelayNetlist d;
  const ckt::NodeId vin = d.netlist.add_node("vin");
  d.buf = d.netlist.add_node("buf");
  d.netlist.add_vsource(vin, ckt::kGround,
                        ckt::SourceWaveform::ramp(1.8, tr));
  d.netlist.add_resistor(vin, d.buf, 25.0);
  core::LadderOptions lopt;
  lopt.sections = r.sections;
  lopt.include_inductance = r.inductance;
  d.sink = core::stamp_segment(d.netlist, blk, seg, {d.buf}, lopt)[0];
  d.netlist.add_capacitor(d.sink, ckt::kGround, 200e-15);
  d.transient.t_stop = 10.0 * tr + 1e-9;
  d.transient.dt = tr / 200.0;
  return d;
}

/// delay_netlist copies cmd_delay, so every run checks it against the
/// program: simulated and measured as cmd_delay does, it must print the
/// same result lines.  Returns those lines; `steps` gets the march length.
std::string delay_lines(const DelayRequest& r,
                        const core::InductanceLibrary& lib,
                        std::size_t* steps) {
  const DelayNetlist d = delay_netlist(r, lib);
  const ckt::TransientResult res = ckt::simulate(d.netlist, d.transient);
  *steps = res.steps();
  const ckt::Waveform wbuf = res.waveform(d.buf);
  const ckt::Waveform wsink = res.waveform(d.sink);
  const double vdd = 1.8;
  std::ostringstream out;
  out << "netlist: " << (r.inductance ? "RLC" : "RC-only") << ", "
      << r.sections << " sections\n";
  out << "buffer->sink 50% delay: "
      << units::to_ps(ckt::delay_50(wbuf, wsink, vdd)) << " ps\n";
  out << "sink overshoot: " << 1e3 * std::max(0.0, wsink.max() - vdd)
      << " mV, undershoot: " << 1e3 * wsink.undershoot() << " mV\n";
  return out.str();
}

/// An in-process `rlcx serve` daemon on a Unix socket, run on its own
/// thread; stop() (or the destructor) sends `shutdown` and joins.
class Daemon {
 public:
  explicit Daemon(const serve::ServeConfig& config)
      : server_(config, diag_), socket_(config.socket_path) {
    thread_ = std::thread([this] {
      try {
        server_.run_socket();
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(m_);
        error_ = e.what();
      }
    });
    for (int i = 0; i < 1000 && !fs::exists(socket_); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!fs::exists(socket_)) {
      stop();
      throw std::runtime_error("daemon did not start: " + error());
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  std::string error() const {
    const std::lock_guard<std::mutex> lock(m_);
    return error_;
  }
  void stop() {
    if (!thread_.joinable()) return;
    try {
      serve::Client c(socket_);
      c.request({"shutdown"});
    } catch (const std::exception&) {
      // Not listening (failed start): the shutdown token still drains it.
    }
    thread_.join();
  }

 private:
  std::ostringstream diag_;  ///< lifecycle lines (kept off stdout)
  serve::Server server_;
  std::string socket_;
  mutable std::mutex m_;
  std::string error_;
  std::thread thread_;  // last: runs against the members above
};

/// "table store: ..." is the warm store's provenance line, the one line a
/// daemon response may differ from a one-shot run in.
std::string without_store_line(const std::string& out) {
  std::istringstream is(out);
  std::string line, kept;
  while (std::getline(is, line))
    if (line.rfind("table store:", 0) != 0) kept += line + "\n";
  return kept;
}

struct Sent {
  int conn = 0;
  std::size_t index = 0;  ///< into the connection's request list
  double ms = 0.0;
  std::string problem;
};

/// What one closed loop sent: every request, and the wall time of every
/// whole cycle through a connection's list (the timed unit).
struct Loop {
  std::vector<Sent> sent;
  std::vector<double> cycle_ms;
  double wall_s = 0.0;
};

/// The closed loop: one thread per connection sends its list in whole
/// cycles (so every template keeps its share) until `seconds` elapse.
Loop closed_loop(const std::string& socket,
                 const std::vector<std::vector<DelayRequest>>& lists,
                 double seconds,
                 std::vector<std::vector<std::string>>* first_out) {
  std::vector<std::vector<Sent>> per(lists.size());
  std::vector<std::vector<double>> cycles_ms(lists.size());
  std::vector<std::string> errors(lists.size());
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < lists.size(); ++c)
    threads.emplace_back([&, c] {
      t_tid = static_cast<int>(c) + 1;
      try {
        serve::Client client(socket);
        std::size_t cycles = 0;
        while (cycles < kMinUnits || Clock::now() < deadline) {
          const Clock::time_point c0 = Clock::now();
          for (std::size_t i = 0; i < lists[c].size(); ++i) {
            t_unit = 1 + (c << 32) + per[c].size();
            Sent s;
            s.conn = static_cast<int>(c);
            s.index = i;
            const Clock::time_point r0 = Clock::now();
            serve::Response resp;
            {
              const ScopedSpan span("serve.roundtrip");
              resp = client.request(lists[c][i].argv());
            }
            s.ms = 1e3 * seconds_since(r0);
            std::string& first = (*first_out)[c][i];
            if (resp.status != 0)
              s.problem = "status " + std::to_string(resp.status) + ": " +
                          resp.err;
            else if (resp.err.find("warning") != std::string::npos)
              s.problem = "warning: " + resp.err;
            else if (first.empty())
              first = resp.out;
            else if (resp.out != first)
              s.problem = "stdout differs from the same request's first";
            per[c].push_back(std::move(s));
          }
          cycles_ms[c].push_back(1e3 * seconds_since(c0));
          ++cycles;
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  Loop loop;
  loop.wall_s = seconds_since(t0);
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
  for (std::size_t c = 0; c < lists.size(); ++c) {
    loop.sent.insert(loop.sent.end(), per[c].begin(), per[c].end());
    loop.cycle_ms.insert(loop.cycle_ms.end(), cycles_ms[c].begin(),
                         cycles_ms[c].end());
  }
  return loop;
}

/// (hits, misses) from the daemon's `stats` reply.
std::pair<double, double> warm_counts(const std::string& socket) {
  serve::Client c(socket);
  const serve::Response r = c.request({"stats"});
  const std::size_t at = r.out.find("warm store: ");
  std::size_t hits = 0, misses = 0;
  if (at == std::string::npos ||
      std::sscanf(r.out.c_str() + at, "warm store: %zu hits, %zu misses",
                  &hits, &misses) != 2)
    throw std::runtime_error("stats reply without warm-store counts");
  return {static_cast<double>(hits), static_cast<double>(misses)};
}

/// The highest percentile with at least ten samples beyond it.
std::string tail_text(std::vector<double> v, double* tail) {
  std::sort(v.begin(), v.end());
  char buf[128];
  if (v.size() < 11) {
    *tail = v.empty() ? 0.0 : v.back();
    std::snprintf(buf, sizeof buf, "max of %zu samples (too few for a "
                                   "percentile with 10 beyond)", v.size());
    return buf;
  }
  const std::size_t k = v.size() - 11;
  *tail = v[k];
  std::snprintf(buf, sizeof buf, "p%.2f of %zu samples, 10 beyond",
                100.0 * static_cast<double>(k + 1) /
                    static_cast<double>(v.size()),
                v.size());
  return buf;
}

// serve_warm: an in-process daemon answering `delay` requests from two
// closed-loop connections over table keys made warm in set-up.
void serve_warm(const RunConfig& cfg, Report& report) {
  const solver::SolveOptions sopt = clock_solve_options(200e-12);  // CLI's
  std::vector<core::BatchJob> jobs;
  for (int layer : {5, 6})
    jobs.push_back({layer, geom::PlaneConfig::kNone, cli_grid()});
  std::mt19937_64 rng(cfg.seed);
  std::vector<std::vector<DelayRequest>> lists;
  for (int c = 0; c < 2; ++c) lists.push_back(request_list(rng));

  // Set-up: characterise the keys into a fresh cache, start the daemon,
  // and prime its warm store with one request per key.
  std::vector<double> setups, characterize;
  std::vector<Campaign> setup_campaigns;
  std::unique_ptr<Daemon> daemon;
  fs::path cache_dir;
  for (int s = 0; s < kSetups; ++s) {
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    cache_dir = cfg.work / ("serve-" + std::to_string(s));
    setup_campaigns.push_back(run_campaign(jobs, sopt, cache_dir));
    serve::ServeConfig sc;
    sc.cache_dir = cache_dir.string();
    sc.socket_path = "serve-" + std::to_string(s) + ".sock";  // cwd-relative
    daemon = std::make_unique<Daemon>(sc);
    serve::Client client(daemon->socket());
    for (int layer : {5, 6}) {
      DelayRequest r = lists[0][0];
      r.layer = layer;
      const serve::Response resp = client.request(r.argv());
      if (resp.status != 0 ||
          resp.out.find("warm miss") == std::string::npos ||
          resp.out.find(", 0 field solves") == std::string::npos)
        throw std::runtime_error("priming request did not load the cached "
                                 "tables: " + resp.out + resp.err);
    }
    setups.push_back(seconds_since(t0));
    characterize.push_back(setup_campaigns.back().wall_s);
  }
  const std::pair<double, double> primed = warm_counts(daemon->socket());

  std::vector<std::vector<std::string>> first_out;
  for (const auto& l : lists) first_out.emplace_back(l.size());
  Loop timed;
  {
    const WarningCounter warnings;
    timed = closed_loop(daemon->socket(), lists, cfg.seconds, &first_out);
    charge_warnings(warnings, "serve requests", report);
  }
  const std::pair<double, double> after = warm_counts(daemon->socket());
  std::vector<double> lat;
  for (const Sent& s : timed.sent) lat.push_back(s.ms);

  Loop traced;
  std::pair<double, double> final_counts = after;
  if (cfg.trace) {
    Tracer::get().enable();
    traced = closed_loop(daemon->socket(), lists, cfg.seconds, &first_out);
    final_counts = warm_counts(daemon->socket());
  }
  daemon.reset();
  const double misses = final_counts.second - primed.second;

  // Reference: the same argv through cli::run in-process over a warm store
  // of the same cache; stdout must match byte for byte but for the store's
  // provenance line.
  serve::WarmTableStore store(cache_dir.string(), 16);
  std::vector<std::vector<std::string>> mismatch(lists.size());
  for (std::size_t c = 0; c < lists.size(); ++c) {
    mismatch[c].resize(lists[c].size());
    for (std::size_t i = 0; i < lists[c].size(); ++i) {
      std::ostringstream out, err;
      int code = 0;
      {
        const ScopedSpan span("cli.run");
        code = cli::run(lists[c][i].argv(), out, err, &store);
      }
      if (code != 0 || err.str().find("warning") != std::string::npos)
        mismatch[c][i] = "in-process run exit " + std::to_string(code) +
                         ": " + err.str();
      else if (without_store_line(out.str()) !=
               without_store_line(first_out[c][i]))
        mismatch[c][i] = "daemon stdout differs from cli::run";
    }
  }
  for (const Loop* l : {&timed, &traced})
    for (const Sent& s : l->sent)
      report.op(!s.problem.empty() ? s.problem : mismatch[s.conn][s.index]);
  if (misses != 0) report.fail_run("warm-store misses in the timed phase");

  // Deterministic counts: the set-up campaigns and the requests' MNA
  // systems, built by the bench's copy of cmd_delay from the final set-up's
  // tables — checked against the daemon's own result lines first.
  check_setup_counts(setup_campaigns, report);
  const LoadedTables tables = load_library(jobs, sopt, cache_dir);
  std::map<std::size_t, std::size_t> dims;  // MNA dim -> distinct requests
  MnaSize largest;
  for (std::size_t c = 0; c < lists.size(); ++c)
    for (std::size_t i = 0; i < lists[c].size(); ++i) {
      const DelayRequest& r = lists[c][i];
      const DelayNetlist d = delay_netlist(r, tables.library);
      const MnaSize m = mna_size(d.netlist, d.transient);
      std::size_t steps = 0;
      const std::string lines = delay_lines(r, tables.library, &steps);
      if (first_out[c][i].find(lines) == std::string::npos || steps != m.steps)
        report.fail_run("the bench's copy of cmd_delay printed\n" + lines +
                        "(" + std::to_string(steps) + " steps) where the "
                        "daemon printed\n" + first_out[c][i]);
      ++dims[m.dim];
      if (m.dim > largest.dim) largest = m;
    }
  std::printf("check: the bench's cmd_delay netlists reproduce the daemon's "
              "delay and overshoot lines\n");
  std::printf("counts: request MNA dims (dim x distinct requests):");
  for (const auto& [dim, n] : dims) std::printf(" %zux%zu", dim, n);
  std::printf(", %zu steps each\n", largest.steps);
  std::printf("counts: %zu requests in %zu cycles, warm store %g hits / %g "
              "misses after priming (%g misses while timed)\n",
              timed.sent.size(), timed.cycle_ms.size(), after.first,
              after.second, misses);
  double tail = 0.0;
  const std::string tail_label = tail_text(lat, &tail);
  std::printf("request_p50_ms = %.4f ms, request_tail_ms = %.4f ms (%s), "
              "requests_per_s = %.3f /s\n",
              median(lat), tail, tail_label.c_str(),
              static_cast<double>(lat.size()) / timed.wall_s);
  std::printf("cycle of %zu requests: %.4f ms (median of %zu; op_p50_ms "
              "here)\n",
              lists.front().size(), median(timed.cycle_ms),
              timed.cycle_ms.size());
  std::printf("characterize_s = %.4f s (set-up campaign on the CLI grid, "
              "median of %d)\n",
              median(characterize), kSetups);
  report.e2e("setup_s", median(setups));
  report.e2e("op_p50_ms", median(timed.cycle_ms));
  report.e2e("ops_per_s", static_cast<double>(lat.size()) / timed.wall_s);
  if (!cfg.trace) return;

  // Layer probes of the delay transient: each distinct request's netlist
  // factored, marched and measured under spans.
  std::vector<geom::Block> blocks;
  std::vector<double> factor, step_us;
  for (const auto& list : lists)
    for (const DelayRequest& r : list) {
      blocks.push_back(r.block());
      const DelayNetlist d = delay_netlist(r, tables.library);
      factor.push_back(factor_ms(d.netlist, d.transient));
      const Clock::time_point t0 = Clock::now();
      std::optional<ckt::TransientResult> res;
      {
        const ScopedSpan span("ckt.simulate");
        res.emplace(ckt::simulate(d.netlist, d.transient));
      }
      step_us.push_back((1e3 * seconds_since(t0) - factor.back()) * 1e3 /
                        static_cast<double>(res->steps()));
      const ScopedSpan span("ckt.measure");
      const ckt::Waveform wbuf = res->waveform(d.buf);
      const ckt::Waveform wsink = res->waveform(d.sink);
      (void)ckt::delay_50(wbuf, wsink, 1.8);
      (void)wsink.max();
      (void)wsink.undershoot();
    }
  const double run_ms = median_each_ms("cli.run");
  const double roundtrip_ms = median_each_ms("serve.roundtrip");
  characterisation_layers(jobs, sopt, setup_campaigns,
                          sample_points(jobs, rng), cfg.work / "probe",
                          report);
  report.layer("core.lookup_ns", lookup_ns(blocks, tables.library));
  report.layer("ckt.mna_dim", static_cast<double>(largest.dim));
  report.layer("ckt.steps", static_cast<double>(largest.steps));
  report.layer("ckt.factor_ms", median(factor));
  report.layer("ckt.step_us", median(step_us));
  report.layer("ckt.step_bytes_computed", largest.bytes_per_step());
  report.layer("ckt.simulate_ms", median_each_ms("ckt.simulate"));
  report.layer("ckt.simulate_share",
               median_each_ms("ckt.simulate") / run_ms);
  report.layer("ckt.measure_ms", median_each_ms("ckt.measure"));
  report.layer("cli.run_ms", run_ms);
  report.layer("serve.roundtrip_ms", roundtrip_ms);
  report.layer("serve.overhead_ms", roundtrip_ms - run_ms);
  report.layer("serve.warm_hits", final_counts.first);
  report.layer("serve.warm_misses", final_counts.second);
  report.layer("trace.overhead_frac",
               median(traced.cycle_ms) / median(timed.cycle_ms) - 1.0);
}

// -------------------------------------------------------------------- main

void print_environment(int nproc) {
  std::printf("env: rt pool width %d, simd %s, nproc %d, caches L1d %ld B, "
              "L2 %ld B, L3 %ld B\n",
              rt::Pool::global().size(),
              numeric::simd_mode_name(numeric::simd_mode()), nproc,
              sysconf(_SC_LEVEL1_DCACHE_SIZE), sysconf(_SC_LEVEL2_CACHE_SIZE),
              sysconf(_SC_LEVEL3_CACHE_SIZE));
}

void print_result(const RunConfig& cfg, Report& report) {
  const bool correct =
      !report.run_failed && report.failed == 0 && report.attempted > 0;
  for (const std::string& p : report.problems)
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  std::printf("ok_frac = %.6f (%zu of %zu operations checked out)%s\n",
              report.attempted == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted),
              report.attempted - report.failed, report.attempted,
              report.run_failed ? "; the run FAILED a whole-run check" : "");
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m, double v) {
    std::printf("%-26s %16s %s\n", m.name, fmt(v).c_str(), m.unit);
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << fmt(v) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (cfg.trace) {
    for (const MetricSpec& m : kLayers) emit(m, report.layers[m.name]);
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = report.end_to_end.find(m.name);
      if (it == report.end_to_end.end())
        throw std::logic_error(std::string("unreported metric ") + m.name);
      emit(m, it->second);
    }
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

int run_main(int argc, char** argv) {
  RunConfig cfg;
  fs::path out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::stoull(v);
    else if (k == "--seconds") cfg.seconds = std::stod(v);
    else if (k == "--trace") cfg.trace = v != "0";
    else if (k == "--out-dir") out_dir = fs::absolute(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  const std::map<std::string, void (*)(const RunConfig&, Report&)> workloads{
      {"characterize_cold", characterize_cold},
      {"htree_skew", htree_skew},
      {"serve_warm", serve_warm},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end() || out_dir.empty() || !(cfg.seconds > 0.0))
    throw std::invalid_argument(
        "usage: rlcx_e2ebench --workload characterize_cold|htree_skew|"
        "serve_warm --seed N --seconds S --trace 0|1 --out-dir DIR");

  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  rt::Pool::set_global_threads(std::min(kPoolWidth, std::max(1, nproc)));
  print_environment(nproc);
  if (kSerialiseSmallFanOuts)
    std::printf("note: fan-outs outside characterisation campaigns (the "
                "skew path, direct checks, probes) run serially: "
                "rt::TaskGroup::task_done race, see kSerialiseSmallFanOuts\n");
  std::printf("workload %s, seed %llu, %g s timed%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? ", traced" : "");

  cfg.work = out_dir / ("work-" + cfg.workload + "-" +
                        std::to_string(static_cast<long>(getpid())));
  fs::remove_all(cfg.work);
  fs::create_directories(cfg.work);
  const fs::path home = fs::current_path();
  fs::current_path(cfg.work);  // short, relative Unix socket paths
  Report report;
  try {
    it->second(cfg, report);
  } catch (...) {
    fs::current_path(home);
    fs::remove_all(cfg.work);
    throw;
  }
  fs::current_path(home);
  fs::remove_all(cfg.work);
  report.e2e("peak_rss_mib", peak_rss_mib());
  report.layer("res.peak_mib",
               static_cast<double>(res::Budget::global().peak()) / 1048576.0);
  report.layer("rt.threads", static_cast<double>(rt::Pool::global().size()));
  if (cfg.trace) {
    fs::create_directories(out_dir / "traces");
    const fs::path file = out_dir / "traces" /
                          (cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           ".json");
    Tracer::get().write(file);
    std::printf("trace: spans written to %s\n", file.string().c_str());
  }
  print_result(cfg, report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even into a pipe, so a run that dies still shows how far
  // it got.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlcx_e2ebench: %s\n", e.what());
    return 1;
  }
}
