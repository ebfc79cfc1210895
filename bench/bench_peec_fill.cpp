// P2 — the PEEC hot path: relative-geometry kernel memoization and the
// impedance solve's dense phase.
//
// Part 1 times the partial-inductance matrix fill on a uniform skin-depth
// style mesh, memo off (the direct-fill oracle of tests/support) vs memo on
// (the library's fill), single-threaded (rt::SerialRegion), and checks the
// two fills agree element-exactly (the translation-only key's contract on
// a uniform mesh).  Part 2 times the cold (memo-off) direct fill through
// the batch engine against the scalar libm kernels.  Part 3 runs one
// serial planes-below table build on a small grid and records its
// deterministic kernel counters.  Part 4 times the impedance solve's dense
// phase at the two plane sizes (76 and 196 filaments): the pivoted LU plus
// the multi-RHS solve over one column per conductor, against the
// complex-symmetric LDLᵀ plus the forward-only reduction over the signals
// and the merged return, and checks the two merged port admittances agree
// to 1e-12 relative.  Output is JSON so CI and plotting scripts can consume
// it directly; the committed baseline lives in BENCH_peec.json.
//
// Flags / environment:
//   --smoke               tiny sizes, for the CI tier-1 job (seconds, not
//                         minutes; speedup numbers are not meaningful there)
//   --check FILE          exit 1 unless the table build's counters (pair
//                         lookups, kernel evaluations, volume terms and
//                         corners, filament terms) appear verbatim in FILE,
//                         the committed baseline; the build is the same
//                         with or without --smoke, and wall time is never
//                         gated
//   RLCX_BENCH_MESH=N     override the cross-section mesh to N x N cells
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/table_builder.h"
#include "geom/technology.h"
#include "numeric/ldlt.h"
#include "numeric/matrix.h"
#include "numeric/simd.h"
#include "peec/assembly.h"
#include "peec/kernel_batch.h"
#include "peec/mesh.h"
#include "peec/partial_inductance.h"
#include "rt/pool.h"
#include "solver/frequency.h"
#include "support/direct_fill_reference.h"
#include "support/lu_reference.h"
#include "support/partial_reference.h"

using namespace rlcx;
using C = std::complex<double>;

namespace {

double now_wall(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Uniform nw x nt mesh of a clock-wire-like bar: every pair class repeats
/// across the grid, the geometry the memo is built for.
std::vector<peec::Filament> uniform_mesh(std::size_t nw, std::size_t nt) {
  peec::Bar envelope;
  envelope.axis = peec::Axis::kY;
  envelope.a_min = 0.0;
  envelope.length = 64.0;
  envelope.t_min = 0.0;
  envelope.t_width = 1.0;
  envelope.z_min = 0.0;
  envelope.z_thick = 0.5;
  peec::MeshOptions mo;
  mo.nw = nw;
  mo.nt = nt;
  mo.grading = 1.0;
  std::vector<peec::Filament> fils;
  for (const peec::Bar& b : peec::mesh_cross_section(envelope, mo))
    fils.push_back({b, 1.0, 0.0});
  return fils;
}

struct FillResult {
  double wall_off = 0.0;
  double wall_on = 0.0;
  double hit_rate = 0.0;
  std::size_t kernel_evals_off = 0;  ///< the direct fill evaluates every pair
  std::size_t kernel_evals_on = 0;
  std::size_t pair_lookups = 0;
  double max_rel_dev = 0.0;
  std::size_t filaments = 0;
};

FillResult run_fill(std::size_t nw, std::size_t nt) {
  const std::vector<peec::Filament> fils = uniform_mesh(nw, nt);
  rt::SerialRegion serial;  // single-threaded: measure the kernel, not the pool

  FillResult r;
  r.filaments = fils.size();

  const auto t0 = std::chrono::steady_clock::now();
  const RealMatrix direct = peec::direct_partial_inductance_matrix(fils);
  r.wall_off = now_wall(t0);

  peec::FillStats on;
  const auto t1 = std::chrono::steady_clock::now();
  const RealMatrix memo =
      peec::partial_inductance_matrix(fils, {}, nullptr, &on);
  r.wall_on = now_wall(t1);
  r.kernel_evals_on = on.kernel_evals;
  r.pair_lookups = on.pair_lookups;
  r.kernel_evals_off = on.pair_lookups;
  r.hit_rate = on.hit_rate();

  double scale = 0.0;
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      scale = std::max(scale, std::abs(direct(i, j)));
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      r.max_rel_dev = std::max(
          r.max_rel_dev, std::abs(direct(i, j) - memo(i, j)) / scale);
  return r;
}

struct ColdResult {
  double wall_legacy = 0.0;      ///< scalar libm kernels, pair by pair
  double wall_scalar = 0.0;      ///< batch engine, forced RLCX_SIMD=scalar
  double wall_simd = 0.0;        ///< batch engine, auto dispatch
  const char* simd_mode = "";    ///< what auto resolved to
  std::size_t pairs = 0;         ///< upper-triangle bar pairs per fill
  std::size_t kernel_terms = 0;  ///< engine kernel terms per fill
  std::size_t legacy_terms = 0;  ///< chunk pairs the libm sweep sums
  double max_rel_dev = 0.0;      ///< engine (simd) vs legacy, scale-relative
  double simd_vs_scalar_dev = 0.0;  ///< engine simd vs engine scalar (bitwise)
  std::size_t filaments = 0;
};

/// Cold fill: the direct fill, so every upper-triangle pair pays its full
/// kernel evaluation.  This isolates raw kernel throughput — the quantity
/// the batch engine vectorizes — from the memo's class collapsing.  The
/// legacy baseline walks the pairs through the scalar libm kernels
/// (self_partial / mutual_partial), which sum every chunk pair; the engine
/// fills run the same geometry through the batch evaluator, which sums one
/// term per chunk offset, at forced-scalar and auto-dispatched SIMD modes.
ColdResult run_cold(std::size_t nw, std::size_t nt, int reps) {
  const std::vector<peec::Filament> fils = uniform_mesh(nw, nt);
  rt::SerialRegion serial;
  const std::size_t n = fils.size();
  const peec::PartialOptions opt;

  ColdResult r;
  r.filaments = n;
  r.pairs = n * (n + 1) / 2;
  r.simd_mode = peec::batch_simd_name();

  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(
        peec::chunk_count(fils[i].bar, opt.max_aspect));
    r.legacy_terms += c * (c + 1) / 2;
    for (std::size_t j = i + 1; j < n; ++j) {
      const peec::PairChunking pc =
          peec::pair_chunking(fils[i].bar, fils[j].bar, opt.max_aspect);
      r.legacy_terms += static_cast<std::size_t>(pc.n1 * pc.n2);
    }
  }

  RealMatrix legacy(n, n);
  r.wall_legacy = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      legacy(i, i) = peec::self_partial(fils[i].bar, opt);
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = peec::mutual_partial(fils[i].bar, fils[j].bar, opt);
        legacy(i, j) = legacy(j, i) = v;
      }
    }
    r.wall_legacy = std::min(r.wall_legacy, now_wall(t0));
  }

  const auto engine_fill = [&](numeric::SimdMode mode, double* wall) {
    numeric::simd_force_mode(mode);
    RealMatrix out(0, 0);
    *wall = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      out = peec::direct_partial_inductance_matrix(fils, opt);
      *wall = std::min(*wall, now_wall(t0));
    }
    return out;
  };

  const peec::BatchStats b0 = peec::batch_stats_total();
  const RealMatrix scalar_fill =
      engine_fill(numeric::SimdMode::kScalar, &r.wall_scalar);
  const peec::BatchStats b1 = peec::batch_stats_total();
  r.kernel_terms = ((b1.volume_terms + b1.filament_terms) -
                    (b0.volume_terms + b0.filament_terms)) /
                   static_cast<std::size_t>(reps);

  // Auto dispatch: the widest mode this machine supports.
  numeric::simd_force_mode(numeric::simd_mode_from_env(nullptr));
  r.simd_mode = peec::batch_simd_name();
  RealMatrix simd_fill(0, 0);
  {
    double wall = 0.0;
    const numeric::SimdMode best = numeric::simd_mode_from_env(nullptr);
    simd_fill = engine_fill(best, &wall);
    r.wall_simd = wall;
  }
  // Restore the environment policy for whatever runs next.
  numeric::simd_force_mode(
      numeric::simd_mode_from_env(std::getenv("RLCX_SIMD")));

  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      scale = std::max(scale, std::abs(legacy(i, j)));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      r.max_rel_dev = std::max(
          r.max_rel_dev, std::abs(simd_fill(i, j) - legacy(i, j)) / scale);
      r.simd_vs_scalar_dev =
          std::max(r.simd_vs_scalar_dev,
                   std::abs(simd_fill(i, j) - scalar_fill(i, j)));
    }
  return r;
}

struct TableBuildResult {
  std::size_t points = 0;
  std::size_t pair_lookups = 0;
  std::size_t kernel_evals = 0;
  std::size_t volume_terms = 0;
  std::size_t volume_corners = 0;
  std::size_t filament_terms = 0;
  double wall_s = 0.0;

  /// The deterministic part, as printed in the JSON (the --check key).
  std::string counters() const {
    std::ostringstream s;
    s << "\"points\": " << points << ", \"pair_lookups\": " << pair_lookups
      << ", \"kernel_evals\": " << kernel_evals
      << ", \"volume_terms\": " << volume_terms
      << ", \"volume_corners\": " << volume_corners
      << ", \"filament_terms\": " << filament_terms;
    return s.str();
  }
};

/// One serial build_tables of layer 6 over a ground plane (loop mode, the
/// largest fills of a characterisation) over widths 1/4.47/20 um, spacings
/// 0.5/10 um and lengths 775/6000 um (36 points), at the significant
/// frequency of a 150 ps edge.  Its counters are a pure function of the geometry and the PEEC
/// engine, so they are identical with and without --smoke.
TableBuildResult run_table_build() {
  core::TableGrid grid;
  grid.widths = {1e-6, 4.47e-6, 20e-6};
  grid.spacings = {0.5e-6, 10e-6};
  grid.lengths = {775e-6, 6000e-6};
  solver::SolveOptions sopt;
  sopt.frequency = solver::significant_frequency(150e-12);
  const geom::Technology tech = geom::Technology::generic_025um();

  core::BuildStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  (void)core::build_tables(tech, 6, geom::PlaneConfig::kBelow, grid, sopt,
                           /*threads=*/1, &stats);
  TableBuildResult r;
  r.wall_s = now_wall(t0);
  r.points = stats.solves;
  r.pair_lookups = stats.pair_lookups;
  r.kernel_evals = stats.kernel_evals;
  r.volume_terms = stats.batch_volume_terms;
  r.volume_corners = stats.batch_volume_corners;
  r.filament_terms = stats.batch_filament_terms;
  return r;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

struct LdltResult {
  std::size_t n = 0;
  std::size_t conductors = 0;  ///< LU path: one port per conductor
  std::size_t ports = 0;       ///< LDLᵀ path: signals + merged return
  double lu_factor_s = 0.0;
  double lu_solve_s = 0.0;  ///< multi-RHS solve and PᵀX
  double ldlt_factor_s = 0.0;
  double ldlt_reduce_s = 0.0;
  double max_rel_dev = 0.0;
};

/// The dense phase of one impedance solve on a plane-sized system.  Z is
/// diag(R) + jωLp over the partial inductances of an nw x nt uniform mesh
/// (R = 5 % of ωLp's diagonal, the inductive regime of the significant
/// frequency); its filaments split into `conductors` contiguous runs, the
/// first two signals and the rest grounds.  The LU path reduces to one
/// port per conductor as the bordered reduction did; the LDLᵀ path to the
/// two signals plus the merged return.  The gate compares the merged
/// admittances: QᵀY_cQ from the LU path against the LDLᵀ's Y.  Best of
/// `reps` per phase.
LdltResult run_ldlt(std::size_t nw, std::size_t nt, std::size_t conductors,
                    int reps) {
  const std::vector<peec::Filament> fils = uniform_mesh(nw, nt);
  rt::SerialRegion serial;
  const std::size_t n = fils.size();
  const RealMatrix lp = peec::partial_inductance_matrix(fils);
  Matrix<C> z(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) z(i, j) = C(0.0, lp(i, j));
    z(i, i) += 0.05 * lp(i, i);
  }
  constexpr std::size_t kSignals = 2;
  const std::size_t ports = kSignals + 1;
  std::vector<std::size_t> owner(n), port(n);
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = i * conductors / n;
    port[i] = std::min(owner[i], kSignals);
  }

  LdltResult r;
  r.n = n;
  r.conductors = conductors;
  r.ports = ports;
  r.lu_factor_s = r.lu_solve_s = r.ldlt_factor_s = r.ldlt_reduce_s = 1e300;
  Matrix<C> yc(conductors, conductors), ym(ports, ports);
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const LuDecomposition<C> lu(z);
    r.lu_factor_s = std::min(r.lu_factor_s, now_wall(t0));
    const auto t1 = std::chrono::steady_clock::now();
    Matrix<C> p(n, conductors);
    for (std::size_t i = 0; i < n; ++i) p(i, owner[i]) = 1.0;
    const Matrix<C> x = lu.solve(p);
    Matrix<C> y(conductors, conductors);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t b = 0; b < conductors; ++b) y(owner[i], b) += x(i, b);
    r.lu_solve_s = std::min(r.lu_solve_s, now_wall(t1));
    yc = y;

    const auto t2 = std::chrono::steady_clock::now();
    const ComplexSymmetricLdlt ldlt(z);
    r.ldlt_factor_s = std::min(r.ldlt_factor_s, now_wall(t2));
    const auto t3 = std::chrono::steady_clock::now();
    Matrix<C> q(n, ports);
    for (std::size_t i = 0; i < n; ++i) q(i, port[i]) = 1.0;
    ym = ldlt.reduce(std::move(q));
    r.ldlt_reduce_s = std::min(r.ldlt_reduce_s, now_wall(t3));
  }

  Matrix<C> merged(ports, ports);
  for (std::size_t a = 0; a < conductors; ++a)
    for (std::size_t b = 0; b < conductors; ++b)
      merged(std::min(a, kSignals), std::min(b, kSignals)) += yc(a, b);
  double scale = 0.0;
  for (std::size_t a = 0; a < ports; ++a)
    for (std::size_t b = 0; b < ports; ++b)
      scale = std::max(scale, std::abs(merged(a, b)));
  for (std::size_t a = 0; a < ports; ++a)
    for (std::size_t b = 0; b < ports; ++b)
      r.max_rel_dev = std::max(r.max_rel_dev,
                               std::abs(merged(a, b) - ym(a, b)) / scale);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* check = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_peec_fill [--smoke] [--check FILE]\n");
      return 2;
    }
  }
  const std::string baseline = check != nullptr ? read_file(check) : "";
  if (check != nullptr && baseline.empty()) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", check);
    return 1;
  }

  const std::size_t mesh = static_cast<std::size_t>(
      env_int("RLCX_BENCH_MESH", smoke ? 8 : 16));
  std::fprintf(stderr, "bench_peec_fill: %zux%zu mesh%s\n", mesh, mesh,
               smoke ? " (smoke)" : "");

  const FillResult fill = run_fill(mesh, mesh);
  // Cold-fill kernel throughput on the 8x8 (64-strip) microstrip mesh —
  // the acceptance case for the batch engine; smoke keeps one rep.
  const ColdResult cold = run_cold(8, 8, smoke ? 1 : 5);
  const TableBuildResult build = run_table_build();
  // The production plane sizes: layer 6 over one plane (2 traces + 15
  // strips, 76 filaments) and between two (2 + 30 strips, 196).
  const int ldlt_reps = smoke ? 3 : 50;
  const std::vector<LdltResult> ldlts = {run_ldlt(4, 19, 17, ldlt_reps),
                                         run_ldlt(14, 14, 32, ldlt_reps)};

  std::printf("{\n  \"experiment\": \"peec_fill\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"fill\": {\n");
  std::printf("    \"filaments\": %zu,\n", fill.filaments);
  std::printf("    \"pair_lookups\": %zu,\n", fill.pair_lookups);
  std::printf("    \"kernel_evals_memo_off\": %zu,\n", fill.kernel_evals_off);
  std::printf("    \"kernel_evals_memo_on\": %zu,\n", fill.kernel_evals_on);
  std::printf("    \"hit_rate\": %.4f,\n", fill.hit_rate);
  std::printf("    \"wall_s_memo_off\": %.4f,\n", fill.wall_off);
  std::printf("    \"wall_s_memo_on\": %.4f,\n", fill.wall_on);
  std::printf("    \"speedup\": %.2f,\n", fill.wall_off / fill.wall_on);
  std::printf("    \"max_rel_dev\": %.3e\n", fill.max_rel_dev);
  std::printf("  },\n");
  std::printf("  \"cold_fill\": {\n");
  std::printf("    \"filaments\": %zu,\n", cold.filaments);
  std::printf("    \"pairs\": %zu,\n", cold.pairs);
  std::printf("    \"kernel_terms\": %zu,\n", cold.kernel_terms);
  std::printf("    \"legacy_terms\": %zu,\n", cold.legacy_terms);
  std::printf("    \"simd_mode\": \"%s\",\n", cold.simd_mode);
  std::printf("    \"wall_s_legacy\": %.4f,\n", cold.wall_legacy);
  std::printf("    \"wall_s_engine_scalar\": %.4f,\n", cold.wall_scalar);
  std::printf("    \"wall_s_engine_simd\": %.4f,\n", cold.wall_simd);
  std::printf("    \"terms_per_s_legacy\": %.3e,\n",
              static_cast<double>(cold.legacy_terms) / cold.wall_legacy);
  std::printf("    \"terms_per_s_engine_simd\": %.3e,\n",
              static_cast<double>(cold.kernel_terms) / cold.wall_simd);
  std::printf("    \"speedup_engine_scalar\": %.2f,\n",
              cold.wall_legacy / cold.wall_scalar);
  std::printf("    \"speedup_engine_simd\": %.2f,\n",
              cold.wall_legacy / cold.wall_simd);
  std::printf("    \"max_rel_dev_vs_legacy\": %.3e,\n", cold.max_rel_dev);
  std::printf("    \"simd_vs_scalar_dev\": %.3e\n", cold.simd_vs_scalar_dev);
  std::printf("  },\n");
  std::printf("  \"table_build\": {%s, \"wall_s\": %.4f},\n",
              build.counters().c_str(), build.wall_s);
  std::printf("  \"ldlt\": [\n");
  for (std::size_t i = 0; i < ldlts.size(); ++i) {
    const LdltResult& l = ldlts[i];
    const double lu_s = l.lu_factor_s + l.lu_solve_s;
    const double ldlt_s = l.ldlt_factor_s + l.ldlt_reduce_s;
    std::printf("    {\"n\": %zu, \"conductors\": %zu, \"ports\": %zu, "
                "\"lu_factor_us\": %.1f, \"lu_solve_us\": %.1f, "
                "\"ldlt_factor_us\": %.1f, \"ldlt_reduce_us\": %.1f, "
                "\"speedup\": %.2f, \"max_rel_dev\": %.3e}%s\n",
                l.n, l.conductors, l.ports, 1e6 * l.lu_factor_s,
                1e6 * l.lu_solve_s, 1e6 * l.ldlt_factor_s,
                1e6 * l.ldlt_reduce_s, lu_s / ldlt_s, l.max_rel_dev,
                i + 1 < ldlts.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  // Correctness gates; the speedup numbers are informational (they depend
  // on the machine), the agreement bounds are not.
  if (fill.max_rel_dev != 0.0) {
    std::fprintf(stderr, "FAIL: memo fill deviates from direct fill\n");
    return 1;
  }
  // SIMD modes are bit-identical by construction (docs/performance.md
  // "Batched kernel evaluation"); any deviation at all is a build bug
  // (contraction or reassociation leaked into a kernel TU).
  if (cold.simd_vs_scalar_dev != 0.0) {
    std::fprintf(stderr, "FAIL: SIMD engine fill deviates from scalar mode\n");
    return 1;
  }
  // Engine vs the legacy libm kernels: same math, different transcendental
  // implementations — agreement is bounded by the chunked-sum cancellation
  // noise floor, one decade above the per-bracket ~1e-8.
  if (cold.max_rel_dev > 1e-6) {
    std::fprintf(stderr, "FAIL: batch engine deviates from legacy kernels\n");
    return 1;
  }
  if (check != nullptr &&
      baseline.find(build.counters()) == std::string::npos) {
    std::fprintf(stderr, "FAIL: table-build counters differ from %s: %s\n",
                 check, build.counters().c_str());
    return 1;
  }
  // The merged-return identity is exact; the two paths differ by
  // round-off only (docs/performance.md "Complex-symmetric LDLᵀ and the
  // merged return").
  for (const LdltResult& l : ldlts)
    if (l.max_rel_dev > 1e-12) {
      std::fprintf(stderr,
                   "FAIL: LDLᵀ reduction deviates from the LU beyond 1e-12 "
                   "at n=%zu\n",
                   l.n);
      return 1;
    }
  return 0;
}
