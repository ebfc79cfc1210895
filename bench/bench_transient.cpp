// P4 — the condensed nodal transient (src/ckt/transient.cpp,
// src/ckt/companion.h) on CPW H-trees of 4 to 512 sinks with 4-section
// ladders, RLC(K) and RC.
//
// Per tree the bench records deterministic counters of the system
// ckt::simulate factors — its dimension, nnz(A) of the condensed
// trapezoidal matrix, nnz(L+U) of its factors, and steps — plus the MNA
// dimension (ckt/mna.h) it was condensed from, the steps of the same
// march with analyze_skew's measures registered (certified_steps: equal
// to steps when the stop rule never fires), and wall times: the
// factorisation (fill-reducing order plus numeric LU),
// the per-step share of ckt::simulate after that factorisation, the whole
// simulate, and, up to 32 sinks, the dense-LU oracle
// (tests/support/dense_transient_reference) for contrast, with the largest
// sparse-vs-dense deviation (exit 1 beyond the oracle bound of
// docs/performance.md).  The committed baseline is BENCH_transient.json.
//
// Usage:
//   bench_transient [--max-sinks N] [--check FILE]
//     --max-sinks N  only trees with at most N sinks
//     --check FILE   exit 1 unless every case's counters appear verbatim in
//                    FILE (the committed baseline); wall time is reported,
//                    never gated
// The JSON goes to stdout, a human-readable line per case to stderr.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckt/companion.h"
#include "ckt/mna.h"
#include "ckt/transient.h"
#include "clocktree/skew.h"
#include "numeric/sparse_lu.h"
#include "support/dense_transient_reference.h"
#include "support/htree_fixture.h"

using namespace rlcx;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Largest tree the dense oracle is timed on.
constexpr std::size_t kDenseMaxSinks = 32;

struct Case {
  std::size_t sinks = 0;
  bool inductance = true;
  std::size_t dim = 0, mna_dim = 0, nnz_a = 0, nnz_lu = 0, steps = 0;
  std::size_t certified_steps = 0;
  double factor_ms = 0.0, step_us = 0.0, simulate_s = 0.0;
  double dense_s = -1.0, max_dev = -1.0;  // -1: not run
  std::string mismatch;  ///< first sample outside the oracle bound

  std::string counters() const {
    std::ostringstream s;
    s << "{\"sinks\": " << sinks << ", \"kind\": \""
      << (inductance ? "rlc" : "rc") << "\", \"dim\": " << dim
      << ", \"mna_dim\": " << mna_dim << ", \"nnz_a\": " << nnz_a
      << ", \"nnz_lu\": " << nnz_lu << ", \"steps\": " << steps
      << ", \"certified_steps\": " << certified_steps;
    return s.str();
  }
};

/// analyze_skew's transient settings (clocktree/skew.cpp).
ckt::TransientOptions skew_transient(const clocktree::HTreeSpec& spec) {
  ckt::TransientOptions t;
  t.dt = spec.driver.t_rise / 50.0;
  t.t_stop = spec.driver.t_rise * 10.0 + 2e-9;
  return t;
}

Case run_case(std::size_t sinks, bool inductance) {
  const clocktree::HTreeSpec spec = testing::cpw_htree(sinks, false);
  const clocktree::TreeNetlist tree = testing::htree_netlist(spec, inductance);
  const ckt::Netlist& nl = tree.netlist;
  const ckt::TransientOptions topt = skew_transient(spec);
  Case c;
  c.sinks = sinks;
  c.inductance = inductance;

  const ckt::Mna mna(nl);
  c.mna_dim = mna.dim();
  const ckt::CompanionSystem sys(mna, topt.dt);
  const numeric::CscMatrix& a = sys.matrix();
  c.dim = a.dim();
  c.nnz_a = a.nnz();
  Clock::time_point t0 = Clock::now();
  const numeric::SparseLu lu(a);
  c.factor_ms = 1e3 * seconds_since(t0);
  c.nnz_lu = lu.nnz();

  t0 = Clock::now();
  const ckt::TransientResult res = ckt::simulate(nl, topt);
  c.simulate_s = seconds_since(t0);
  c.steps = res.steps();
  c.step_us = 1e6 * std::max(0.0, c.simulate_s - 1e-3 * c.factor_ms) /
              static_cast<double>(c.steps - 1);
  ckt::TransientOptions registered = topt;
  registered.measures = clocktree::skew_measures(tree, spec.driver.vdd);
  c.certified_steps = ckt::simulate(nl, registered).steps();

  if (sinks <= kDenseMaxSinks) {
    t0 = Clock::now();
    const ckt::TransientResult ref =
        testing::dense_transient_reference(nl, topt);
    c.dense_s = seconds_since(t0);
    c.max_dev = 0.0;
    for (ckt::NodeId n = 1; n < nl.node_count(); ++n)
      for (std::size_t s = 0; s < c.steps; ++s)
        c.max_dev = std::max(
            c.max_dev, std::abs(res.voltage(n, s) - ref.voltage(n, s)));
    c.mismatch = testing::compare_waveforms(nl, res, ref);
  }
  return c;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_sinks = 512;
  const char* check = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-sinks") == 0 && i + 1 < argc) {
      max_sinks = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_transient [--max-sinks N] [--check FILE]\n");
      return 2;
    }
  }
  const std::string baseline = check != nullptr ? read_file(check) : "";
  if (check != nullptr && baseline.empty()) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", check);
    return 1;
  }

  std::vector<Case> cases;
  int status = 0;
  for (const std::size_t sinks : {4, 16, 32, 64, 128, 512}) {
    if (sinks > max_sinks) continue;
    for (const bool inductance : {true, false}) {
      const Case c = run_case(sinks, inductance);
      cases.push_back(c);
      std::fprintf(stderr,
                   "%3zu sinks %-3s: dim %6zu (MNA %6zu)  nnz(A) %7zu  "
                   "nnz(L+U) %7zu  steps %5zu (certified %5zu)  "
                   "factor %8.3f ms  step %8.2f us  simulate %7.3f s",
                   c.sinks, c.inductance ? "RLC" : "RC", c.dim, c.mna_dim,
                   c.nnz_a, c.nnz_lu, c.steps, c.certified_steps,
                   c.factor_ms, c.step_us, c.simulate_s);
      if (c.dense_s >= 0.0)
        std::fprintf(stderr, "  dense %7.3f s  max |dv| %.2e V", c.dense_s,
                     c.max_dev);
      std::fprintf(stderr, "\n");
      if (!c.mismatch.empty()) {
        std::fprintf(stderr, "FAIL: sparse deviates from the dense oracle: "
                     "%s\n", c.mismatch.c_str());
        status = 1;
      }
      if (check != nullptr &&
          baseline.find(c.counters()) == std::string::npos) {
        std::fprintf(stderr, "FAIL: counters differ from %s: %s}\n", check,
                     c.counters().c_str());
        status = 1;
      }
    }
  }

  std::printf("{\n  \"experiment\": \"transient\",\n  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::printf("    %s, \"factor_ms\": %.3f, \"step_us\": %.2f, "
                "\"simulate_s\": %.4f",
                c.counters().c_str(), c.factor_ms, c.step_us, c.simulate_s);
    if (c.dense_s >= 0.0)
      std::printf(", \"dense_simulate_s\": %.4f, \"max_abs_dev_v\": %.3e",
                  c.dense_s, c.max_dev);
    std::printf("}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return status;
}
