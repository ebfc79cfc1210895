// Batched (SoA) evaluation of the partial-inductance kernels — the SIMD
// engine behind every matrix-fill path.
//
// The three-pass fill (peec/assembly.cpp) reduces its work to "evaluate
// these self/mutual bar pairs".  Each such class evaluation decomposes
// into chunk pairs, and each chunk pair is either a Hoer-Love volume
// integral (64 corner evaluations of f(x,y,z)) or a filament closed form.
// Evaluated one scalar pair at a time that walk is dominated by libm
// transcendentals; BatchEvaluator instead flattens every chunk
// decomposition into two structure-of-arrays batches (volume pairs and
// filament pairs), evaluates them with `#pragma omp simd` kernels built on
// numeric/vecmath.h, and reduces each class in its recorded chunk-pair
// order (H2Pack's blocked Coulomb-kernel pattern, see SNIPPETS.md).
//
// Determinism contract:
//   * every batch entry is a pure elementwise function of its own SoA
//     row, so values are independent of batch composition, flush
//     boundaries, and how the evaluation fans out across the pool —
//     pool-width determinism falls out of the data layout;
//   * the scalar TU and the AVX2 TU compile the *same* branch-free code
//     (numeric/simd.h explains the flag discipline), so RLCX_SIMD=scalar
//     and the AVX2 path agree bit for bit;
//   * the engine's values agree with the scalar oracle kernels
//     (hoer_love_mutual / filament_mutual) only to the kernel's
//     cancellation-noise floor (~1e-8 relative): vecmath and libm differ
//     by ulps, which the 64-term bracket amplifies.  All fill paths
//     therefore go through the engine, and the libm kernels remain the
//     independent accuracy oracle in tests.
//
// Geometry validation (degenerate dimensions, overlapping bars, collinear
// filament overlap) happens scalar at append time with the same
// diagnostics as the scalar kernels, so the batched kernels run guard-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "peec/bar.h"
#include "peec/partial_inductance.h"

namespace rlcx::rt {
class Pool;
}

namespace rlcx::peec {

namespace detail {

/// SoA view of the flattened Hoer-Love volume pairs, argument-for-argument
/// the signature of hoer_love_mutual.
struct VolumeSoa {
  const double *a, *b, *l1, *c, *d, *l2, *E, *P, *l3;
};

/// SoA view of the flattened filament pairs (filament_mutual's arguments;
/// r == 0 rows take the collinear closed form, exactly like the scalar
/// kernel).
struct FilamentSoa {
  const double *l1, *l2, *s, *r;
};

// Per-ISA kernel entry points: out[g] for g in [lo, hi).  One source
// (kernel_batch_kernels.h), compiled once per ISA; numeric/simd.h picks.
namespace kb_scalar {
void eval_volume(const VolumeSoa& in, std::size_t lo, std::size_t hi,
                 double* out);
void eval_filament(const FilamentSoa& in, std::size_t lo, std::size_t hi,
                   double* out);
}  // namespace kb_scalar
#if defined(RLCX_HAVE_AVX2)
namespace kb_avx2 {
void eval_volume(const VolumeSoa& in, std::size_t lo, std::size_t hi,
                 double* out);
void eval_filament(const FilamentSoa& in, std::size_t lo, std::size_t hi,
                   double* out);
}  // namespace kb_avx2
#endif
#if defined(RLCX_HAVE_AVX512)
namespace kb_avx512 {
void eval_volume(const VolumeSoa& in, std::size_t lo, std::size_t hi,
                 double* out);
void eval_filament(const FilamentSoa& in, std::size_t lo, std::size_t hi,
                   double* out);
}  // namespace kb_avx512
#endif

}  // namespace detail

/// Process-wide batch-engine telemetry (same relaxed-atomic aggregate
/// contract as fill_stats_total): how many flattened kernel terms the
/// engine evaluated, in how many batch runs, and how long the SoA kernels
/// themselves ran — BuildStats, `cache stats` and serve `stats` report the
/// eval throughput from deltas of this.
struct BatchStats {
  std::size_t batch_runs = 0;      ///< BatchEvaluator::run() calls
  std::size_t volume_terms = 0;    ///< Hoer-Love chunk pairs evaluated
  std::size_t filament_terms = 0;  ///< filament chunk pairs evaluated
  std::uint64_t eval_nanos = 0;    ///< wall time inside the SoA kernels
  double terms_per_second() const {
    return eval_nanos == 0
               ? 0.0
               : 1e9 * static_cast<double>(volume_terms + filament_terms) /
                     static_cast<double>(eval_nanos);
  }
};

BatchStats batch_stats_total();
void reset_batch_stats_total();

/// The SimdMode (as a name, "scalar"/"avx2"/"avx512") the engine currently
/// dispatches to; convenience for reports.
const char* batch_simd_name();

/// Collects class evaluations (self or mutual bar pairs), flattens their
/// chunk decompositions into SoA batches, and evaluates them all in run().
/// Bars are chunked by pair_chunking (partial_inductance.h).  A self and an
/// aligned pair append one chunk-pair term per axial chunk offset d,
/// weighted by how many chunk pairs share that offset; any other pair
/// appends its full row-major n1 x n2 chunk sweep.  Append order defines
/// slot order, and each slot is reduced in its recorded term order.  Not
/// thread-safe; one evaluator per thread (they are cheap, plain vectors).
class BatchEvaluator {
 public:
  /// Appends the self class of a bar: terms for offsets d = 0 .. n-1 of its
  /// n chunks, weighted n (d = 0) and 2(n - d).  Returns the slot index its
  /// value will occupy in run()'s results.
  std::size_t add_self(const Bar& bar, const PartialOptions& opt);

  /// Appends the mutual class of two bars: an aligned pair gets terms for
  /// d in (-n, n) weighted n - |d|, any other pair the full chunk sweep.
  /// Orthogonal bars get an empty slot that evaluates to exactly 0.
  /// Throws diag::GeometryError for overlapping distinct bars.
  std::size_t add_pair(const Bar& b1, const Bar& b2,
                       const PartialOptions& opt);

  std::size_t slots() const { return slot_begin_.size(); }
  std::size_t volume_entries() const { return va_.size(); }
  std::size_t filament_entries() const { return fl1_.size(); }

  /// Evaluates every appended slot: results[s] = value of slot s [H].
  /// The SoA kernels fan out across `pool` (nullptr = process-global)
  /// when the batch is big enough; the per-slot reduction is serial.
  /// Throws diag::NumericError on a non-finite class value.
  void run(double* results, rt::Pool* pool = nullptr);

  /// Drops every slot and entry (keeps capacity — callers flush in blocks
  /// to bound memory on huge fills).
  void clear();

 private:
  std::size_t begin_slot(bool self);
  void append_chunk_pair(const Bar& p, const Bar& q,
                         const PartialOptions& opt, double weight);

  // One flattened chunk-pair term of a slot: index into the volume batch
  // (kFilamentBit clear) or the filament batch (set), and the number of
  // chunk pairs of the sweep the term stands for.
  static constexpr std::uint32_t kFilamentBit = 0x80000000u;
  struct Term {
    std::uint32_t idx;
    double weight;
  };

  std::vector<double> va_, vb_, vl1_, vc_, vd_, vl2_, vE_, vP_, vl3_;
  std::vector<double> fl1_, fl2_, fs_, fr_;
  std::vector<Term> terms_;
  std::vector<std::uint32_t> slot_begin_;
  std::vector<std::uint8_t> slot_self_;  ///< for the non-finite diagnostic
  std::vector<double> vvals_, fvals_;    ///< scratch reused across runs
};

}  // namespace rlcx::peec
