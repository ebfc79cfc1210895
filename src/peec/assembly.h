// Assembly of the filament-level partial inductance matrix and resistances.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.h"
#include "peec/bar.h"
#include "peec/partial_inductance.h"

namespace rlcx::rt {
class Pool;
}

namespace rlcx::peec {

/// A volume filament: a bar with a branch orientation and a DC resistance.
struct Filament {
  Bar bar;
  double sign = 1.0;        ///< +1 if branch current flows along +axis
  double resistance = 0.0;  ///< [ohm]
};

/// DC resistance of a bar of the given resistivity.
double bar_resistance(const Bar& bar, double rho);

/// What one matrix fill did: how many pair values it needed, and how many
/// kernel evaluations the relative-geometry memo actually paid for.
struct FillStats {
  std::size_t pair_lookups = 0;  ///< upper-triangle pairs incl. the diagonal
  std::size_t kernel_evals = 0;  ///< bar-pair kernel evaluations performed
  std::size_t memo_hits = 0;     ///< lookups served from the memo
  double hit_rate() const {
    return pair_lookups == 0
               ? 0.0
               : static_cast<double>(memo_hits) /
                     static_cast<double>(pair_lookups);
  }
};

/// Process-wide aggregate of every fill's FillStats (relaxed atomics):
/// core::characterize_batch deltas it around its fan-out into BuildStats,
/// which the CLI reports as the memo hit rate.
FillStats fill_stats_total();

/// Dense symmetric partial-inductance matrix [H] over the filaments,
/// orientation signs folded in (Lp_ij = s_i s_j M_ij).  The O(n^2) fill is
/// the extraction hot spot; two optimisations apply (see
/// docs/performance.md):
///   * the batch engine sums aligned bar pairs over chunk offsets, not
///     over every chunk pair (BatchEvaluator in kernel_batch.h);
///   * pairs are grouped into translation-invariant relative-geometry
///     classes (PairKey) and the kernel runs once per class — on a regular
///     mesh that is O(n) evaluations for the O(n^2) fill.  The result is
///     element-exact to evaluating every pair (the direct-fill oracle,
///     tests/support/direct_fill_reference.h).
/// Class evaluations fan out across `pool` (nullptr = the process-global
/// pool) once the fill is big enough to pay for the trip; the class list
/// and representatives are fixed by a serial scan, so the result is
/// bit-identical for every thread count.  `stats`, when given, receives
/// the lookup/eval/hit counters of this fill.
RealMatrix partial_inductance_matrix(const std::vector<Filament>& filaments,
                                     const PartialOptions& opt = {},
                                     rt::Pool* pool = nullptr,
                                     FillStats* stats = nullptr);

/// Resident bytes of the dense fill's result for n filaments (the n x n
/// RealMatrix above).  Feeds the memory budget's cost model
/// (docs/robustness.md "Resource governance"); the memo and the engine's
/// batches are lower-order and not counted.
std::size_t estimate_fill_bytes(std::size_t filaments);

}  // namespace rlcx::peec
