// The direct partial-inductance fill: every upper-triangle filament pair
// through the batch engine, one row at a time, with no relative-geometry
// memo.  It is the oracle of peec::partial_inductance_matrix's memoized
// three-pass fill — the two must agree element-exactly (PairKey's
// translation-only contract) — and bench_peec_fill's memo-off baseline.
// No production path calls it; it lives with the tests so the library has
// one fill.
#pragma once

#include <vector>

#include "numeric/matrix.h"
#include "peec/assembly.h"
#include "peec/partial_inductance.h"

namespace rlcx::peec {

/// Lp over `filaments` with orientation signs folded in, each row i one
/// BatchEvaluator batch of the self term and every pair (i, j > i).
RealMatrix direct_partial_inductance_matrix(
    const std::vector<Filament>& filaments, const PartialOptions& opt = {});

}  // namespace rlcx::peec
