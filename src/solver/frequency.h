// The paper runs its field solver at the "significant frequency",
// f_s = 0.32 / t_r, where t_r is the minimum rise/fall time [1].
//
// Frequency sweeps (skin/proximity R(f), L(f) curves, multi-corner
// characterisation) are embarrassingly parallel across points; sweep_loop
// fans the per-frequency solves out on the rlcx::rt pool and returns
// results in input order, each bit-identical to a serial extract_loop
// call at that frequency.
#pragma once

#include <vector>

#include "solver/block_solver.h"

namespace rlcx::rt {
class Pool;
}

namespace rlcx::solver {

/// Significant frequency [Hz] for a given minimum rise/fall time [s].
double significant_frequency(double rise_time);

/// Inverse: the rise time whose significant frequency is f.
double rise_time_for_frequency(double frequency);

/// Loop extraction of `block` at every frequency in `frequencies`
/// (result[i] corresponds to frequencies[i]); `base` supplies every other
/// solve option.  Points run concurrently on `pool` (nullptr = the
/// process-global pool).
std::vector<LoopResult> sweep_loop(const geom::Block& block,
                                   const SolveOptions& base,
                                   const std::vector<double>& frequencies,
                                   rt::Pool* pool = nullptr);

}  // namespace rlcx::solver
