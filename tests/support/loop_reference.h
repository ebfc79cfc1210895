// The bordered Schur reduction — the loop solver's previous dense phase,
// kept as the oracle of the merged return port in solver/block_solver.
//
// Each conductor of the block (traces, then plane strips) is its own port:
// Z_cond = (PᵀZ⁻¹P)⁻¹ through the pivoted LU and a multi-RHS solve over
// every conductor column.  The grounds are then tied to the far-end sink
// with a common return drop V_G and Σ I_G = −Σ I_S, which gives
//
//   Z_loop = Z_SS − Z_SG Z_GG⁻¹ Z_GS + c rᵀ / (1ᵀ Z_GG⁻¹ 1),
//   r_j = Σ_g (Z_GG⁻¹ Z_GS)(g, j) − 1,   c_i = (Z_SG Z_GG⁻¹ 1)(i) − 1.
//
// It fills the same filaments in the same order as extract_loop, so the
// two differ only by the reduction's round-off (docs/performance.md
// "Complex-symmetric LDLᵀ and the merged return").
#pragma once

#include "geom/block.h"
#include "solver/block_solver.h"
#include "solver/options.h"

namespace rlcx::solver {

LoopResult bordered_loop_reference(const geom::Block& block,
                                   const SolveOptions& opt);

}  // namespace rlcx::solver
