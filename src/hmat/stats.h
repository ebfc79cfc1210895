// Compatibility shim for the end-to-end benchmark (e2ebench/), which still
// includes this header and reads hmat::solve_stats_total().  The
// hierarchical solver is gone: every impedance solve is the dense one, so
// hmat_solves is always 0 and dense_solves is the solver's own counter
// (solver::solve_stats_total()).
//
// Nothing in src/, tests/, bench/ or examples/ includes this header.  The
// benchmark PR (ROADMAP item 5) moves e2ebench to the solver counter and
// then deletes this shim and its INTERFACE target.
#pragma once

#include <cstddef>

#include "solver/block_solver.h"

namespace rlcx::hmat {

struct SolveStats {
  std::size_t hmat_solves = 0;
  std::size_t dense_solves = 0;
};

inline SolveStats solve_stats_total() {
  return {0, solver::solve_stats_total().dense_solves};
}

}  // namespace rlcx::hmat
