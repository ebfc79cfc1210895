// 2-D finite-difference capacitance solver — the numerical reference the
// closed-form models approximate, standing in for the Raphael capacitance
// solves behind the paper's pre-characterised tables [4].
//
// Cross-sections are x-z rectangles of conductors in a uniform dielectric.
// The Laplace equation is discretised by the 5-point stencil on a regular
// grid; the system is assembled once per cross-section and factored once by
// the sparse LU (numeric/sparse_lu.h), then solved once per conductor k
// driven to 1 V with the rest grounded.  The Maxwell capacitance matrix
// follows from the boundary charge of every conductor.  The solution is
// the exact discrete one, so nothing iterates and nothing needs a
// convergence verdict.  Per-unit-length values [F/m], like everything else
// in rlcx_cap.
#pragma once

#include <vector>

#include "geom/block.h"
#include "numeric/matrix.h"

namespace rlcx::cap {

/// A conductor rectangle in the cross-section plane.
struct FdConductor {
  double x_min = 0.0, x_max = 0.0;  ///< [m]
  double z_min = 0.0, z_max = 0.0;  ///< [m]
};

struct Fd2dOptions {
  /// Grid cell size [m].  Must be several times smaller than the narrowest
  /// conductor gap, or the sidewall field between close traces is
  /// unresolved and the coupling comes out badly low.
  double cell = 0.25e-6;
  double margin = 8e-6;      ///< simulation margin around the conductors [m]
};

/// Largest grid (nodes) a cross-section may use; a finer cell or a wider
/// layout is a usage error, refused before anything is allocated.  The
/// sparse factor grows faster than the grid, worst on a square one: at
/// 199 k nodes (square) the solve took 10.8 s and 313 MB peak on one
/// x86-64 core, against ~0.5 s for the ~12 k-node grids the repository's
/// own experiments use (docs/performance.md "Direct FD capacitance
/// solve").
inline constexpr long long kFdMaxGridNodes = 200'000;

/// Maxwell capacitance matrix [F/m] of the conductor set.
/// `ground_plane_z`: if finite (>= -1e17), a grounded plane forms the
/// bottom boundary at that height; otherwise the far box is the ground.
/// Checks the run control (run::checkpoint) before the factor and between
/// drives.
RealMatrix fd_capacitance_matrix(const std::vector<FdConductor>& conductors,
                                 double eps_r, double ground_plane_z,
                                 const Fd2dOptions& options = {});

/// Convenience: run the solver on a geometry Block (all traces), with the
/// ground plane at the block's capacitive ground height (plane below or the
/// orthogonal layer N-1, as in extract_cap).
RealMatrix fd_block_capacitance(const geom::Block& block,
                                const Fd2dOptions& options = {});

/// Signal-oriented summary like extract_cap's CapResult: ground capacitance
/// per trace and adjacent coupling, derived from the Maxwell matrix of the
/// 3-trace subproblems (the paper's short-range reduction).
struct FdCapResult {
  std::vector<double> cg;  ///< [F/m]
  std::vector<double> cc;  ///< adjacent couplings, size n-1 [F/m]
};

FdCapResult extract_cap_fd(const geom::Block& block,
                           const Fd2dOptions& options = {});

}  // namespace rlcx::cap
