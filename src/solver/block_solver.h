// Field-solver substitute for coplanar blocks (the Raphael RI3 role).
//
// Two extraction modes, matching the paper's two table flavours:
//  * extract_partial — PEEC partial inductances (no return designated; the
//    circuit simulator picks the return path at simulation time).  Used for
//    bare coplanar structures.
//  * extract_loop — loop inductances with the dedicated ground traces and/or
//    the local ground plane(s) merged into the far-end sink node (the
//    paper's "Extension of Foundations").  Used for microstrip/stripline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/block.h"
#include "numeric/matrix.h"
#include "peec/assembly.h"
#include "solver/options.h"

namespace rlcx::solver {

/// Effective (frequency-dependent) partial impedance of every trace.
struct PartialResult {
  RealMatrix inductance;           ///< n x n partial L [H] at the frequency
  std::vector<double> resistance;  ///< effective AC series R per trace [ohm]
};

/// Loop impedance of the signal traces with grounds/planes as return.
struct LoopResult {
  RealMatrix inductance;  ///< ns x ns loop L [H]
  RealMatrix resistance;  ///< ns x ns loop R [ohm] (diagonal-dominant)
  std::vector<std::size_t> signal_traces;  ///< block indices, in matrix order
};

PartialResult extract_partial(const geom::Block& block,
                              const SolveOptions& opt);

/// Requires at least one ground trace or plane in the block.
LoopResult extract_loop(const geom::Block& block, const SolveOptions& opt);

/// One extraction conductor: parallel filaments sharing its terminals.
struct Conductor {
  std::vector<peec::Filament> filaments;
  bool is_ground = false;
  std::size_t block_trace = SIZE_MAX;  ///< index into block; none for strips
};

/// The conductors extract_loop solves, in fill order: the block's traces
/// in block order, then the plane strips (below, then above).  Exposed so
/// tests can rebuild the same filament system for their oracles.
std::vector<Conductor> block_conductors(const geom::Block& block,
                                        const SolveOptions& opt);

/// Ground-plane discretisation used by extract_loop, exposed for tests and
/// for the general network builder: strips covering the block extent plus a
/// margin, in the given layer.
std::vector<peec::Bar> plane_strips(const geom::Block& block, int plane_layer,
                                    const PlaneOptions& opt);

/// Port admittance Y = PᵀZ⁻¹P of a filament system at opt.frequency, with
/// Z = diag(R) + jωLp over `filaments` (opt.partial sets the fill) and P
/// the nf x m signed incidence of the filament currents on the m ports.
/// Z is factored by the complex-symmetric LDLᵀ and P swept through it once
/// (numeric/ldlt.h).  The solve reserves estimate_dense_solve_bytes from
/// the memory budget first and checkpoints before the fill, the factor and
/// the reduction.  extract_partial/extract_loop (0/1 conductor-to-port
/// incidence) and the general network (±1 filament-to-node incidence) both
/// solve through it.
ComplexMatrix port_admittance(const std::vector<peec::Filament>& filaments,
                              ComplexMatrix incidence,
                              const SolveOptions& opt);

/// Analytic resident-byte estimate of one impedance solve over `filaments`
/// unknowns and `ports` terminals: the real fill, the complex LDLᵀ factor
/// and the n x ports reduction block.  The solve reserves exactly this much
/// from the memory budget before solving (refusing the solve when it does
/// not fit), and serve's cost-based admission prices requests with it
/// (docs/robustness.md "Resource governance").
std::size_t estimate_dense_solve_bytes(std::size_t filaments,
                                       std::size_t ports);

/// Cost of extracting `block` without solving anything: meshes the
/// conductors exactly as extraction would (cheap — no field solves),
/// counts filaments, and returns the dense solve estimate.  Plane strips
/// are included when the block configures planes, so this bounds both
/// extract_partial and extract_loop.
std::size_t estimate_extract_bytes(const geom::Block& block,
                                   const SolveOptions& opt);

/// Process-wide impedance-solve telemetry: relaxed-atomic aggregates that
/// core::BuildStats, the CLI build report and the serve daemon's
/// stats/health snapshot (or delta around a build).
struct SolveStats {
  std::size_t dense_solves = 0;   ///< completed impedance solves
  std::size_t max_filaments = 0;  ///< high-water filament count of a solve
};

SolveStats solve_stats_total();

}  // namespace rlcx::solver
