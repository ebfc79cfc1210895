// The modified-nodal (KKT) formulation of the general network solve, kept
// as the oracle of solver::Network's nodal reduction.
//
// Node voltages v (reference dropped) and filament currents i solve
//
//   [ 0   A  ] [v]   [J]
//   [ Aᵀ  -Z ] [i] = [0]
//
// with A the signed node-by-filament incidence and Z = diag(R) + jωLp,
// factored densely by the pivoted LU, one solve per port.  It fills the
// same filaments from Network::branches(), so the two differ only by the
// elimination's round-off.
#pragma once

#include <utility>
#include <vector>

#include "numeric/matrix.h"
#include "peec/partial_inductance.h"
#include "solver/network.h"

namespace rlcx::solver {

ComplexMatrix kkt_port_impedance(const Network& net,
                                 const std::vector<std::pair<int, int>>& ports,
                                 double frequency,
                                 const peec::PartialOptions& popt = {});

}  // namespace rlcx::solver
