// Dense MNA transient reference (test-only oracle of ckt::simulate).
#pragma once

#include <string>

#include "ckt/netlist.h"
#include "ckt/transient.h"

namespace rlcx::testing {

/// The dense-LU transient ckt::simulate used to be: same initial DC point,
/// trapezoidal companions and step count, O(dim^2) per step.
ckt::TransientResult dense_transient_reference(
    const ckt::Netlist& netlist, const ckt::TransientOptions& options);

/// Sparse-vs-dense agreement bound (docs/performance.md): every sample of
/// every node within kOracleRelTol of that node's peak |v| in the
/// reference, plus an absolute floor of kOracleAbsTol volts.
inline constexpr double kOracleRelTol = 1e-9;
inline constexpr double kOracleAbsTol = 1e-12;

/// Empty when `got` matches `want` at every node and step within the
/// oracle bound; otherwise names the first node, step and both values.
std::string compare_waveforms(const ckt::Netlist& netlist,
                              const ckt::TransientResult& got,
                              const ckt::TransientResult& want);

}  // namespace rlcx::testing
