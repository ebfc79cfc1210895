// Small-signal AC analysis: complex MNA at a single frequency, solved
// through the same sparse factor as DC, moments and the transient
// (numeric/sparse_lu.h).
//
// Complements the transient engine: frequency responses, driving-point
// impedances (what the clock buffer sees looking into the tree), and an
// independent cross-check of the trapezoidal integration.
#pragma once

#include <complex>
#include <vector>

#include "ckt/netlist.h"

namespace rlcx::ckt {

/// Phasor node voltages with voltage source `active_source` driving at
/// 1 V amplitude and every other source set to 0 (i.e. shorted).
/// Result is indexed by NodeId; entry 0 (ground) is 0.
std::vector<std::complex<double>> ac_solve(const Netlist& netlist,
                                           double frequency,
                                           std::size_t active_source = 0);

/// Voltage transfer H(jw) = V(out)/V(in) with the given source active.
std::complex<double> ac_transfer(const Netlist& netlist, double frequency,
                                 NodeId out, std::size_t active_source = 0);

/// Driving-point impedance between two nodes: inject 1 A, all voltage
/// sources shorted (their internal impedance is zero), read the phasor
/// voltage across the port.
std::complex<double> ac_input_impedance(const Netlist& netlist,
                                        double frequency, NodeId positive,
                                        NodeId negative = kGround);

}  // namespace rlcx::ckt
