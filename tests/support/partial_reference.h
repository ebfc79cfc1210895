// The scalar libm partial-inductance kernels: the independent accuracy
// oracle of the batch engine (peec/kernel_batch.h).  They evaluate the same
// Hoer-Love and filament closed forms one call at a time with libm
// transcendentals and explicit special cases, and sum every chunk pair of
// pair_chunking's decomposition — no offset collapse, no whole-bar term.
// Tests pin the engine to them at the kernel's cancellation-noise floor
// (docs/performance.md).  No production path calls them; they live with
// the tests so the fill has one implementation.
#pragma once

#include <vector>

#include "peec/bar.h"
#include "peec/partial_inductance.h"

namespace rlcx::peec {

/// The chunk_count(b, max_aspect) chunks of a bar, in axial order.
std::vector<Bar> chunk_lengthwise(const Bar& b, double max_aspect);

/// Exact Hoer-Love mutual partial inductance [H] between two parallel
/// rectangular bars in canonical coordinates: bar 1 spans x:[0,a], y:[0,b],
/// z:[0,l1]; bar 2 spans x:[E,E+c], y:[P,P+d], z:[l3,l3+l2]; current along z.
/// Valid for any overlap, including coincident bars (self inductance).
double hoer_love_mutual(double a, double b, double l1, double c, double d,
                        double l2, double E, double P, double l3);

/// Exact mutual partial inductance [H] of two parallel thin filaments of
/// lengths l1 and l2, axial start offset s, radial distance r (r may be 0
/// for collinear non-overlapping filaments).
double filament_mutual(double l1, double l2, double s, double r);

/// Ruehli's approximation for the self partial inductance of a bar,
/// (mu0 l / 2pi) (ln(2l/(w+t)) + 0.5 + 0.2235 (w+t)/l).  Good to ~1 % for
/// l >> w+t; an independent sanity check of the exact kernel.
double ruehli_self(double length, double width, double thickness);

/// Self partial inductance [H] of a bar (exact kernel, summed over every
/// chunk pair of chunk_lengthwise).
double self_partial(const Bar& bar, const PartialOptions& opt = {});

/// Mutual partial inductance [H] between two bars.  Returns 0 for
/// orthogonal bars (the paper's layer-N±1 argument).  The sign is geometric
/// (positive for parallel co-directed currents).  Sums every chunk pair of
/// pair_chunking's decomposition.
double mutual_partial(const Bar& b1, const Bar& b2,
                      const PartialOptions& opt = {});

}  // namespace rlcx::peec
