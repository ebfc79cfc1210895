// The paper runs its field solver at the "significant frequency",
// f_s = 0.32 / t_r, where t_r is the minimum rise/fall time [1].
#pragma once

namespace rlcx::solver {

/// Significant frequency [Hz] for a given minimum rise/fall time [s].
double significant_frequency(double rise_time);

/// Inverse: the rise time whose significant frequency is f.
double rise_time_for_frequency(double frequency);

}  // namespace rlcx::solver
