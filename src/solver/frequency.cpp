#include "solver/frequency.h"

#include <stdexcept>

namespace rlcx::solver {

double significant_frequency(double rise_time) {
  if (rise_time <= 0.0)
    throw std::invalid_argument("significant_frequency: rise time");
  return 0.32 / rise_time;
}

double rise_time_for_frequency(double frequency) {
  if (frequency <= 0.0)
    throw std::invalid_argument("rise_time_for_frequency: frequency");
  return 0.32 / frequency;
}

}  // namespace rlcx::solver
