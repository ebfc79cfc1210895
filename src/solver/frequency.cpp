#include "solver/frequency.h"

#include <stdexcept>

#include "rt/parallel.h"

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

// One extraction per frequency point, fanned out with one point per task
// (a full block solve dwarfs the dispatch cost).  Inside a worker the
// extraction's inner layers run serial, so the per-point numbers match a
// standalone serial call bit for bit.
std::vector<LoopResult> sweep_loop(const geom::Block& block,
                                   const SolveOptions& base,
                                   const std::vector<double>& frequencies,
                                   rt::Pool* pool) {
  std::vector<LoopResult> out(frequencies.size());
  rt::ParallelOptions opt;
  opt.grain = 1;
  opt.pool = pool;
  rt::parallel_for(0, frequencies.size(),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i) {
                       SolveOptions o = base;
                       o.frequency = frequencies[i];
                       out[i] = extract_loop(block, o);
                     }
                   },
                   opt);
  return out;
}

}  // namespace rlcx::solver
