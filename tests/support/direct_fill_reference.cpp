#include "support/direct_fill_reference.h"

#include "peec/kernel_batch.h"

namespace rlcx::peec {

RealMatrix direct_partial_inductance_matrix(
    const std::vector<Filament>& filaments, const PartialOptions& opt) {
  const std::size_t n = filaments.size();
  RealMatrix lp(n, n);
  BatchEvaluator ev;
  std::vector<double> row;
  for (std::size_t i = 0; i < n; ++i) {
    ev.clear();
    ev.add_self(filaments[i].bar, opt);
    for (std::size_t j = i + 1; j < n; ++j)
      ev.add_pair(filaments[i].bar, filaments[j].bar, opt);
    row.resize(ev.slots());
    ev.run(row.data());
    lp(i, i) = row[0];
    for (std::size_t j = i + 1; j < n; ++j) {
      const double m = filaments[i].sign * filaments[j].sign * row[j - i];
      lp(i, j) = m;
      lp(j, i) = m;
    }
  }
  return lp;
}

}  // namespace rlcx::peec
