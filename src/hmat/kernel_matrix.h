// On-demand kernel-matrix oracle for the hierarchical PEEC solver.
//
// Serves single entries, rows and columns of the sign-folded filament
// partial-inductance matrix  Lp(i,j) = s_i s_j M(bar_i, bar_j)  without ever
// materialising the O(n^2) dense matrix — the access pattern ACA needs
// (SNIPPETS.md: H2Pack's blocked kernel interface, fmmtl's Direct::matvec
// oracle).  Sampling reuses the PR-4 relative-geometry PairKey memo classes,
// so on a regular mesh a row costs O(new classes) kernel evaluations, not
// O(n).
//
// Determinism under concurrent sampling: the dense fill fixes one
// representative pair per class with a serial upper-triangle scan, and two
// members of the same translation class evaluate to slightly different
// doubles (their coordinates differ by a few ulps, which the Hoer–Love
// bracket's cancelling terms amplify to ~1e-8 relative).  An on-demand
// oracle that evaluated "whichever pair asked first" would therefore
// wobble with pool width AND disagree with the dense fill at that level.
// Instead the constructor replays the dense fill's class scan — O(n^2)
// hash work, ~20 ns a pair, no kernel calls — recording the identical
// representative (i, j) per class; lazy evaluations then always run on
// the representative's geometry.  Every entry served is bit-equal to the
// dense memo fill's value, for every pool width and sampling order.  (The
// scan is the price of bit-exactness; it is invisible next to the O(n^2)
// *kernel* cost the dense fill pays, let alone its O(n^3) LU.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "peec/assembly.h"
#include "peec/partial_inductance.h"

namespace rlcx::hmat {

class KernelMatrix {
 public:
  KernelMatrix(std::vector<peec::Filament> filaments,
               const peec::PartialOptions& opt);

  std::size_t size() const { return filaments_.size(); }
  const std::vector<peec::Filament>& filaments() const { return filaments_; }
  const peec::Filament& filament(std::size_t i) const { return filaments_[i]; }

  /// Sign-folded matrix entry Lp(i,j) [H].  Thread-safe; memoized.
  double entry(std::size_t i, std::size_t j) const;

  /// out[k] = entry(i, cols[k]).  The matrix is symmetric, so a column is
  /// served the same way: col(j, rows, out) == row(j, rows, out).
  void row(std::size_t i, const std::size_t* cols, std::size_t count,
           double* out) const;
  void col(std::size_t j, const std::size_t* rows, std::size_t count,
           double* out) const {
    row(j, rows, count, out);
  }

  /// Lookup/eval/hit counters of every entry served so far (snapshot).
  peec::FillStats fill_stats() const;

 private:
  double self_value(std::size_t i) const;
  double pair_value(std::size_t i, std::size_t j) const;
  double memo_lookup(bool self, const peec::PairKey& key) const;
  double evaluate(std::size_t i, std::size_t j) const;

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<peec::PairKey, double, peec::PairKeyHash> self_map;
    std::unordered_map<peec::PairKey, double, peec::PairKeyHash> pair_map;
  };
  /// Class representative: the first upper-triangle pair (i <= j) the
  /// serial constructor scan mapped to a key — the same pair the dense
  /// fill's pass 1 picks.  Immutable after construction (lock-free reads).
  struct Rep {
    std::uint32_t i, j;
  };
  using RepMap = std::unordered_map<peec::PairKey, Rep, peec::PairKeyHash>;

  std::vector<peec::Filament> filaments_;
  peec::PartialOptions opt_;
  double quantum_ = 0.0;  ///< fill scale x memo_rel_tol; 0 disables the memo
  bool memo_ = false;
  RepMap self_reps_, pair_reps_;
  mutable Shard shards_[kShards];
  mutable std::atomic<std::size_t> lookups_{0}, evals_{0}, hits_{0};
};

}  // namespace rlcx::hmat
