#include "hmat/kernel_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "peec/kernel_batch.h"

namespace rlcx::hmat {

namespace {

// Same scale the dense fill quantizes against (peec/assembly.cpp): the
// largest coordinate magnitude or extent in the filament set.
double fill_scale(const std::vector<peec::Filament>& filaments) {
  double s = 0.0;
  for (const peec::Filament& f : filaments) {
    const peec::Bar& b = f.bar;
    s = std::max({s, std::abs(b.a_min), std::abs(b.a_max()),
                  std::abs(b.t_min), std::abs(b.t_max()),
                  std::abs(b.z_min), std::abs(b.z_max()),
                  b.length, b.t_width, b.z_thick});
  }
  return s;
}

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

KernelMatrix::KernelMatrix(std::vector<peec::Filament> filaments,
                           const peec::PartialOptions& opt)
    : filaments_(std::move(filaments)), opt_(opt) {
  quantum_ = fill_scale(filaments_) * opt_.memo_rel_tol;
  memo_ = opt_.memo && quantum_ > 0.0;
  if (!memo_) return;
  // Replay the dense fill's serial pass-1 scan so every class gets the
  // identical representative pair (see the header on why this is what
  // makes lazily served entries bit-equal to the dense memo fill).
  const std::size_t n = filaments_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const peec::Bar& bi = filaments_[i].bar;
    self_reps_.try_emplace(
        peec::make_self_key(bi, quantum_),
        Rep{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i)});
    for (std::size_t j = i + 1; j < n; ++j) {
      const peec::Bar& bj = filaments_[j].bar;
      if (bi.axis != bj.axis) continue;  // exact zero, no kernel
      pair_reps_.try_emplace(
          peec::make_pair_key(bi, bj, quantum_),
          Rep{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    }
  }
}

double KernelMatrix::entry(std::size_t i, std::size_t j) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (i == j) return self_value(i);
  const peec::Bar& bi = filaments_[i].bar;
  const peec::Bar& bj = filaments_[j].bar;
  if (bi.axis != bj.axis) return 0.0;
  return filaments_[i].sign * filaments_[j].sign * pair_value(i, j);
}

// A sampled row is one batch: every class the row misses is appended to a
// single BatchEvaluator and evaluated in one SoA sweep, instead of one
// kernel walk per column.  Batch values are elementwise per entry with an
// order-fixed per-slot reduction, so a class evaluated here is bit-equal
// to the same class evaluated alone through entry() — batching changes the
// throughput, never the doubles.
void KernelMatrix::row(std::size_t i, const std::size_t* cols,
                       std::size_t count, double* out) const {
  if (count == 0) return;
  lookups_.fetch_add(count, std::memory_order_relaxed);

  peec::BatchEvaluator ev;
  std::vector<std::uint32_t> slot_of(count, kNoSlot);

  if (!memo_) {
    // Memo off: one slot per non-orthogonal column, evaluated in one run.
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t j = cols[k];
      if (i == j) {
        slot_of[k] =
            static_cast<std::uint32_t>(ev.add_self(filaments_[i].bar, opt_));
        continue;
      }
      if (filaments_[i].bar.axis != filaments_[j].bar.axis) continue;
      // Canonical orientation (see pair_value): serve the lower triangle
      // through the upper one.
      const std::size_t a = std::min(i, j), b = std::max(i, j);
      slot_of[k] = static_cast<std::uint32_t>(
          ev.add_pair(filaments_[a].bar, filaments_[b].bar, opt_));
    }
    std::vector<double> values(ev.slots());
    ev.run(values.data());
    evals_.fetch_add(ev.slots(), std::memory_order_relaxed);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t j = cols[k];
      if (slot_of[k] == kNoSlot) {
        out[k] = 0.0;
      } else if (i == j) {
        out[k] = values[slot_of[k]];
      } else {
        out[k] = filaments_[i].sign * filaments_[j].sign * values[slot_of[k]];
      }
    }
    return;
  }

  // Memo on.  Phase 1: probe the shards column by column; a class the row
  // misses gets one batch slot (on its representative geometry); repeat
  // misses of the same class within the row share the slot and count as
  // hits, exactly like a second sequential entry() call would.
  struct Miss {
    peec::PairKey key;
    bool self;
    std::uint32_t slot;
  };
  constexpr std::uint32_t kCachedSlot = kNoSlot - 1;
  std::vector<Miss> misses;
  std::unordered_map<peec::PairKey, std::uint32_t, peec::PairKeyHash>
      miss_slot;
  std::vector<double> cached(count, 0.0);
  const peec::Bar& bi = filaments_[i].bar;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = cols[k];
    const bool self = i == j;
    if (!self && bi.axis != filaments_[j].bar.axis) continue;  // exact zero
    const std::size_t a = std::min(i, j), b = std::max(i, j);
    const peec::PairKey key =
        self ? peec::make_self_key(bi, quantum_)
             : peec::make_pair_key(filaments_[a].bar, filaments_[b].bar,
                                   quantum_);
    Shard& shard = shards_[peec::PairKeyHash{}(key) % kShards];
    auto& map = self ? shard.self_map : shard.pair_map;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = map.find(key);
      if (it != map.end()) {
        found = true;
        cached[k] = it->second;
      }
    }
    if (found) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      slot_of[k] = kCachedSlot;
      continue;
    }
    const auto [it, inserted] =
        miss_slot.try_emplace(key, static_cast<std::uint32_t>(ev.slots()));
    if (inserted) {
      const Rep rep = (self ? self_reps_ : pair_reps_).at(key);
      if (self) {
        ev.add_self(filaments_[rep.i].bar, opt_);
      } else {
        ev.add_pair(filaments_[rep.i].bar, filaments_[rep.j].bar, opt_);
      }
      misses.push_back({key, self, it->second});
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    slot_of[k] = it->second;
  }

  // Phase 2: one batched evaluation for every class the row missed, then
  // publish.  A racing thread may have inserted a class meanwhile; the
  // value is a pure function of the key (evaluated on the immutable
  // representative), so first-writer-wins keeps the identical double.
  std::vector<double> values(ev.slots());
  if (!misses.empty()) {
    ev.run(values.data());
    evals_.fetch_add(misses.size(), std::memory_order_relaxed);
    for (const Miss& m : misses) {
      Shard& shard = shards_[peec::PairKeyHash{}(m.key) % kShards];
      auto& map = m.self ? shard.self_map : shard.pair_map;
      std::lock_guard<std::mutex> lock(shard.mu);
      values[m.slot] = map.try_emplace(m.key, values[m.slot]).first->second;
    }
  }

  // Phase 3: scatter with the orientation signs folded in.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = cols[k];
    if (slot_of[k] == kNoSlot) {
      out[k] = 0.0;
      continue;
    }
    const double v =
        slot_of[k] == kCachedSlot ? cached[k] : values[slot_of[k]];
    out[k] = i == j ? v : filaments_[i].sign * filaments_[j].sign * v;
  }
}

peec::FillStats KernelMatrix::fill_stats() const {
  peec::FillStats s;
  s.pair_lookups = lookups_.load(std::memory_order_relaxed);
  s.kernel_evals = evals_.load(std::memory_order_relaxed);
  s.memo_hits = hits_.load(std::memory_order_relaxed);
  return s;
}

double KernelMatrix::self_value(std::size_t i) const {
  if (!memo_) {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return evaluate(i, i);
  }
  return memo_lookup(true, peec::make_self_key(filaments_[i].bar, quantum_));
}

double KernelMatrix::pair_value(std::size_t i, std::size_t j) const {
  // Canonical orientation: the dense fill only ever evaluates i < j, and
  // the mutual chunk sweep over (b, c) differs from (c, b) at the
  // cancellation floor, so serve the lower triangle through the upper one.
  if (j < i) std::swap(i, j);
  if (!memo_) {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return evaluate(i, j);
  }
  return memo_lookup(false, peec::make_pair_key(filaments_[i].bar,
                                                filaments_[j].bar, quantum_));
}

double KernelMatrix::memo_lookup(bool self, const peec::PairKey& key) const {
  Shard& shard = shards_[peec::PairKeyHash{}(key) % kShards];
  auto& map = self ? shard.self_map : shard.pair_map;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = map.find(key);
    if (it != map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Evaluate the class representative outside the lock; the value is a pure
  // function of the key (via the immutable rep maps), so a racing thread
  // computing the same class inserts the identical double.
  const auto& reps = self ? self_reps_ : pair_reps_;
  const Rep rep = reps.at(key);
  const double value = evaluate(rep.i, rep.j);
  evals_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  return map.try_emplace(key, value).first->second;
}

// Single-class evaluation through the same batch engine the dense fill
// uses — one slot, run inline — so a lazily served entry is bit-equal to
// the dense fill's value for that class (the PR-4 contract, now carried by
// the engine rather than the scalar kernel walk).
double KernelMatrix::evaluate(std::size_t i, std::size_t j) const {
  peec::BatchEvaluator ev;
  if (i == j) {
    ev.add_self(filaments_[i].bar, opt_);
  } else {
    ev.add_pair(filaments_[i].bar, filaments_[j].bar, opt_);
  }
  double value = 0.0;
  ev.run(&value);
  return value;
}

}  // namespace rlcx::hmat
