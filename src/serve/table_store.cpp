#include "serve/table_store.h"

#include <ostream>
#include <utility>

#include "diag/error.h"
#include "res/budget.h"

namespace rlcx::serve {

namespace {

/// The resident key: the cache's content address plus the extrapolation
/// policy, which is baked into the model object.
std::string store_key(const std::string& key_text,
                      core::ExtrapolationPolicy policy) {
  return key_text + "\n@extrapolation=" + core::to_string(policy);
}

}  // namespace

WarmTableStore::WarmTableStore(const std::string& cache_dir,
                               std::size_t max_tables,
                               std::size_t max_bytes,
                               core::CacheRecoveryPolicy policy)
    : max_tables_(max_tables), max_bytes_(max_bytes),
      cache_(cache_dir, policy) {
  if (max_tables < 1)
    throw diag::UsageError("serve", "--max-tables must be >= 1");
}

WarmTableStore::~WarmTableStore() {
  // Return the resident charge so a budget outliving the store (tests,
  // embedding processes) does not leak phantom usage.
  res::Budget::global().unaccount(resident_bytes_);
}

void WarmTableStore::evict_over_bounds_locked() {
  // The byte bound keeps >= 1 entry: one model larger than the cap must
  // still serve (evicting it would just rebuild it on the next request).
  while (lru_.size() > max_tables_ ||
         (max_bytes_ > 0 && resident_bytes_ > max_bytes_ &&
          lru_.size() > 1)) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    res::Budget::global().unaccount(victim.bytes);
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const core::InductanceProvider> WarmTableStore::provider(
    const cli::ProviderRequest& request, std::ostream& out) {
  const std::string key_text = core::TableCache::key_text(
      *request.tech, request.layer, request.planes, request.grid,
      request.options);
  const std::string id = core::TableCache::key_id(key_text);
  const std::string key = store_key(key_text, request.extrapolation);

  {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      out << "table store: warm hit, key " << id << "\n";
      return it->second->model;
    }
  }

  // Miss: characterise (or load) through the on-disk cache outside the
  // lock — a second request for a different table must not serialise
  // behind this build.
  core::BuildStats bstats;
  core::InductanceTables tables = core::build_tables_cached(
      *request.tech, request.layer, request.planes, request.grid,
      request.options, cache_, &bstats);
  auto model =
      std::make_shared<core::TableInductanceModel>(std::move(tables));
  model->set_extrapolation_policy(request.extrapolation);

  std::lock_guard<std::mutex> lock(m_);
  ++misses_;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Lost a build race for the same key: keep the resident model so
    // every holder shares one instance.
    lru_.splice(lru_.begin(), lru_, it->second);
    out << "table store: warm miss, key " << id << ", "
        << bstats.solves << " field solves\n";
    return it->second->model;
  }
  const std::size_t bytes = model->tables().resident_bytes();
  lru_.push_front(Entry{key, id, bytes, model});
  index_[key] = lru_.begin();
  resident_bytes_ += bytes;
  res::Budget::global().account(bytes);
  evict_over_bounds_locked();
  out << "table store: warm miss, key " << id << ", " << bstats.solves
      << " field solves\n";
  return model;
}

WarmTableStore::Stats WarmTableStore::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident = lru_.size();
  s.resident_bytes = resident_bytes_;
  return s;
}

std::vector<WarmTableStore::EntryInfo> WarmTableStore::entries() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<EntryInfo> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(EntryInfo{e.id, e.bytes});
  return out;
}

}  // namespace rlcx::serve
