#include "serve/cache.hpp"

namespace leo::serve {

std::optional<core::EvolutionResult> ResultCache::lookup(std::uint64_t key) {
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh
  return it->second->second;
}

void ResultCache::insert(std::uint64_t key,
                         const core::EvolutionResult& result) {
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, result);
  index_.emplace(key, lru_.begin());
  while (capacity_ != 0 && index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats ResultCache::stats() const {
  const std::scoped_lock lock(mutex_);
  return CacheStats{.hits = hits_,
                    .misses = misses_,
                    .entries = index_.size(),
                    .evictions = evictions_,
                    .capacity = capacity_};
}

}  // namespace leo::serve
