// cache.hpp — deterministic result cache for the evolution service.
//
// evolve() is deterministic in (seed, config), so a completed run's
// EvolutionResult can be replayed for any later job with the same
// canonical config key (serve::config_key). Sweeps that revisit the same
// operating point — e.g. the paper's pop 32 / 0.8 / 0.7 / 15 point, which
// appears on every axis of the parameter sweep — become cache hits instead
// of re-running the engine. Only *complete* runs (target reached or
// config.max_generations exhausted) are inserted; budget-suspended or
// cancelled partial results never pollute the cache.
//
// Capacity: one LRU list plus an index under one mutex, so `capacity` is
// an exact bound on the total entry count; the least-recently-used entry
// is evicted first. The service already looks the cache up under its own
// admission mutex, so a finer lock would buy nothing. Hits, misses and
// evictions are counted in CacheStats only: one record per service, in
// which hits + misses = lookups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/evolution_engine.hpp"

namespace leo::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  std::uint64_t evictions = 0;
  std::size_t capacity = 0;  ///< total entry cap (0 = unbounded)
};

/// Thread-safe, capacity-bounded LRU map from config key to
/// EvolutionResult, with hit/miss/eviction accounting.
class ResultCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `capacity` caps the total entry count exactly (0 = unbounded).
  explicit ResultCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Returns the cached result for `key`, counting a hit or miss. A hit
  /// refreshes the entry's LRU position.
  [[nodiscard]] std::optional<core::EvolutionResult> lookup(std::uint64_t key);

  /// Inserts (or overwrites — results are deterministic, so any overwrite
  /// is a no-op in value) the result for `key`, evicting the
  /// least-recently-used entry if the cache is at capacity.
  void insert(std::uint64_t key, const core::EvolutionResult& result);

  [[nodiscard]] CacheStats stats() const;

 private:
  using Entry = std::pair<std::uint64_t, core::EvolutionResult>;

  const std::size_t capacity_;  ///< 0 = unbounded
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace leo::serve
