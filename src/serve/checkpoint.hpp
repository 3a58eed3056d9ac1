// checkpoint.hpp — versioned binary snapshots of a suspended evolution.
//
// A Snapshot is everything core::EvolutionSession needs to continue a
// software-backend run bit-for-bit: the full config (canonical encoding,
// decodable), the GA engine state (population, best-ever individual,
// generation and evaluation counters, optional history) and the Xoshiro256
// RNG state. The binary layout is documented in DESIGN.md ("Snapshot
// format"); loaders reject bad magic, unknown versions, truncated input
// and config blocks whose recomputed cache key disagrees with the stored
// one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evolution_engine.hpp"
#include "ga/engine.hpp"
#include "util/rng.hpp"

namespace leo::serve {

inline constexpr std::uint32_t kSnapshotMagic = 0x4C454F53;  // "LEOS"
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// A suspended evolution, ready to be resumed or persisted.
struct Snapshot {
  core::EvolutionConfig config;
  std::uint64_t config_key = 0;  ///< serve::config_key(config)
  ga::EngineState state;
  util::Xoshiro256::State rng_state{};
};

/// Captures the current state of a session (software backend).
[[nodiscard]] Snapshot make_snapshot(const core::EvolutionSession& session);

/// Binary round trip. deserialize_snapshot throws std::runtime_error on
/// malformed input (bad magic/version, truncation, trailing bytes, key
/// mismatch, a genome width other than 36, genome bits above bit 35, a
/// stored fitness other than fitness::score(genome, config.spec), a
/// population count other than config.ga.population_size, or an
/// evaluation count other than (generation + 1) * population).
[[nodiscard]] std::vector<std::uint8_t> serialize_snapshot(
    const Snapshot& snapshot);
[[nodiscard]] Snapshot deserialize_snapshot(
    const std::vector<std::uint8_t>& bytes);

/// File round trip; throws std::runtime_error on I/O failure.
void save_snapshot(const std::string& path, const Snapshot& snapshot);
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

/// One-paragraph human summary (generation, best fitness, key) for the
/// CLI's `status <snapshot>` subcommand.
[[nodiscard]] std::string describe_snapshot(const Snapshot& snapshot);

}  // namespace leo::serve
