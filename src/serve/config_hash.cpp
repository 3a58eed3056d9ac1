#include "serve/config_hash.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

namespace leo::serve {

namespace detail {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t ByteReader::u8() {
  if (offset_ >= size_) throw std::runtime_error("decode: truncated input");
  return data_[offset_++];
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

}  // namespace detail

namespace {

std::uint8_t bool_byte(bool b) { return b ? 1 : 0; }

/// Inverse of bool_byte; any other byte is corruption, not "true".
bool read_bool(detail::ByteReader& r) {
  const std::uint8_t byte = r.u8();
  if (byte > 1) throw std::runtime_error("decode: bad bool value");
  return byte != 0;
}

}  // namespace

std::vector<std::uint8_t> encode_config(const core::EvolutionConfig& config) {
  detail::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(config.backend));
  w.u64(config.seed);
  w.u64(config.max_generations);
  w.u8(bool_byte(config.track_history));
  // config.sim_mode is deliberately NOT encoded: the settle kernel does
  // not affect results (bit-identical genomes, generations and cycle
  // counts — asserted by the mode-equivalence tests), so jobs differing
  // only in sim_mode correctly share one cache entry.

  const fitness::FitnessSpec& spec = config.spec;
  w.u32(spec.w_equilibrium);
  w.u32(spec.w_symmetry);
  w.u32(spec.w_coherence);
  w.u32(spec.w_support);
  w.u8(bool_byte(spec.use_equilibrium));
  w.u8(bool_byte(spec.use_symmetry));
  w.u8(bool_byte(spec.use_coherence));
  w.u8(bool_byte(spec.use_support));

  const ga::GaParams& ga = config.ga;
  w.u64(ga.population_size);
  w.u64(ga.genome_bits);
  w.u8(ga.selection_threshold.raw());
  w.u8(ga.crossover_threshold.raw());
  w.u32(ga.mutations_per_generation);
  w.u8(bool_byte(ga.elitism));

  const gap::GapParams& gap = config.gap;
  w.u32(gap.population_size);
  w.u32(gap.genome_bits);
  w.u8(gap.selection_threshold.raw());
  w.u8(gap.crossover_threshold.raw());
  w.u32(gap.mutations_per_generation);
  w.u8(bool_byte(gap.pipelined));
  w.u32(gap.target_fitness);
  return w.take();
}

core::EvolutionConfig decode_config(detail::ByteReader& r) {
  core::EvolutionConfig config;
  const std::uint8_t backend = r.u8();
  if (backend > 1) throw std::runtime_error("decode: bad backend value");
  config.backend = static_cast<core::Backend>(backend);
  config.seed = r.u64();
  config.max_generations = r.u64();
  config.track_history = read_bool(r);

  fitness::FitnessSpec& spec = config.spec;
  spec.w_equilibrium = r.u32();
  spec.w_symmetry = r.u32();
  spec.w_coherence = r.u32();
  spec.w_support = r.u32();
  spec.use_equilibrium = read_bool(r);
  spec.use_symmetry = read_bool(r);
  spec.use_coherence = read_bool(r);
  spec.use_support = read_bool(r);

  ga::GaParams& ga = config.ga;
  ga.population_size = r.u64();
  ga.genome_bits = r.u64();
  ga.selection_threshold = util::Prob8(r.u8());
  ga.crossover_threshold = util::Prob8(r.u8());
  ga.mutations_per_generation = r.u32();
  ga.elitism = read_bool(r);

  gap::GapParams& gap = config.gap;
  gap.population_size = r.u32();
  gap.genome_bits = r.u32();
  gap.selection_threshold = util::Prob8(r.u8());
  gap.crossover_threshold = util::Prob8(r.u8());
  gap.mutations_per_generation = r.u32();
  gap.pipelined = read_bool(r);
  gap.target_fitness = r.u32();
  return config;
}

std::uint64_t config_key(const core::EvolutionConfig& config) {
  // FNV-1a 64, seeded with the codec version so encoding changes never
  // alias keys across releases.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (int i = 0; i < 4; ++i) {
    mix(static_cast<std::uint8_t>(kConfigCodecVersion >> (8 * i)));
  }
  for (const std::uint8_t byte : encode_config(config)) mix(byte);
  return h;
}

std::string key_to_string(std::uint64_t key) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace leo::serve
