#include "serve/config_hash.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "genome/gait_genome.hpp"

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

/// FNV-1a 64 over the bytes written to it, in ByteWriter's byte order,
/// without storing them.
class Fnv1aWriter {
 public:
  void u8(std::uint8_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The canonical bytes of `config`, written to `w`: a ByteWriter for
/// encode_config(), an Fnv1aWriter for config_key().
template <typename Writer>
void write_config(Writer& w, const core::EvolutionConfig& config) {
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

  // The genome widths of both backends and the software GA's elitism
  // flag are fixed (36 bits, no elitism) but keep their slots, so keys
  // and snapshots stay byte-identical to codec v1 as first released.
  const ga::GaParams& ga = config.ga;
  w.u64(ga.population_size);
  w.u64(genome::kGenomeBits);
  w.u8(ga.selection_threshold.raw());
  w.u8(ga.crossover_threshold.raw());
  w.u32(ga.mutations_per_generation);
  w.u8(0);

  const gap::GapParams& gap = config.gap;
  w.u32(gap.population_size);
  w.u32(static_cast<std::uint32_t>(genome::kGenomeBits));
  w.u8(gap.selection_threshold.raw());
  w.u8(gap.crossover_threshold.raw());
  w.u32(gap.mutations_per_generation);
  w.u8(bool_byte(gap.pipelined));
  w.u32(gap.target_fitness);
}

}  // namespace

std::vector<std::uint8_t> encode_config(const core::EvolutionConfig& config) {
  detail::ByteWriter w;
  write_config(w, config);
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
  if (r.u64() != genome::kGenomeBits) {
    throw std::runtime_error("decode: software GA genome width is not 36");
  }
  ga.selection_threshold = util::Prob8(r.u8());
  ga.crossover_threshold = util::Prob8(r.u8());
  ga.mutations_per_generation = r.u32();
  if (r.u8() != 0) {
    throw std::runtime_error("decode: software GA elitism byte is not 0");
  }

  gap::GapParams& gap = config.gap;
  gap.population_size = r.u32();
  if (r.u32() != genome::kGenomeBits) {
    throw std::runtime_error("decode: GAP genome width is not 36");
  }
  gap.selection_threshold = util::Prob8(r.u8());
  gap.crossover_threshold = util::Prob8(r.u8());
  gap.mutations_per_generation = r.u32();
  gap.pipelined = read_bool(r);
  gap.target_fitness = r.u32();
  return config;
}

std::uint64_t config_key(const core::EvolutionConfig& config) {
  // Hashed as written, so a key costs no allocation. The codec version
  // goes first so encoding changes never alias keys across releases.
  Fnv1aWriter w;
  w.u32(kConfigCodecVersion);
  write_config(w, config);
  return w.hash();
}

std::string key_to_string(std::uint64_t key) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace leo::serve
