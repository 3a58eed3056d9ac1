#include "serve/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "serve/config_hash.hpp"

namespace leo::serve {

namespace {

using detail::ByteReader;
using detail::ByteWriter;

/// An individual is its genome width (u32), the packed genome word (u64)
/// and its fitness (u32).
void write_individual(ByteWriter& w, const ga::Individual& ind,
                      std::size_t genome_bits) {
  w.u32(static_cast<std::uint32_t>(genome_bits));
  w.u64(ind.genome.bits);
  w.u32(ind.fitness);
}

/// Strict inverse of write_individual for a `genome_bits`-wide config:
/// anything write_individual could not have produced is rejected.
ga::Individual read_individual(ByteReader& r, std::size_t genome_bits) {
  const std::uint32_t width = r.u32();
  if (width == 0 || width > ga::kMaxGenomeBits) {
    throw std::runtime_error("snapshot: genome width outside [1, 64]");
  }
  if (width != genome_bits) {
    throw std::runtime_error("snapshot: genome width does not match config");
  }
  ga::Individual ind;
  ind.genome.bits = r.u64();
  if (ind.genome.bits & ~ga::genome_mask(width)) {
    throw std::runtime_error("snapshot: genome bits set above its width");
  }
  ind.fitness = r.u32();
  return ind;
}

/// "0x" + one hex digit per started nibble of `genome_bits`.
std::string genome_hex(std::uint64_t genome, std::size_t genome_bits) {
  const int digits =
      static_cast<int>((std::min(genome_bits, ga::kMaxGenomeBits) + 3) / 4);
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%0*llx", digits,
                static_cast<unsigned long long>(genome));
  return buf;
}

}  // namespace

Snapshot make_snapshot(const core::EvolutionSession& session) {
  Snapshot snap;
  snap.config = session.config();
  snap.config_key = config_key(snap.config);
  snap.state = session.state();
  snap.rng_state = session.rng_state();
  return snap;
}

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snapshot) {
  ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u32(kConfigCodecVersion);
  w.u64(snapshot.config_key);

  const std::vector<std::uint8_t> config_bytes =
      encode_config(snapshot.config);
  w.u32(static_cast<std::uint32_t>(config_bytes.size()));
  for (const std::uint8_t byte : config_bytes) w.u8(byte);

  for (const std::uint64_t word : snapshot.rng_state) w.u64(word);

  const ga::EngineState& st = snapshot.state;
  const std::size_t bits = snapshot.config.ga.genome_bits;
  w.u64(st.generation);
  w.u64(st.evaluations);
  write_individual(w, st.best, bits);
  w.u32(static_cast<std::uint32_t>(st.population.size()));
  for (const ga::Individual& ind : st.population) {
    write_individual(w, ind, bits);
  }
  w.u32(static_cast<std::uint32_t>(st.history.size()));
  for (const ga::GenerationStats& gs : st.history) {
    w.u64(gs.generation);
    w.u32(gs.best_fitness);
    w.u32(gs.worst_fitness);
    w.f64(gs.mean_fitness);
    w.u32(gs.best_ever_fitness);
    w.f64(gs.diversity);
  }
  std::vector<std::uint8_t> bytes = w.take();
  if (obs::enabled()) {
    obs::registry()
        .counter("leo_serve_checkpoint_bytes_total")
        .inc(bytes.size());
  }
  return bytes;
}

Snapshot deserialize_snapshot(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.u32() != kSnapshotMagic) {
    throw std::runtime_error("snapshot: bad magic (not a snapshot file)");
  }
  if (r.u32() != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported snapshot version");
  }
  if (r.u32() != kConfigCodecVersion) {
    throw std::runtime_error("snapshot: unsupported config codec version");
  }

  Snapshot snap;
  snap.config_key = r.u64();
  const std::uint32_t config_len = r.u32();
  if (config_len > r.remaining()) {
    throw std::runtime_error("snapshot: truncated config block");
  }
  const std::size_t config_end = r.remaining() - config_len;
  snap.config = decode_config(r);
  if (r.remaining() != config_end) {
    throw std::runtime_error("snapshot: config block length mismatch");
  }
  if (config_key(snap.config) != snap.config_key) {
    throw std::runtime_error("snapshot: config key mismatch (corrupt file)");
  }

  for (std::uint64_t& word : snap.rng_state) word = r.u64();

  ga::EngineState& st = snap.state;
  const std::size_t bits = snap.config.ga.genome_bits;
  st.generation = r.u64();
  st.evaluations = r.u64();
  st.best = read_individual(r, bits);
  const std::uint32_t pop_size = r.u32();
  if (std::size_t{pop_size} * 16 > r.remaining()) {
    throw std::runtime_error("snapshot: truncated population");
  }
  st.population.reserve(pop_size);
  for (std::uint32_t i = 0; i < pop_size; ++i) {
    st.population.push_back(read_individual(r, bits));
  }
  const std::uint32_t history_size = r.u32();
  if (std::size_t{history_size} * 32 > r.remaining()) {
    throw std::runtime_error("snapshot: truncated history");
  }
  st.history.reserve(history_size);
  for (std::uint32_t i = 0; i < history_size; ++i) {
    ga::GenerationStats gs;
    gs.generation = r.u64();
    gs.best_fitness = r.u32();
    gs.worst_fitness = r.u32();
    gs.mean_fitness = r.f64();
    gs.best_ever_fitness = r.u32();
    gs.diversity = r.f64();
    st.history.push_back(gs);
  }
  if (r.remaining() != 0) {
    throw std::runtime_error("snapshot: trailing bytes");
  }
  return snap;
}

void save_snapshot(const std::string& path, const Snapshot& snapshot) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snapshot);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: write failed for " + path);
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("snapshot: read failed for " + path);
  return deserialize_snapshot(bytes);
}

std::string describe_snapshot(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "snapshot v" << kSnapshotVersion << "  key "
      << key_to_string(snapshot.config_key) << "\n"
      << "  seed " << snapshot.config.seed << "  generation "
      << snapshot.state.generation << "  evaluations "
      << snapshot.state.evaluations << "\n"
      << "  best fitness " << snapshot.state.best.fitness << "/"
      << snapshot.config.spec.max_score() << "  best genome "
      << genome_hex(snapshot.state.best.genome.bits,
                    snapshot.config.ga.genome_bits)
      << "\n"
      << "  population " << snapshot.state.population.size() << " x "
      << snapshot.config.ga.genome_bits << " bits, history "
      << snapshot.state.history.size() << " entries";
  return out.str();
}

}  // namespace leo::serve
