#include "serve/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fitness/rules.hpp"
#include "genome/gait_genome.hpp"
#include "serve/config_hash.hpp"

namespace leo::serve {

namespace {

using detail::ByteReader;
using detail::ByteWriter;

/// An individual is its genome width (u32, always 36), the packed genome
/// word (u64) and its fitness (u32).
void write_individual(ByteWriter& w, const ga::Individual& ind) {
  w.u32(static_cast<std::uint32_t>(genome::kGenomeBits));
  w.u64(ind.genome.bits);
  w.u32(ind.fitness);
}

/// Strict inverse of write_individual: anything write_individual could not
/// have produced from a run scored by `spec` is rejected, including a
/// stored fitness that is not the genome's score.
ga::Individual read_individual(ByteReader& r,
                               const fitness::FitnessSpec& spec) {
  if (r.u32() != genome::kGenomeBits) {
    throw std::runtime_error("snapshot: genome width is not 36");
  }
  ga::Individual ind;
  ind.genome.bits = r.u64();
  if (ind.genome.bits & ~genome::kGenomeMask) {
    throw std::runtime_error("snapshot: genome bits set above bit 35");
  }
  ind.fitness = r.u32();
  if (ind.fitness != fitness::score(ind.genome.bits, spec)) {
    throw std::runtime_error("snapshot: fitness does not match its genome");
  }
  return ind;
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
  w.u64(st.generation);
  w.u64(st.evaluations);
  write_individual(w, st.best);
  w.u32(static_cast<std::uint32_t>(st.population.size()));
  for (const ga::Individual& ind : st.population) write_individual(w, ind);
  w.u32(static_cast<std::uint32_t>(st.history.size()));
  for (const ga::GenerationStats& gs : st.history) {
    w.u64(gs.generation);
    w.u32(gs.best_fitness);
    w.u32(gs.worst_fitness);
    w.f64(gs.mean_fitness);
    w.u32(gs.best_ever_fitness);
    w.f64(gs.diversity);
  }
  return w.take();
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
  const fitness::FitnessSpec& spec = snap.config.spec;
  st.generation = r.u64();
  st.evaluations = r.u64();
  st.best = read_individual(r, spec);
  const std::uint32_t pop_size = r.u32();
  // GaEngine needs at least 2 individuals, and a zero must not reach the
  // division below.
  if (pop_size < 2 || pop_size != snap.config.ga.population_size) {
    throw std::runtime_error("snapshot: population size does not match config");
  }
  // A GA state counts its initial population and one population per
  // generation, so evaluations == (generation + 1) * population. Checked
  // by division, which cannot overflow.
  if (st.evaluations % pop_size != 0 ||
      st.evaluations / pop_size == 0 ||
      st.evaluations / pop_size - 1 != st.generation) {
    throw std::runtime_error(
        "snapshot: evaluation count does not match generation count");
  }
  if (std::size_t{pop_size} * 16 > r.remaining()) {
    throw std::runtime_error("snapshot: truncated population");
  }
  st.population.reserve(pop_size);
  for (std::uint32_t i = 0; i < pop_size; ++i) {
    st.population.push_back(read_individual(r, spec));
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
      << genome::GaitGenome::from_bits(snapshot.state.best.genome.bits)
             .to_hex()
      << "\n"
      << "  population " << snapshot.state.population.size() << " x "
      << genome::kGenomeBits << " bits, history "
      << snapshot.state.history.size() << " entries";
  return out.str();
}

}  // namespace leo::serve
