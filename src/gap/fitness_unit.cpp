#include "gap/fitness_unit.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fpga/fitness_netlist.hpp"
#include "fpga/techmap.hpp"
#include "genome/gait_genome.hpp"

namespace leo::gap {

namespace {

/// LUT4 cover of `spec`'s fitness netlist. Elaborating and mapping the
/// netlist costs ~0.2 ms, so each spec is mapped once per process; the
/// memo keeps the first kMaxSpecs specs (a run uses one, an ablation
/// sweep a handful) and maps any further ones on every call.
std::uint64_t fitness_lut4(const fitness::FitnessSpec& spec) {
  static constexpr std::size_t kMaxSpecs = 64;
  static std::mutex mutex;
  static std::vector<std::pair<fitness::FitnessSpec, std::uint64_t>> memo;
  {
    const std::scoped_lock lock(mutex);
    for (const auto& [known, lut4] : memo) {
      if (known == spec) return lut4;
    }
  }
  const std::uint64_t lut4 =
      fpga::map_to_lut4(fpga::build_fitness_netlist(spec)).lut4;
  const std::scoped_lock lock(mutex);
  if (memo.size() < kMaxSpecs &&
      std::none_of(memo.begin(), memo.end(),
                   [&](const auto& entry) { return entry.first == spec; })) {
    memo.emplace_back(spec, lut4);
  }
  return lut4;
}

}  // namespace

CombinationalFitness make_gait_fitness(const fitness::FitnessSpec& spec) {
  CombinationalFitness f;
  f.fn = [spec](std::uint64_t g) { return fitness::score(g, spec); };
  f.lut4 = fitness_lut4(spec);
  f.genome_bits = static_cast<unsigned>(genome::kGenomeBits);
  return f;
}

FitnessUnit::FitnessUnit(rtl::Module* parent, std::string name,
                         CombinationalFitness fitness)
    : rtl::Module(parent, std::move(name)),
      genome(this, "genome", fitness.genome_bits),
      score(this, "score", 8),
      fitness_(std::move(fitness)) {
  if (!fitness_.fn) {
    throw std::invalid_argument("FitnessUnit: fitness function required");
  }
}

void FitnessUnit::evaluate() {
  score.write(static_cast<std::uint8_t>(fitness_.fn(genome.read()) & 0xFF));
}

rtl::ResourceTally FitnessUnit::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += fitness_.lut4;
  return t;
}

}  // namespace leo::gap
