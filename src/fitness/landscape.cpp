#include "fitness/landscape.hpp"

#include "genome/gait_genome.hpp"

namespace leo::fitness {

namespace {

/// Builds the 8 per-leg two-step patterns satisfying R2 and R3: the step-0
/// horizontal choice h0 fixes both steps' v_first (= h), leaving both
/// steps' v_last free. Returned as 6-bit values (step0 gene | step1 << 3).
std::array<std::uint8_t, 8> coherent_leg_patterns() {
  std::array<std::uint8_t, 8> out{};
  std::size_t n = 0;
  for (unsigned h0 = 0; h0 < 2; ++h0) {
    for (unsigned vl0 = 0; vl0 < 2; ++vl0) {
      for (unsigned vl1 = 0; vl1 < 2; ++vl1) {
        const unsigned h1 = 1 - h0;
        const unsigned gene0 = h0 | (h0 << 1) | (vl0 << 2);  // v0 = h
        const unsigned gene1 = h1 | (h1 << 1) | (vl1 << 2);
        out[n++] = static_cast<std::uint8_t>(gene0 | (gene1 << 3));
      }
    }
  }
  return out;
}

/// Re-packs per-leg 6-bit patterns into a full 36-bit genome word.
std::uint64_t assemble(const std::array<std::uint8_t, 6>& pattern_per_leg) {
  std::uint64_t g = 0;
  for (unsigned leg = 0; leg < 6; ++leg) {
    const std::uint64_t gene0 = pattern_per_leg[leg] & 0x7u;
    const std::uint64_t gene1 = (pattern_per_leg[leg] >> 3) & 0x7u;
    g |= gene0 << (leg * 3);
    g |= gene1 << (18 + leg * 3);
  }
  return g;
}

}  // namespace

std::uint64_t count_max_fitness_exact() {
  const auto patterns = coherent_leg_patterns();
  // Enumerate all 8^6 coherent+symmetric assignments and test R1 exactly.
  std::uint64_t count = 0;
  std::array<std::uint8_t, 6> choice{};
  std::array<std::size_t, 6> idx{};
  for (;;) {
    for (unsigned leg = 0; leg < 6; ++leg) choice[leg] = patterns[idx[leg]];
    const std::uint64_t g = assemble(choice);
    if (count_violations(g).equilibrium == 0) ++count;
    // odometer increment
    unsigned leg = 0;
    while (leg < 6 && ++idx[leg] == patterns.size()) {
      idx[leg] = 0;
      ++leg;
    }
    if (leg == 6) break;
  }
  return count;
}

double max_fitness_density() {
  return static_cast<double>(count_max_fitness_exact()) /
         static_cast<double>(genome::kSearchSpace);
}

double expected_random_draws_to_max() { return 1.0 / max_fitness_density(); }

LandscapeSample sample_landscape(std::uint64_t n, util::Xoshiro256& rng,
                                 const FitnessSpec& spec) {
  LandscapeSample sample(spec);
  const unsigned max = spec.max_score();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    const unsigned s = score(g, spec);
    sample.scores.add(static_cast<double>(s));
    sample.histogram.add(static_cast<double>(s));
    if (s == max) ++sample.max_hits;
  }
  return sample;
}

}  // namespace leo::fitness
