// gap_params.hpp — hardware parameters of the Genetic Algorithm
// Processor, mirroring the VHDL generics the paper describes (§3.3:
// "it is possible to parameterize the entire logic system").
#pragma once

#include <cstdint>

#include "util/fixed.hpp"

namespace leo::gap {

struct GapParams {
  /// §3.3 "Population size: 32 individuals" (power of two; the address
  /// fields sliced from the random word assume it).
  std::uint32_t population_size = 32;
  /// §3.3 "Selection threshold: 0.8" (tournament win probability).
  util::Prob8 selection_threshold = util::Prob8::from_double(0.8);
  /// §3.3 "Crossover threshold: 0.7".
  util::Prob8 crossover_threshold = util::Prob8::from_double(0.7);
  /// §3.3 "Number of mutations: 15 bits (over 1152 bits)" per generation.
  unsigned mutations_per_generation = 15;
  /// §3.2: selection and crossover "in a pipeline" (~2x); false serializes
  /// them for the E7 ablation.
  bool pipelined = true;
  /// Evolution stops once the best individual reaches this fitness (at
  /// most 255: scores, the fitness RAM and the best register are 8 bits).
  /// core::evolve overwrites it with the config's spec.max_score(); only a
  /// GapTop built directly runs to another target.
  unsigned target_fitness = 60;

  [[nodiscard]] unsigned addr_bits() const noexcept {
    unsigned bits = 1;
    while ((std::uint32_t{1} << bits) < population_size) ++bits;
    return bits;
  }
};

/// §3.3 "Frequency: 1 MHz" — converts cycle counts to the paper's wall
/// clock.
inline constexpr double kGapClockHz = 1.0e6;

}  // namespace leo::gap
