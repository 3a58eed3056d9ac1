#include "fitness/rules.hpp"

namespace leo::fitness {

namespace {

using genome::kBitsPerLegStep;
using genome::kNumLegs;
using genome::kNumSteps;

/// Field extractors on the packed word. Bit index = step*18 + leg*3 + f.
constexpr bool v_first(std::uint64_t g, unsigned step, unsigned leg) noexcept {
  return (g >> (step * 18 + leg * kBitsPerLegStep + 0)) & 1;
}
constexpr bool horiz(std::uint64_t g, unsigned step, unsigned leg) noexcept {
  return (g >> (step * 18 + leg * kBitsPerLegStep + 1)) & 1;
}
constexpr bool v_last(std::uint64_t g, unsigned step, unsigned leg) noexcept {
  return (g >> (step * 18 + leg * kBitsPerLegStep + 2)) & 1;
}

}  // namespace

RuleViolations count_violations_reference(std::uint64_t g) noexcept {
  RuleViolations v;

  // R1 equilibrium: a side with all three legs raised in a settled pose.
  // Settled poses per step: during the sweep (heights = v_first) and at
  // step end (heights = v_last).
  for (unsigned step = 0; step < kNumSteps; ++step) {
    for (const bool use_last : {false, true}) {
      // side 0 = left legs {0,1,2}, side 1 = right legs {3,4,5}
      for (unsigned side = 0; side < 2; ++side) {
        bool all_up = true;
        for (unsigned i = 0; i < kNumLegs / 2; ++i) {
          const unsigned leg = side * 3 + i;
          const bool up = use_last ? v_last(g, step, leg) : v_first(g, step, leg);
          all_up = all_up && up;
        }
        if (all_up) ++v.equilibrium;
      }
    }
  }

  // R4 support (extension): more than three legs airborne in a settled
  // pose leaves fewer than three stance feet — statically unstable no
  // matter which legs they are.
  for (unsigned step = 0; step < kNumSteps; ++step) {
    for (const bool use_last : {false, true}) {
      unsigned raised = 0;
      for (unsigned leg = 0; leg < kNumLegs; ++leg) {
        raised += use_last ? v_last(g, step, leg) : v_first(g, step, leg);
      }
      if (raised > 3) ++v.support;
    }
  }

  // R2 symmetry: the horizontal direction must alternate between steps.
  for (unsigned leg = 0; leg < kNumLegs; ++leg) {
    if (horiz(g, 0, leg) == horiz(g, 1, leg)) ++v.symmetry;
  }

  // R3 coherence: up before forward, down before backward.
  for (unsigned step = 0; step < kNumSteps; ++step) {
    for (unsigned leg = 0; leg < kNumLegs; ++leg) {
      if (horiz(g, step, leg) != v_first(g, step, leg)) ++v.coherence;
    }
  }

  return v;
}

RuleViolations count_violations(const genome::GaitGenome& g) {
  return count_violations(g.to_bits());
}

unsigned score(const genome::GaitGenome& g, const FitnessSpec& spec) {
  return score(g.to_bits(), spec);
}

bool is_max_fitness(std::uint64_t genome_bits, const FitnessSpec& spec) noexcept {
  return score(genome_bits, spec) == spec.max_score();
}

}  // namespace leo::fitness
