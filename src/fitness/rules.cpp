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

namespace {

/// Bit 0 (v_first) of each of one step's six leg fields.
constexpr std::uint64_t kStepLegs = 0b001'001'001'001'001'001;
/// Bit 0 of every leg field of both steps.
constexpr std::uint64_t kLegs = kStepLegs | (kStepLegs << 18);
/// The first leg field of each side (legs 0 and 3) of both steps.
constexpr std::uint64_t kStepSides = 0b001'000'000'001;
constexpr std::uint64_t kSides = kStepSides | (kStepSides << 18);

/// Per-step sums of small counts held at the leg-field positions of `x`
/// (bit 3*leg, and 18 + 3*leg for step 1). Multiplying by kStepLegs adds
/// each step's six fields into bits 15..17 (step 0) and 33..35 (step 1);
/// the 3-bit fields never carry because every partial sum stays <= 6.
constexpr std::uint64_t step_sums(std::uint64_t x) noexcept {
  return x * kStepLegs;
}
constexpr unsigned step_total(std::uint64_t sums, unsigned step) noexcept {
  return static_cast<unsigned>(sums >> (15 + 18 * step)) & 7u;
}
constexpr unsigned both_steps(std::uint64_t sums) noexcept {
  return step_total(sums, 0) + step_total(sums, 1);
}

}  // namespace

RuleViolations count_violations(std::uint64_t g) noexcept {
  // Each leg's v_first and v_last, moved to bit 0 of its field.
  const std::uint64_t first = g & kLegs;
  const std::uint64_t last = (g >> 2) & kLegs;
  RuleViolations v;
  // R1: a side is all raised when its three consecutive leg fields are;
  // the AND lands on the side's first leg, which sums 0..2 (one per pose).
  const std::uint64_t side_up =
      (first & (first >> 3) & (first >> 6) & kSides) +
      (last & (last >> 3) & (last >> 6) & kSides);
  v.equilibrium = both_steps(step_sums(side_up));
  // R4: a pose with more than three raised legs — a step total of 4..6,
  // i.e. bit 2 of its 3-bit field.
  const std::uint64_t first_sums = step_sums(first);
  const std::uint64_t last_sums = step_sums(last);
  v.support = static_cast<unsigned>(((first_sums >> 17) & 1) +
                                    ((first_sums >> 35) & 1) +
                                    ((last_sums >> 17) & 1) +
                                    ((last_sums >> 35) & 1));
  // R3: horizontal (field bit 1) differs from v_first (field bit 0).
  v.coherence = both_steps(step_sums((g ^ (g >> 1)) & kLegs));
  // R2 is the one cross-step rule: a leg violates unless its horizontal
  // bits differ between steps.
  const std::uint64_t alternates = ((g ^ (g >> 18)) >> 1) & kStepLegs;
  v.symmetry = kNumLegs - step_total(step_sums(alternates), 0);
  return v;
}

RuleViolations count_violations(const genome::GaitGenome& g) {
  return count_violations(g.to_bits());
}

unsigned score(std::uint64_t genome_bits, const FitnessSpec& spec) noexcept {
  const RuleViolations v = count_violations(genome_bits);
  unsigned s = 0;
  if (spec.use_equilibrium) {
    s += spec.w_equilibrium * (kMaxEquilibriumViolations - v.equilibrium);
  }
  if (spec.use_symmetry) {
    s += spec.w_symmetry * (kMaxSymmetryViolations - v.symmetry);
  }
  if (spec.use_coherence) {
    s += spec.w_coherence * (kMaxCoherenceViolations - v.coherence);
  }
  if (spec.use_support) {
    s += spec.w_support * (kMaxSupportViolations - v.support);
  }
  return s;
}

unsigned score(const genome::GaitGenome& g, const FitnessSpec& spec) {
  return score(g.to_bits(), spec);
}

bool is_max_fitness(std::uint64_t genome_bits, const FitnessSpec& spec) noexcept {
  return score(genome_bits, spec) == spec.max_score();
}

}  // namespace leo::fitness
