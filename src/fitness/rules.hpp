// rules.hpp — the paper's three fitness rules (§3.2), made arithmetic.
//
// "After tests and simulations, we retained three rules which give good
//  results, without knowledge of the solution:
//   1. equilibrium — if the robot has three legs raised on the same side,
//      it will stumble and fall;
//   2. symmetry — if a leg goes forward in the first step, it should go
//      backward in the next step;
//   3. coherence — the leg has to be up before going forward [...] and
//      down before doing a propulsion movement (going backward)."
//
// The paper gives the rules but not the scoring; our concrete choice
// (documented in DESIGN.md §5) is:
//
//   R1 — for each step (2) and each settled pose within it (after the
//        first vertical move, i.e. during the horizontal sweep, and after
//        the final vertical move) and each body side (2): one violation
//        when all three legs of that side are raised.     max 8
//   R2 — per leg: one violation unless the horizontal direction differs
//        between the two steps.                           max 6
//   R3 — per leg and step: one violation unless the horizontal direction
//        matches the preceding vertical position
//        (forward ⇒ raised, backward ⇒ planted).          max 12
//
//   score = W1·(8−r1) + W2·(6−r2) + W3·(12−r3),  default weights 3/2/2
//   ⇒ max score 60 (fits the GAP's 6-bit fitness bus).
//
// All predicates are pure bit logic on the 36-bit genome word — the exact
// combinational function the hardware fitness module implements; the
// software GA, the hardware GAP and the FPGA netlist elaboration all call
// (or mirror) these functions, and tests cross-check them bit-for-bit.
#pragma once

#include <cstdint>

#include "genome/gait_genome.hpp"

namespace leo::fitness {

/// Per-rule violation counts for one genome.
struct RuleViolations {
  unsigned equilibrium = 0;  ///< R1, 0..8
  unsigned symmetry = 0;     ///< R2, 0..6
  unsigned coherence = 0;    ///< R3, 0..12
  /// R4 (extension, not in the paper): settled poses with more than three
  /// legs airborne, 0..4. The paper's R1 only forbids a full *side*; a
  /// 2-left + 2-right lift passes R1 yet leaves a two-foot support — our
  /// quasi-static study (EXPERIMENTS.md E4) shows ~half of the paper-rule
  /// optima tip over because of exactly this. Enabling R4 closes the gap.
  unsigned support = 0;

  constexpr bool operator==(const RuleViolations&) const noexcept = default;
};

inline constexpr unsigned kMaxEquilibriumViolations = 8;
inline constexpr unsigned kMaxSymmetryViolations = 6;
inline constexpr unsigned kMaxCoherenceViolations = 12;
inline constexpr unsigned kMaxSupportViolations = 4;

/// Scoring parameters. Disabling a rule (ablation, DESIGN.md E5) removes
/// both its reward and its penalty, keeping scores comparable in shape.
/// R4 (`use_support`) is an extension the paper does not have; it is off
/// in the default spec.
struct FitnessSpec {
  unsigned w_equilibrium = 3;
  unsigned w_symmetry = 2;
  unsigned w_coherence = 2;
  unsigned w_support = 3;
  bool use_equilibrium = true;
  bool use_symmetry = true;
  bool use_coherence = true;
  bool use_support = false;

  [[nodiscard]] constexpr unsigned max_score() const noexcept {
    unsigned m = 0;
    if (use_equilibrium) m += w_equilibrium * kMaxEquilibriumViolations;
    if (use_symmetry) m += w_symmetry * kMaxSymmetryViolations;
    if (use_coherence) m += w_coherence * kMaxCoherenceViolations;
    if (use_support) m += w_support * kMaxSupportViolations;
    return m;
  }

  constexpr bool operator==(const FitnessSpec&) const noexcept = default;
};

/// The configuration used by Discipulus Simplex (max score 60).
inline constexpr FitnessSpec kDefaultSpec{};

namespace detail {

/// Bit 0 (v_first) of each of one step's six leg fields.
inline constexpr std::uint64_t kStepLegs = 0b001'001'001'001'001'001;
/// Bit 0 of every leg field of both steps.
inline constexpr std::uint64_t kLegs = kStepLegs | (kStepLegs << 18);
/// The first leg field of each side (legs 0 and 3) of both steps.
inline constexpr std::uint64_t kStepSides = 0b001'000'000'001;
inline constexpr std::uint64_t kSides = kStepSides | (kStepSides << 18);

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

}  // namespace detail

/// Counts violations directly on the packed 36-bit genome — the hot path
/// of every software-backend evaluation. Like the hardware's AND/XOR
/// trees followed by small population counts, it is mask, AND and XOR
/// logic over the word, with each rule's per-leg results summed per step
/// by one multiply; no tables. Bit-identical to count_violations_reference
/// (tested exhaustively per step and over all horizontal bits). Defined
/// here, like util::Xoshiro256's draws, so a scoring loop inlines it.
[[nodiscard]] inline RuleViolations count_violations(
    std::uint64_t g) noexcept {
  using namespace detail;
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
  v.symmetry = genome::kNumLegs - step_total(step_sums(alternates), 0);
  return v;
}

/// The direct rule-by-rule loop implementation — the combinational
/// function the hardware implements, kept as the oracle the fast logic
/// (and the FPGA netlist) are checked against.
[[nodiscard]] RuleViolations count_violations_reference(
    std::uint64_t genome_bits) noexcept;

/// Decoded-genome convenience overload (must agree with the bit version;
/// tested exhaustively on random genomes).
[[nodiscard]] RuleViolations count_violations(const genome::GaitGenome& g);

/// Weighted score under `spec`; higher is better. Inline, like
/// count_violations, so GaEngine's evaluate loop makes no call per genome.
[[nodiscard]] inline unsigned score(
    std::uint64_t genome_bits,
    const FitnessSpec& spec = kDefaultSpec) noexcept {
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
[[nodiscard]] unsigned score(const genome::GaitGenome& g,
                             const FitnessSpec& spec = kDefaultSpec);

/// True iff the genome satisfies every enabled rule.
[[nodiscard]] bool is_max_fitness(std::uint64_t genome_bits,
                                  const FitnessSpec& spec = kDefaultSpec) noexcept;

}  // namespace leo::fitness
