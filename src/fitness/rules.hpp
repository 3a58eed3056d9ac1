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

/// Counts violations directly on the packed 36-bit genome — the hot path
/// of every software-backend evaluation. Like the hardware's AND/XOR
/// trees followed by small population counts, it is mask, AND and XOR
/// logic over the word, with each rule's per-leg results summed per step
/// by one multiply; no tables. Bit-identical to count_violations_reference
/// (tested exhaustively per step and over all horizontal bits).
[[nodiscard]] RuleViolations count_violations(std::uint64_t genome_bits) noexcept;

/// The direct rule-by-rule loop implementation — the combinational
/// function the hardware implements, kept as the oracle the fast logic
/// (and the FPGA netlist) are checked against.
[[nodiscard]] RuleViolations count_violations_reference(
    std::uint64_t genome_bits) noexcept;

/// Decoded-genome convenience overload (must agree with the bit version;
/// tested exhaustively on random genomes).
[[nodiscard]] RuleViolations count_violations(const genome::GaitGenome& g);

/// Weighted score under `spec`; higher is better.
[[nodiscard]] unsigned score(std::uint64_t genome_bits,
                             const FitnessSpec& spec = kDefaultSpec) noexcept;
[[nodiscard]] unsigned score(const genome::GaitGenome& g,
                             const FitnessSpec& spec = kDefaultSpec);

/// True iff the genome satisfies every enabled rule.
[[nodiscard]] bool is_max_fitness(std::uint64_t genome_bits,
                                  const FitnessSpec& spec = kDefaultSpec) noexcept;

}  // namespace leo::fitness
