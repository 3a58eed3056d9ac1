// ca_rng.hpp — software model of the GAP's cellular-automaton random
// generator.
//
// The paper (§3.2) implements the GAP's random number generator as a
// "one-dimensional cellular machine (XOR system)" that emits a fresh
// pseudo-random word every clock cycle. The classic realization — and the
// standard one in 1990s evolvable-hardware work — is a hybrid rule-90 /
// rule-150 cellular automaton:
//
//   rule 90 :  next[i] = cell[i-1] XOR cell[i+1]
//   rule 150:  next[i] = cell[i-1] XOR cell[i] XOR cell[i+1]
//
// with null (zero) boundary conditions. For specific rule assignments the
// CA is a maximal-length sequence generator: its state cycles through all
// 2^n - 1 nonzero states (Hortensius et al., IEEE Trans. CAD, 1989). We
// ship an exhaustively verified maximal hybrid for n = 16. Each clock
// yields one fresh word (the whole next state), from which the GAP's
// operators slice their random fields.
//
// This class is the bit-exact software twin of the RTL module
// gap::CaRngModule; tests assert that the two produce identical streams.
// A draw is step(), one inline CA clock; the RTL twin clocks the same
// next_state().
#pragma once

#include <cstdint>

namespace leo::util {

class CaRng final {
 public:
  /// Builds a hybrid 90/150 CA. `rule150_mask` bit i set means cell i uses
  /// rule 150, clear means rule 90. Null boundaries. `seed` must leave the
  /// state nonzero; a zero seed is replaced by 1.
  CaRng(unsigned width, std::uint64_t rule150_mask, std::uint64_t seed);

  /// Rule-150 cell selector of the canonical 16-cell maximal-length
  /// hybrid (verified exhaustively in tests: period 2^16 - 1).
  static constexpr std::uint64_t kHortensius16Rule = 0x0015;

  /// The canonical generator used by the GAP: 16 cells, maximal length
  /// (period 2^16 - 1), rule-150 cells per kHortensius16Rule.
  static CaRng make_hortensius16(std::uint64_t seed);

  /// The CA's combinational next-state function over `mask`'s cells, with
  /// null boundaries: conceptual cells -1 and `width` are constant zero,
  /// which plain shifts provide for free. step() applies it, and the RTL
  /// twin clocks it into its cell register.
  [[nodiscard]] static constexpr std::uint64_t next_state(
      std::uint64_t state, std::uint64_t mask,
      std::uint64_t rule150_mask) noexcept {
    const std::uint64_t left = (state << 1) & mask;  // neighbour i-1
    const std::uint64_t right = state >> 1;          // neighbour i+1
    return (left ^ right ^ (state & rule150_mask)) & mask;
  }

  /// Advances the CA by one clock and returns the new state.
  std::uint64_t step() noexcept {
    state_ = next_state(state_, mask_, rule150_);
    return state_;
  }

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] unsigned width() const noexcept { return width_; }

 private:
  unsigned width_;
  std::uint64_t mask_;       // low `width_` bits set
  std::uint64_t rule150_;    // per-cell rule selector
  std::uint64_t state_;
};

}  // namespace leo::util
