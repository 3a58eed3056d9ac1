// ca_rng_module.hpp — the GAP's random generator as an RTL module.
//
// Paper §3.2: "The first operator which runs every time is the random
// number generator. It generates a new pseudo-random number for all
// genetic operators at each clock cycle. It is implemented as a
// one-dimensional cellular machine (XOR system). It does not depend on
// the execution of the genetic algorithm."
//
// Accordingly this module free-runs: one CA step per clock, its state
// published on `word` for every consumer to slice fields from. It is the
// bit-exact hardware twin of util::CaRng (asserted in tests).
#pragma once

#include <cstdint>

#include "rtl/module.hpp"
#include "util/ca_rng.hpp"

namespace leo::gap {

class CaRngModule final : public rtl::Module {
 public:
  /// `seed` initializes the cell array (nonzero; zero is coerced to 1,
  /// like the software model).
  CaRngModule(rtl::Module* parent, std::string name, std::uint64_t seed);

  /// The full 16-cell state, fresh every cycle.
  rtl::Wire<std::uint16_t> word;

  void evaluate() override;
  void clock_edge() override;
  void reset() override;

  [[nodiscard]] rtl::Nets inputs() const override {
    return {&cells_};
  }

  [[nodiscard]] rtl::Nets drives() const override { return {&word}; }

  /// 16 FFs plus one LUT4 (XOR3 max) per cell.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

  static constexpr unsigned kWidth = 16;

 private:
  rtl::Reg<std::uint16_t> cells_;
};

}  // namespace leo::gap
