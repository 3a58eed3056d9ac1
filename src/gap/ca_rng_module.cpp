#include "gap/ca_rng_module.hpp"

namespace leo::gap {

CaRngModule::CaRngModule(rtl::Module* parent, std::string name,
                         std::uint64_t seed)
    : rtl::Module(parent, std::move(name)),
      word(this, "word", kWidth),
      cells_(this, "cells", kWidth,
             static_cast<std::uint16_t>(
                 util::CaRng::make_hortensius16(seed).state())) {}

void CaRngModule::evaluate() {
  word.write(cells_.read());
}

void CaRngModule::clock_edge() {
  // The CA's next-state function is pure combinational logic; apply the
  // software model's function to the registered state so HW and SW
  // streams match bit-for-bit.
  cells_.set_next(static_cast<std::uint16_t>(util::CaRng::next_state(
      cells_.read(), (std::uint64_t{1} << kWidth) - 1,
      util::CaRng::kHortensius16Rule)));
}

void CaRngModule::reset() {
  // Registers auto-reset to the seeded initial state via their reset
  // value, which was captured at construction.
}

rtl::ResourceTally CaRngModule::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += kWidth;  // one 3-input XOR per cell
  return t;
}

}  // namespace leo::gap
