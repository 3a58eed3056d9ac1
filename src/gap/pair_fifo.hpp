// pair_fifo.hpp — the "Individual Pipeline" of paper Fig. 5: a two-entry
// queue of selected parent-index pairs between the selection and
// crossover operators. Its depth is what lets the two engines overlap
// (pipelined mode); in sequential mode the control logic simply never
// lets both engines run at once and the FIFO degenerates to a mailbox.
#pragma once

#include <cstdint>

#include "rtl/module.hpp"

namespace leo::gap {

class PairFifo final : public rtl::Module {
 public:
  PairFifo(rtl::Module* parent, std::string name, unsigned pair_bits);

  // --- producer side (selection engine) ---
  rtl::Wire<std::uint16_t> in_pair;
  rtl::Wire<bool> push;
  rtl::Wire<bool> full;

  // --- consumer side (crossover engine) ---
  rtl::Wire<std::uint16_t> out_pair;
  rtl::Wire<bool> empty;
  rtl::Wire<bool> pop;

  void evaluate() override;
  void clock_edge() override;

  [[nodiscard]] rtl::Nets inputs() const override {
    return {&count_, &slot0_};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&full, &empty, &out_pair};
  }

  static constexpr unsigned kDepth = 2;

 private:
  rtl::Reg<std::uint16_t> slot0_;  // head (next out)
  rtl::Reg<std::uint16_t> slot1_;
  rtl::Reg<std::uint8_t> count_;
};

}  // namespace leo::gap
