// crossover_engine.hpp — the GAP's crossover operator.
//
// Paper §3.2: "For the crossover operator, the single-point crossover
// method is used. [...] The two genomes are cut at the crossover point
// and the part after the point are swapped, creating two new genomes. A
// threshold defines how many crossover operations are performed on the
// population."
//
// Microarchitecture: pops a parent-index pair from the FIFO, streams both
// parents out of the basis population RAM, splices them combinationally
// at a cut drawn from the CA word (threshold byte decides splice vs plain
// copy), and writes the two children into the intermediate population
// RAM. Five cycles per pair plus the FIFO pop.
#pragma once

#include <cstdint>

#include "gap/gap_params.hpp"
#include "gap/pair_fifo.hpp"
#include "rtl/module.hpp"

namespace leo::gap {

class CrossoverEngine final : public rtl::Module {
 public:
  CrossoverEngine(rtl::Module* parent, std::string name,
                  const GapParams& params,
                  const rtl::Wire<std::uint16_t>& rand_word,
                  const rtl::Wire<std::uint64_t>& basis_rdata,
                  PairFifo& fifo);

  // --- control ---
  rtl::Wire<bool> start;   ///< pulse: consume population_size/2 pairs
  rtl::Wire<bool> enable;  ///< gate for sequential mode

  // --- status ---
  rtl::Wire<bool> busy;
  rtl::Wire<bool> done;

  // --- memory port requests (muxed onto the RAMs by GapTop) ---
  rtl::Wire<std::uint64_t> basis_addr;
  rtl::Wire<std::uint64_t> inter_addr;
  rtl::Wire<bool> inter_we;
  rtl::Wire<std::uint64_t> inter_wdata;

  void evaluate() override;
  void clock_edge() override;

  /// rand_word and basis_rdata are read only in clock_edge() and need no
  /// declaration; the FIFO's `empty` gates the pop request and does.
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&state_,       &enable,    &pairs_done_, &parent_a_idx_,
            &parent_b_idx_, &parent_a_, &parent_b_,   &do_cross_,
            &cut_,          &out_index_, &fifo_->empty};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&busy, &done, &fifo_->pop, &basis_addr,
            &inter_addr, &inter_we, &inter_wdata};
  }

  /// Busy as a pure function of the state register — lets the control FSM
  /// read engine activity without a combinational busy-wire path back into
  /// its own enable outputs (which would cycle the module graph).
  [[nodiscard]] bool busy_now() const noexcept {
    const auto s = static_cast<State>(state_.read());
    return s != State::kIdle && s != State::kDone;
  }

  /// The state register behind busy_now(), for sensitivity lists.
  [[nodiscard]] const rtl::NetBase* state_net() const noexcept {
    return &state_;
  }

  /// Splice of `hi_from_b ? (a below cut | b at/above cut)`: the
  /// hardware's barrel of 2:1 muxes, one per genome bit.
  [[nodiscard]] std::uint64_t splice(std::uint64_t head, std::uint64_t tail,
                                     unsigned cut) const noexcept;

  /// Two parent registers dominate (2 x 36 FF); the splice muxes are one
  /// LUT4 per genome bit plus the cut decoder.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  enum class State : std::uint8_t {
    kIdle = 0,   ///< waiting for a pair (pops when available)
    kReadA,      ///< basis RAM captures parent A
    kReadB,      ///< basis RAM captures parent B; latch parent A
    kDecide,     ///< latch parent B, crossover decision and cut point
    kWriteA,     ///< write child 0 to the intermediate RAM
    kWriteB,     ///< write child 1
    kDone,
  };

  GapParams params_;
  const rtl::Wire<std::uint16_t>* rand_word_;
  const rtl::Wire<std::uint64_t>* basis_rdata_;
  PairFifo* fifo_;

  rtl::Reg<std::uint8_t> state_;
  rtl::Reg<std::uint8_t> parent_a_idx_;
  rtl::Reg<std::uint8_t> parent_b_idx_;
  rtl::Reg<std::uint64_t> parent_a_;
  rtl::Reg<std::uint64_t> parent_b_;
  rtl::Reg<bool> do_cross_;
  rtl::Reg<std::uint8_t> cut_;
  rtl::Reg<std::uint8_t> out_index_;  ///< next intermediate slot to fill
  rtl::Reg<std::uint8_t> pairs_done_;
};

}  // namespace leo::gap
