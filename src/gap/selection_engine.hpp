// selection_engine.hpp — the GAP's tournament-selection operator.
//
// Paper §3.2: "The implementation choice made for the selection module was
// that of tournament selection because it does not use real numbers and
// divisions which are difficult to implement in logic systems. This
// operator randomly draws two individuals from the population. A
// threshold defines the probability that the better individual will be
// selected."
//
// Microarchitecture: fitness values live in a single-port RAM (written by
// the evaluation phase), so one tournament costs four cycles — latch the
// two candidate indices from the CA word, read fitness A, read fitness B,
// decide with a fresh random byte. Two tournaments pick the pair of
// parents, which is pushed into the pair FIFO toward the crossover
// engine (stalling while the FIFO is full).
#pragma once

#include <cstdint>

#include "gap/gap_params.hpp"
#include "gap/pair_fifo.hpp"
#include "rtl/module.hpp"

namespace leo::gap {

class SelectionEngine final : public rtl::Module {
 public:
  /// Binds to the shared CA random word, the fitness RAM's registered
  /// read output, and the pair FIFO it feeds.
  SelectionEngine(rtl::Module* parent, std::string name,
                  const GapParams& params,
                  const rtl::Wire<std::uint16_t>& rand_word,
                  const rtl::Reg<std::uint64_t>& fitness_rdata,
                  PairFifo& fifo);

  // --- control (driven by the GAP control FSM) ---
  rtl::Wire<bool> start;   ///< pulse: produce population_size/2 pairs
  rtl::Wire<bool> enable;  ///< gate for sequential (non-pipelined) mode

  // --- status ---
  rtl::Wire<bool> busy;
  rtl::Wire<bool> done;    ///< level-high once all pairs are pushed

  /// Address request for the fitness RAM (muxed onto the RAM by GapTop).
  rtl::Wire<std::uint64_t> fitness_addr;

  void evaluate() override;
  void clock_edge() override;

  /// rand_word and fitness_rdata are read only in clock_edge(), which runs
  /// every cycle, so they are deliberately not declared here.
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&state_, &enable, &cand_a_, &cand_b_, &winner_a_};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&busy, &done, &fitness_addr, &fifo_->push, &fifo_->in_pair};
  }

  /// FSM + two index registers + fitness latch + pair counter; the
  /// comparator is ~4 LUT4s.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  enum class State : std::uint8_t {
    kIdle = 0,
    kCandidates,  ///< latch both candidate indices from the random word
    kReadA,       ///< fitness RAM captures candidate A
    kReadB,       ///< fitness RAM captures candidate B; latch fitness A
    kDecide,      ///< compare and apply the selection threshold
    kPush,        ///< push the completed pair (stalls on FIFO full)
    kDone,
  };

  [[nodiscard]] std::uint32_t cand_field(unsigned slot) const noexcept;

  GapParams params_;
  const rtl::Wire<std::uint16_t>* rand_word_;
  const rtl::Reg<std::uint64_t>* fitness_rdata_;
  PairFifo* fifo_;

  rtl::Reg<std::uint8_t> state_;
  rtl::Reg<std::uint8_t> cand_a_;
  rtl::Reg<std::uint8_t> cand_b_;
  rtl::Reg<std::uint8_t> fit_a_;
  rtl::Reg<std::uint8_t> winner_a_;   ///< first parent of the current pair
  rtl::Reg<bool> second_tournament_;  ///< which parent we are selecting
  rtl::Reg<std::uint8_t> pairs_done_;
};

}  // namespace leo::gap
