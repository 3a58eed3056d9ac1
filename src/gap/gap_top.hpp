// gap_top.hpp — the complete Genetic Algorithm Processor (paper Fig. 5).
//
//   Initiator -> | Basis Population | -> Selection \  (pipeline)
//                |  Intermediate    | <- Crossover /
//                                      -> Mutation -> (bank swap)
//   Random Generator (free-running CA)    Fitness -> Best Individual
//
// One FPGA generation:
//   EVAL      read each individual from the basis RAM, score it with the
//             combinational fitness unit, store the score in the fitness
//             RAM, track the best-ever individual (2 cycles/individual);
//   SEL+XOVER the two engines exchange parent pairs through the FIFO —
//             concurrently when `pipelined` (the paper's ~2x), strictly
//             alternating otherwise;
//   MUTATE    15 read-modify-write single-bit flips on the intermediate
//             RAM (3 cycles each);
//   SWAP      the intermediate RAM becomes the next basis (bank bit).
//
// Evolution stops when the best-ever fitness reaches `target_fitness`;
// the 36-bit best-individual register is the "Individual" bus that
// configures the walking controller (paper Fig. 3).
#pragma once

#include <cstdint>

#include "gap/ca_rng_module.hpp"
#include "gap/crossover_engine.hpp"
#include "gap/fitness_unit.hpp"
#include "gap/gap_params.hpp"
#include "gap/pair_fifo.hpp"
#include "gap/selection_engine.hpp"
#include "rtl/ram.hpp"

namespace leo::gap {

class GapTop final : public rtl::Module {
 public:
  /// `fitness` configures the combinational fitness block (paper Fig. 3
  /// "Fitness Module"): make_gait_fitness(spec) for an ablated rule spec.
  /// Throws std::invalid_argument for an odd population or one below 4,
  /// more than 255 mutations per generation, or a target fitness above
  /// 255 (the 8-bit score datapath could never reach it).
  GapTop(rtl::Module* parent, std::string name, GapParams params,
         std::uint64_t rng_seed,
         CombinationalFitness fitness = make_gait_fitness());

  // --- status wires ---
  rtl::Wire<bool> busy;
  rtl::Wire<bool> done;
  /// The Best Individual register (Fig. 5) on a bus for the controller.
  rtl::Wire<std::uint64_t> best_genome_bus;
  rtl::Wire<std::uint8_t> best_fitness_bus;

  void evaluate() override;
  void clock_edge() override;

  /// The control half of the GAP's combinational logic: status buses, the
  /// basis-bank read mux, engine start/enable gating and the fitness
  /// unit's genome feed. The RAM port muxing lives in the PortMux child
  /// (see below), so nothing here reads an engine request wire — the
  /// module graph stays acyclic and the static schedule can rank it.
  /// Both banks' rdata are declared (the bank bit muxes between them);
  /// rng_.word and basis_rdata_mux_ are read only in clock_edge(), and
  /// sequential-mode gating reads the crossover *state register* (via
  /// busy_now()) rather than its busy wire for the same acyclicity reason
  /// — bit-identical, busy is a pure function of that register.
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&phase_,
            &bank_,
            &idx_,
            &sub_,
            &start_pulse_,
            &best_genome_,
            &best_fitness_,
            &ram_a_.rdata,
            &ram_b_.rdata,
            crossover_.state_net(),
            &fifo_.empty};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&busy,
            &done,
            &best_genome_bus,
            &best_fitness_bus,
            &basis_rdata_mux_,
            &selection_.start,
            &selection_.enable,
            &crossover_.start,
            &crossover_.enable,
            &fitness_unit_.genome};
  }

  // --- observability for experiments and tests ---
  enum class Phase : std::uint8_t {
    kInit = 0,
    kEval,
    kSelXover,
    kMutate,
    kSwap,
    kDone,
  };
  [[nodiscard]] Phase phase() const noexcept {
    return static_cast<Phase>(phase_.read());
  }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.read();
  }
  [[nodiscard]] std::uint64_t best_genome() const noexcept {
    return best_genome_.read();
  }
  [[nodiscard]] unsigned best_fitness() const noexcept {
    return best_fitness_.read();
  }
  [[nodiscard]] std::uint64_t cycles_in_selxover() const noexcept {
    return selxover_cycles_.read();
  }
  [[nodiscard]] std::uint64_t cycles_in_eval() const noexcept {
    return eval_cycles_.read();
  }
  [[nodiscard]] std::uint64_t cycles_in_mutate() const noexcept {
    return mutate_cycles_.read();
  }
  [[nodiscard]] const GapParams& params() const noexcept { return params_; }

  /// Testbench backdoor into the populations (configuration readback).
  [[nodiscard]] std::uint64_t peek_basis(std::size_t index) const;
  [[nodiscard]] std::uint64_t peek_fitness_ram(std::size_t index) const;

  /// Control/mux overhead on top of the children's own tallies.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  /// The RAM port-mux half of the GAP's combinational logic: the one
  /// driver of all nine RAM port wires, fed by the control registers and
  /// the engines' request wires. Split out of GapTop::evaluate() so the
  /// combinational module graph is acyclic — GapTop's control outputs
  /// (engine enables, fitness genome) feed the engines and the fitness
  /// unit, whose request/score wires feed back into the RAM ports; with
  /// one module doing both, that loop was a self-edge no static
  /// schedule could rank. Owns no nets, so it costs nothing in the
  /// resource tally and adds only an empty scope to VCD dumps.
  class PortMux final : public rtl::Module {
   public:
    explicit PortMux(GapTop* top);
    void evaluate() override;
    [[nodiscard]] rtl::Nets inputs() const override;
    [[nodiscard]] rtl::Nets drives() const override;

   private:
    GapTop* top_;
  };

  [[nodiscard]] rtl::SyncRam& basis() noexcept {
    return bank_.read() ? ram_b_ : ram_a_;
  }
  [[nodiscard]] rtl::SyncRam& intermediate() noexcept {
    return bank_.read() ? ram_a_ : ram_b_;
  }
  [[nodiscard]] const rtl::SyncRam& basis() const noexcept {
    return bank_.read() ? ram_b_ : ram_a_;
  }
  void drive_ram_defaults();

  GapParams params_;

  // Submodules (construction order matters: engines bind to nets below).
  CaRngModule rng_;
  rtl::SyncRam ram_a_;
  rtl::SyncRam ram_b_;
  rtl::SyncRam fitness_ram_;
  FitnessUnit fitness_unit_;
  PairFifo fifo_;
  /// Active-basis read data, muxed from the current bank for the engines.
  rtl::Wire<std::uint64_t> basis_rdata_mux_;
  SelectionEngine selection_;
  CrossoverEngine crossover_;

  // Control state.
  rtl::Reg<std::uint8_t> phase_;
  rtl::Reg<bool> bank_;
  rtl::Reg<std::uint8_t> idx_;
  rtl::Reg<std::uint8_t> sub_;
  rtl::Reg<std::uint64_t> init_acc_;
  rtl::Reg<bool> start_pulse_;
  rtl::Reg<std::uint8_t> mut_count_;
  rtl::Reg<std::uint8_t> mut_addr_;
  rtl::Reg<std::uint8_t> mut_bit_;
  rtl::Reg<std::uint64_t> generation_;
  rtl::Reg<std::uint64_t> best_genome_;
  rtl::Reg<std::uint8_t> best_fitness_;
  rtl::Reg<std::uint64_t> eval_cycles_;
  rtl::Reg<std::uint64_t> selxover_cycles_;
  rtl::Reg<std::uint64_t> mutate_cycles_;

  // Constructed last: it reads the registers and engine wires above.
  PortMux port_mux_;
};

}  // namespace leo::gap
