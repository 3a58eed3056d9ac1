// simulator.hpp — single-clock-domain cycle simulator.
//
// Cycle semantics (matching a synchronous FPGA design at the paper's
// 1 MHz clock):
//
//   1. edge:   clock_edge() on every module — registers sample inputs.
//              Each Reg::set_next() records its register, once, in the
//              simulator's pending list; synchronous RAMs apply their
//              sampled port operations here.
//   2. commit: every pending register takes its next value
//              simultaneously; the rest hold theirs. A clock_edge() that
//              throws commits nothing and leaves nothing pending.
//   3. settle: combinational logic is evaluated until no wire changes.
//   4. trace:  the attached VCD sink (if any) records changed nets.
//
// Two settle kernels implement step 3 (SimMode, chosen at construction):
//
//   kLevel (default) — one static rank-ordered schedule, like the fixed
//     combinational order of a synthesized netlist. At elaboration the
//     simulator builds the module-level dependency graph (edge u -> v iff
//     a wire in u's drives() is in v's inputs()), orders it topologically
//     with Kahn's algorithm, and splits each module's inputs(): its wire
//     inputs become pointers to the nets' value words plus the values the
//     module saw at its last evaluate(), and each register input sets the
//     module's bit in that register's reader mask. A commit that changes
//     a register ORs its reader mask into the dirty set (reset sets every
//     bit). A settle is then one pass in that order that calls evaluate()
//     when the module's dirty bit is set or a wire input differs from the
//     value last seen. A register changes only at commit or reset, so the
//     dirty bit is exactly "a register input differs from its value at
//     the previous settle". Every reader comes after its drivers, so each
//     module sees its inputs' final values and runs at most once.
//     kLevel never falls back: a design it cannot rank (a combinational
//     cycle in the module graph) or one whose lists break the contract
//     of module.hpp (a net outside the tree, a wire with two drivers, a
//     register in drives()) throws std::logic_error at construction,
//     naming the modules. A cyclic design that still settles runs on
//     kDense, whose bounded passes keep the oscillation diagnostic.
//
//   kDense — the reference sweep: evaluate *all* modules and rescan *all*
//     nets each pass until a pass changes nothing. The ground truth the
//     static schedule is proven bit-identical against (see
//     tests/test_sim_equivalence.cpp).
//
// Both kernels reach the same fixpoint (evaluate() is an idempotent pure
// function of the declared inputs and every module fully drives its
// outputs each call), so settled net values, VCD dumps, evolved genomes
// and generation counts are identical — only the work per cycle differs.
//
// A simulator learns of register changes only from its own commits and
// resets: several simulators may bind one tree, but one steps it.
// Elaboration numbers the tree's registers (RegBase::index_, the same
// numbers for every simulator bound to that tree). A clock_edge() that
// schedules a register the stepping simulator did not number (one of
// another tree, or one a later simulator bound to a subtree renumbered)
// throws std::logic_error, and the step commits nothing.
//
// One step() is one clock cycle; `cycles()` therefore converts directly
// to wall-clock time at the modelled frequency (time = cycles / f_clk),
// which is how the paper's "10 minutes vs 19 hours" comparison is
// reproduced.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rtl/module.hpp"

namespace leo::rtl {

class VcdWriter;

/// Settle-kernel selection (see file header). Bit-identical results; the
/// static schedule is the fast one.
enum class SimMode : std::uint8_t {
  kDense,  ///< evaluate-everything reference sweep
  kLevel,  ///< static rank-ordered schedule (default)
};

class Simulator final {
 public:
  /// Binds to a fully-constructed design. The module tree must not change
  /// afterwards (hardware does not grow new blocks at runtime either).
  /// A kLevel request throws std::logic_error if the module graph has a
  /// combinational cycle, or if a module's inputs() or drives() names a
  /// net outside the tree, a register in drives(), or a wire another
  /// module also drives.
  explicit Simulator(Module& top, SimMode mode = SimMode::kLevel);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Resets all registers and module state and re-settles combinational
  /// logic. Cycle counter returns to zero.
  void reset();

  /// Advances one clock cycle.
  void step();

  /// Advances n cycles.
  void run(std::uint64_t n);

  /// Runs until `done()` returns true or `max_cycles` elapse; returns true
  /// if the predicate fired. The predicate is checked after each cycle.
  bool run_until(const std::function<bool()>& done, std::uint64_t max_cycles);

  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// The settle kernel chosen at construction.
  [[nodiscard]] SimMode mode() const noexcept { return mode_; }

  /// Seconds of simulated time at the given clock frequency.
  [[nodiscard]] double seconds_at(double hz) const {
    return static_cast<double>(cycles_) / hz;
  }

  /// Attaches a VCD trace sink (not owned). Pass nullptr to detach.
  void attach_vcd(VcdWriter* vcd) noexcept { vcd_ = vcd; }

  [[nodiscard]] Module& top() noexcept { return *top_; }
  /// Every module of the tree, in pre-order.
  [[nodiscard]] const std::vector<Module*>& modules() const noexcept {
    return modules_;
  }

  /// Cumulative evaluate() calls across all settles — the work metric the
  /// static schedule minimizes (dense mode counts every sweep call too).
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Cumulative registers committed: those set_next() scheduled, each
  /// once per cycle — the commit's work, the same in both modes.
  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }

  /// Maximum dense settle passes before declaring a combinational loop.
  static constexpr unsigned kMaxSettlePasses = 64;

 private:
  /// One wire input of the static schedule: the net's value word and the
  /// value the reading module saw at its last evaluate().
  struct Input {
    const std::uint64_t* word;
    std::uint64_t seen;
  };
  /// One module of the static schedule; its wire inputs are
  /// inputs_[begin, end).
  struct Slot {
    Module* module;
    std::uint32_t begin;
    std::uint32_t end;
  };

  void collect(Module& m);
  void plan_static_schedule();
  void commit(std::size_t n);
  void settle_dense();
  void settle_static();
  [[noreturn]] void report_oscillation();

  Module* top_;
  SimMode mode_;
  std::vector<Module*> modules_;   // pre-order
  std::vector<NetBase*> nets_;     // pre-order
  std::vector<RegBase*> regs_;
  std::vector<RegBase*> pending_;        // edge phase: registers scheduled
  std::vector<std::uint64_t> snapshot_;  // dense: end-of-pass net values
  std::vector<Slot> schedule_;           // static: modules in Kahn order
  std::vector<Input> inputs_;
  // Slot sets are `words_` u64 words, bit s for schedule_[s]. readers_
  // holds one set per register, regs_[i] (RegBase::index_ i) in row i;
  // under kDense every row is zero.
  std::size_t words_ = 1;
  std::vector<std::uint64_t> readers_;  // modules reading each register
  std::vector<std::uint64_t> wired_;    // modules with a wire input
  std::vector<std::uint64_t> dirty_;    // modules a commit woke
  std::uint64_t evaluations_ = 0;
  std::uint64_t commits_ = 0;
  VcdWriter* vcd_ = nullptr;
  std::uint64_t cycles_ = 0;
};

}  // namespace leo::rtl
