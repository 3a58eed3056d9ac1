// fitness_unit.hpp — the combinational fitness module (paper Fig. 3).
//
// "we had to define a fitness function only in terms of logic
//  computations" (§3.2): the three rules reduce to AND/XOR trees over the
//  36 genome bits followed by small population counts — pure combinational
//  logic with no state. The unit therefore scores one genome per cycle,
//  which is also what makes the exhaustive-search pipeline of the paper's
//  19-hour comparison possible (one genome per clock).
//
// The logic function is fitness::score() (shared with the software GA),
// itself written as that mask/AND/XOR logic on the 36-bit word; the FPGA
// netlist elaboration in src/fpga/ builds the same function out of gates
// and the tests check all three agree.
#pragma once

#include <cstdint>
#include <functional>

#include "fitness/rules.hpp"
#include "rtl/module.hpp"

namespace leo::gap {

/// A combinational fitness function pluggable into the GAP — the paper's
/// future work ("use the same kind of evolvable system in order to solve
/// problems which deal with bigger genomes and where the final solution
/// is not known", §4) only requires swapping this block.
struct CombinationalFitness {
  /// Pure function genome -> score (must fit in 8 bits).
  std::function<unsigned(std::uint64_t)> fn;
  /// LUT4 demand of the combinational implementation, for E3 reports.
  std::uint64_t lut4 = 0;
  /// Genome width the function expects.
  unsigned genome_bits = 36;
};

/// The walking-rules fitness of Discipulus Simplex: rule logic elaborated
/// to gates (fpga::build_fitness_netlist) and technology-mapped, so the
/// LUT tally is the cover of the *actual* function. The mapping is done
/// once per distinct spec and reused by later calls (thread-safe).
[[nodiscard]] CombinationalFitness make_gait_fitness(
    const fitness::FitnessSpec& spec = fitness::kDefaultSpec);

class FitnessUnit final : public rtl::Module {
 public:
  FitnessUnit(rtl::Module* parent, std::string name,
              CombinationalFitness fitness = make_gait_fitness());

  /// The genome under evaluation (driven by the GAP's control logic).
  rtl::Wire<std::uint64_t> genome;
  /// Fitness score (0..255; 0..60 under the default gait spec).
  rtl::Wire<std::uint8_t> score;

  void evaluate() override;

  [[nodiscard]] rtl::Sensitivity inputs() const override {
    return {&genome};
  }

  [[nodiscard]] rtl::Drives drives() const override { return {&score}; }

  /// Pure logic — there is no clock_edge at all.
  [[nodiscard]] rtl::EdgeSpec edge_sensitivity() const override {
    return rtl::EdgeSpec::never();
  }

  [[nodiscard]] const CombinationalFitness& fitness() const noexcept {
    return fitness_;
  }

  /// No FFs — the module is pure logic, per the paper.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  CombinationalFitness fitness_;
};

}  // namespace leo::gap
