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

#include "fitness/rules.hpp"
#include "rtl/module.hpp"

namespace leo::gap {

/// The Fitness Module's configuration (paper Fig. 3): the walking-rules
/// spec it computes and the LUT4 demand of its combinational cover, for
/// E3 reports.
struct CombinationalFitness {
  fitness::FitnessSpec spec{};
  std::uint64_t lut4 = 0;
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
              CombinationalFitness fitness);

  /// The genome under evaluation (driven by the GAP's control logic).
  rtl::Wire<std::uint64_t> genome;
  /// Fitness score (0..255; 0..60 under the default gait spec).
  rtl::Wire<std::uint8_t> score;

  void evaluate() override;

  [[nodiscard]] rtl::Nets inputs() const override {
    return {&genome};
  }

  [[nodiscard]] rtl::Nets drives() const override { return {&score}; }

  /// No FFs — the module is pure logic, per the paper.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  CombinationalFitness fitness_;
};

}  // namespace leo::gap
