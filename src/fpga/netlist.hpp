// netlist.hpp — a gate-level netlist with simulation, the ground truth
// under the resource model.
//
// The paper's fitness module is "only logic computations" (§3.2); we make
// that claim concrete by elaborating the fitness function into actual
// AND/OR/XOR/NOT gates (fitness_netlist.cpp), simulating the gates, and
// technology-mapping them onto XC4000 CLBs (techmap.cpp). Tests assert
// gate-level == software arithmetic on thousands of genomes.
//
// Nodes are append-only and may only reference earlier nodes, so creation
// order is a topological order and evaluation is a single sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace leo::fpga {

using NodeId = std::uint32_t;

enum class GateOp : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kNot,
  kAnd,
  kOr,
  kXor,
};

struct Gate {
  GateOp op = GateOp::kConst0;
  std::vector<NodeId> inputs;
  std::string name;  ///< inputs/outputs carry names; internal gates may not
};

class Netlist {
 public:
  NodeId add_input(std::string name);
  NodeId constant(bool value);

  /// NOT takes one input; AND/OR/XOR take two or more (balanced trees of
  /// 2-input gates are built internally, so gate counts reflect 2-input
  /// primitives).
  NodeId add_not(NodeId a);
  NodeId add_gate(GateOp op, const std::vector<NodeId>& inputs);

  void mark_output(NodeId node, std::string name);

  /// Logic gates only (excludes inputs and constants).
  [[nodiscard]] std::size_t gate_count() const noexcept;
  [[nodiscard]] const std::vector<Gate>& gates() const noexcept {
    return gates_;
  }
  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<std::pair<NodeId, std::string>>& outputs()
      const noexcept {
    return outputs_;
  }

  /// Evaluates the whole netlist for the given input values (by input
  /// declaration order); returns one bool per node.
  [[nodiscard]] std::vector<bool> evaluate(
      const std::vector<bool>& input_values) const;

  /// Convenience: evaluates and packs the named outputs (declaration
  /// order, first output = bit 0) into a word.
  [[nodiscard]] std::uint64_t evaluate_outputs(
      const std::vector<bool>& input_values) const;

 private:
  NodeId add_node(Gate gate);
  void check_node(NodeId id) const;

  std::vector<Gate> gates_;
  std::vector<NodeId> inputs_;
  std::vector<std::pair<NodeId, std::string>> outputs_;
  NodeId const0_ = UINT32_MAX;
  NodeId const1_ = UINT32_MAX;
};

}  // namespace leo::fpga
