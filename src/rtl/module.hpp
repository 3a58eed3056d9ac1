// module.hpp — hierarchy node for hardware designs.
//
// A Module owns Wires and Regs (registered on construction) and child
// modules, mirroring a VHDL entity hierarchy. The Simulator walks the tree
// rooted at a top module. Modules implement:
//
//   evaluate()   — combinational logic: read wires/regs, write wires.
//                  Must be a pure function of the nets it reads, and must
//                  write every wire it drives on every call.
//   clock_edge() — sequential logic: read wires/regs, call Reg::set_next.
//                  Called on every module exactly once per cycle.
//   reset()      — module-specific state reset beyond registers
//                  (registers reset automatically).
//   inputs()     — sensitivity list: the nets evaluate() reads. The
//                  static kernel re-runs evaluate() only when one of
//                  their values differs from what the module last saw.
//   drives()     — output list: the wires evaluate() writes (own or
//                  foreign). Together with inputs() it lets the simulator
//                  rank the combinational dependency graph at
//                  elaboration.
//
// Both lists are pure virtual: every module says what its evaluate()
// reads and writes, and an empty list means "none" (see Nets).
//
// Modules also self-report FPGA resource usage (see ResourceTally): the
// counts are per-module formulas documented at each override, and feed the
// XC4000 technology-mapping model in src/fpga/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/net.hpp"

namespace leo::rtl {

/// Primitive resource counts a module contributes to the FPGA estimate.
/// `lut4` counts 4-input function generators (an n-input function costs
/// ceil((n-1)/3) LUT4s when chained), `ff` counts flip-flops, `ram_bits`
/// counts bits implemented in CLB select-RAM.
struct ResourceTally {
  std::uint64_t lut4 = 0;
  std::uint64_t ff = 0;
  std::uint64_t ram_bits = 0;

  ResourceTally& operator+=(const ResourceTally& o) noexcept {
    lut4 += o.lut4;
    ff += o.ff;
    ram_bits += o.ram_bits;
    return *this;
  }
};

/// A module's inputs() or drives() list. Empty means none: evaluate()
/// reads no nets (pure sequential modules, constant drivers — it then
/// runs only at reset) or writes no wires (pure sequential modules,
/// observers).
///
/// The contract is on *evaluate()* only: clock_edge() runs every cycle,
/// so nets read exclusively there never need listing. inputs() lists
/// exactly the nets (wires or registers, own or foreign) evaluate()
/// reads; an unlisted net it does read makes static-kernel results
/// diverge from the dense sweep, which the mode-equivalence tests catch.
/// drives() lists the wires evaluate() writes. Ownership is *not* the
/// driver relation (control modules legally write wires owned by their
/// children, e.g. RAM port requests), so each wire has exactly one
/// module listing it, and registers never appear here: they change only
/// at commit, so they never form combinational edges. The simulator
/// rejects a design that breaks either rule.
using Nets = std::vector<const NetBase*>;

class Module {
 public:
  /// Child constructor: attaches to `parent`. Pass nullptr for a top.
  Module(Module* parent, std::string name);
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::string full_name() const;
  [[nodiscard]] Module* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::vector<Module*>& children() const noexcept {
    return children_;
  }
  [[nodiscard]] const std::vector<NetBase*>& nets() const noexcept {
    return nets_;
  }
  [[nodiscard]] const std::vector<RegBase*>& regs() const noexcept {
    return regs_;
  }

  virtual void evaluate() {}
  virtual void clock_edge() {}
  virtual void reset() {}

  /// Nets evaluate() reads (see Nets). Called once, at simulator
  /// elaboration; the returned nets must outlive the module (they are
  /// members of this design's module tree).
  [[nodiscard]] virtual Nets inputs() const = 0;

  /// Wires evaluate() writes (see Nets). Called once, at elaboration.
  [[nodiscard]] virtual Nets drives() const = 0;

  /// Resources used by this module alone (excluding children). The default
  /// counts one FF per declared register bit; combinational overrides add
  /// their LUT estimates.
  [[nodiscard]] virtual ResourceTally own_resources() const;

  /// Recursive sum over the subtree.
  [[nodiscard]] ResourceTally total_resources() const;

  /// Pretty-prints the module hierarchy with per-node resources
  /// (reproduces the block structure of paper Figs. 3-5).
  [[nodiscard]] std::string hierarchy_report() const;

 private:
  friend class NetBase;
  friend class RegBase;
  // Called from the NetBase / RegBase constructors respectively. Two
  // hooks because the dynamic type of a net is not established while its
  // NetBase sub-object is being constructed (a dynamic_cast there would
  // silently miss every register).
  void register_net(NetBase* net);
  void register_reg(RegBase* reg);

  Module* parent_;
  std::string name_;
  std::vector<Module*> children_;
  std::vector<NetBase*> nets_;   // all nets (wires + regs)
  std::vector<RegBase*> regs_;  // registers only
};

}  // namespace leo::rtl
