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
//                  elaboration; see Drives.
//
// A design in which any module leaves inputs() or drives() undeclared is
// simulated by the dense sweep instead (see simulator.hpp).
//
// Modules also self-report FPGA resource usage (see ResourceTally): the
// counts are per-module formulas documented at each override, and feed the
// XC4000 technology-mapping model in src/fpga/.
#pragma once

#include <cstdint>
#include <initializer_list>
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

/// Result of Module::inputs(): the sensitivity list of evaluate().
///
///   * default-constructed (`declared == false`) — the module has not
///     been ported; the whole design runs on the dense sweep (correct,
///     never fast);
///   * `Sensitivity{&a, &b, ...}` — evaluate() reads exactly these nets
///     (wires or registers, own or foreign) and nothing else;
///   * `Sensitivity::none()` — evaluate() reads no nets at all (pure
///     sequential modules, constant drivers); it runs only at reset.
///
/// The contract is on *evaluate()* only: clock_edge() runs every cycle,
/// so nets read exclusively there never need declaring. An undeclared
/// net that evaluate() does read makes static-kernel results diverge
/// from the dense sweep — the mode-equivalence tests exist to catch
/// exactly that.
struct Sensitivity {
  Sensitivity() = default;
  Sensitivity(std::initializer_list<const NetBase*> ns)
      : declared(true), nets(ns) {}

  /// Declared-empty: evaluate() is net-independent (or absent).
  [[nodiscard]] static Sensitivity none() {
    Sensitivity s;
    s.declared = true;
    return s;
  }

  bool declared = false;
  std::vector<const NetBase*> nets;
};

/// Result of Module::drives(): the set of wires evaluate() writes — the
/// dual of the Sensitivity contract. Ownership is *not* the driver
/// relation in this codebase (control modules legally write wires owned
/// by their children, e.g. RAM port requests), so the static kernel
/// needs the drive sets declared explicitly:
///
///   * default-constructed (`declared == false`) — not ported; the
///     simulator cannot rank the design and falls back to the dense
///     sweep;
///   * `Drives{&a, &b, ...}` — evaluate() writes exactly these wires
///     (a superset is safe, a missing wire is a correctness bug the
///     mode-equivalence tests catch);
///   * `Drives::none()` — evaluate() writes no wires (pure sequential
///     modules, observers).
///
/// Registers never appear here: they change only at commit, so they never
/// form combinational edges.
struct Drives {
  Drives() = default;
  Drives(std::initializer_list<const NetBase*> ns)
      : declared(true), nets(ns) {}

  /// Declared-empty: evaluate() writes nothing (or is absent).
  [[nodiscard]] static Drives none() {
    Drives d;
    d.declared = true;
    return d;
  }

  bool declared = false;
  std::vector<const NetBase*> nets;
};

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

  /// Sensitivity list of evaluate() (see Sensitivity). Called once, at
  /// simulator elaboration; the returned nets must outlive the module
  /// (they are members of this design's module tree).
  [[nodiscard]] virtual Sensitivity inputs() const { return {}; }

  /// Output list of evaluate() (see Drives). Called once, at elaboration.
  [[nodiscard]] virtual Drives drives() const { return {}; }

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
