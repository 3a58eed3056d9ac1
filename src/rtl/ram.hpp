// ram.hpp — synchronous single-port RAM, the building block of the GAP's
// two population memories (paper Fig. 5: "Basis Population" and
// "Intermediate Population").
//
// Port behaviour matches XC4000 synchronous select-RAM: the address, write
// enable and write data are sampled on the clock edge; read data appears
// on the registered output `rdata` in the next cycle (read-first on a
// simultaneous read/write to the same address).
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/module.hpp"

namespace leo::rtl {

class SyncRam final : public Module {
 public:
  SyncRam(Module* parent, std::string name, std::size_t depth, unsigned width);

  // --- port wires (driven by the client, read by the RAM) ---
  Wire<std::uint64_t> addr;
  Wire<bool> we;
  Wire<std::uint64_t> wdata;
  // --- registered read output ---
  Reg<std::uint64_t> rdata;

  void clock_edge() override;
  void reset() override;

  /// Pure sequential: the ports are sampled in clock_edge(), no
  /// combinational path exists through the RAM.
  [[nodiscard]] Nets inputs() const override { return {}; }

  /// evaluate() is absent; the port wires here are written by the client.
  [[nodiscard]] Nets drives() const override { return {}; }

  /// Debug/testbench backdoor (does not consume simulated cycles; the real
  /// hardware equivalent is the configuration readback path).
  [[nodiscard]] std::uint64_t peek(std::size_t index) const;
  void poke(std::size_t index, std::uint64_t value);

  [[nodiscard]] std::size_t depth() const noexcept { return mem_.size(); }

  /// depth*width bits of select-RAM plus the registered output.
  [[nodiscard]] ResourceTally own_resources() const override;

 private:
  static unsigned addr_bits(std::size_t depth);

  unsigned width_;
  std::uint64_t word_mask_;
  std::vector<std::uint64_t> mem_;
};

}  // namespace leo::rtl
