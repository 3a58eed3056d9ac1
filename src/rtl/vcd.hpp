// vcd.hpp — Value Change Dump writer (IEEE 1364 §18) for waveform
// inspection of Discipulus designs in GTKWave & friends.
//
// The time unit is 1 us: one simulator cycle at the paper's 1 MHz clock.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "rtl/module.hpp"

namespace leo::rtl {

class VcdWriter {
 public:
  /// Opens `path` and writes the header plus the scope tree of `top`.
  /// All nets in the hierarchy are traced.
  VcdWriter(const std::string& path, const Module& top);

  /// Records values at time `cycle`. Only changed nets are dumped (the
  /// first sample dumps everything). Called by Simulator::step().
  void sample(std::uint64_t cycle);

  [[nodiscard]] std::size_t traced_nets() const noexcept {
    return entries_.size();
  }

 private:
  struct Entry {
    const NetBase* net;
    std::string id;             // VCD short identifier
    std::uint64_t last_value;
    bool valid;                 // last_value meaningful?
  };

  void declare_scope(const Module& m);
  static std::string make_id(std::size_t index);
  void emit(const Entry& e, std::uint64_t value);

  std::ofstream out_;
  std::vector<Entry> entries_;
};

}  // namespace leo::rtl
