// net.hpp — wires and registers for the synchronous logic kernel.
//
// The kernel models the paper's FPGA design style: a single clock domain,
// combinational logic between registers, and two-phase clock-edge
// semantics (all registers sample their inputs before any register
// updates, exactly like real flip-flops on a shared clock).
//
//   Wire<T>  — a combinational net. Written by exactly one driver module's
//              evaluate(); readable by anyone.
//   Reg<T>   — a flip-flop (or register bank). Modules call set_next()
//              during clock_edge(); the simulator then commits the
//              registers scheduled this cycle simultaneously.
//
// Every net keeps its current value as one plain masked u64 word in
// NetBase, whatever T is: a write is a masked store, a read a narrowing
// load, and the simulator detects wire changes by comparing these words
// (it holds pointers to them), so nothing here is virtual. set_next() is
// the one write that notifies anyone: the first call in a cycle appends
// its register to the pending list of the step in progress on this
// thread, and the commit walks only that list. An unscheduled register
// holds its value, like a flip-flop whose enable is low.
//
// T is an unsigned integral type; `width` (in bits) is declared explicitly
// for value masking and VCD dumping.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

namespace leo::rtl {

class Module;

/// Non-template base so the simulator and the VCD writer can track nets
/// without knowing their value type.
class NetBase {
 public:
  NetBase(Module* owner, std::string name, unsigned width);

  NetBase(const NetBase&) = delete;
  NetBase& operator=(const NetBase&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::string full_name() const;
  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] Module* owner() const noexcept { return owner_; }

  /// Current value widened to u64 (masked to `width`).
  [[nodiscard]] std::uint64_t value_u64() const noexcept { return value_; }

 protected:
  ~NetBase() = default;

  void store(std::uint64_t v) noexcept { value_ = v & mask_; }
  [[nodiscard]] std::uint64_t mask() const noexcept { return mask_; }

 private:
  friend class Simulator;  // compares value words to schedule evaluate()

  std::uint64_t value_ = 0;
  std::uint64_t mask_;
  Module* owner_;
  std::string name_;
  unsigned width_;
};

/// A combinational net. Values are masked to the declared width on write.
template <typename T>
class Wire final : public NetBase {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, bool>,
                "Wire value type must be bool or unsigned integral");

 public:
  Wire(Module* owner, std::string name, unsigned width)
      : NetBase(owner, std::move(name), width) {}

  [[nodiscard]] T read() const noexcept { return static_cast<T>(value_u64()); }
  void write(T v) noexcept { store(static_cast<std::uint64_t>(v)); }
};

/// Register base: the simulator commits the registers scheduled in a
/// cycle after the clock edge, so their updates appear simultaneous.
class RegBase : public NetBase {
 public:
  RegBase(Module* owner, std::string name, unsigned width,
          std::uint64_t reset_value);

  /// Returns the register to its reset value.
  void reset() noexcept { store(reset_); }

 protected:
  ~RegBase() = default;

  /// Records the next value and, the first time in a cycle, the register
  /// in the pending list of the step in progress on this thread. Outside
  /// a step there is no list and the value is never committed.
  void schedule(std::uint64_t v) {
    next_ = v & mask();
    if (!pending_ && edge_tail_ != nullptr) {
      if (top_ != edge_top_) foreign();
      pending_ = true;
      *edge_tail_++ = this;
    }
  }

 private:
  friend class Simulator;  // numbers registers, opens the edge phase, commits

  /// Throws: the stepping simulator did not number the register.
  /// Checked before the register joins the list, so the list, sized to
  /// the simulator's registers, holds each of them at most once.
  [[noreturn]] static void foreign();

  /// The free end of the pending list of the edge phase open on this
  /// thread (null outside one) and the top of the simulator that opened
  /// it. The simulator points them at its own for the span of its
  /// clock_edge() calls and restores the enclosing values afterwards.
  static inline thread_local RegBase** edge_tail_ = nullptr;
  static inline thread_local const Module* edge_top_ = nullptr;

  std::uint64_t next_;
  std::uint64_t reset_;
  /// Written at elaboration: the top the simulator is bound to, and the
  /// register's place in that simulator's register list, which keys its
  /// reader masks. Simulators bound to the same top number it alike.
  const Module* top_ = nullptr;
  std::uint32_t index_ = 0;
  bool pending_ = false;  // in the open edge phase's list
};

template <typename T>
class Reg final : public RegBase {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, bool>,
                "Reg value type must be bool or unsigned integral");

 public:
  Reg(Module* owner, std::string name, unsigned width, T reset_value = T{})
      : RegBase(owner, std::move(name), width,
                static_cast<std::uint64_t>(reset_value)) {}

  [[nodiscard]] T read() const noexcept { return static_cast<T>(value_u64()); }

  /// Schedules the value the register takes at the end of this cycle.
  /// Legal only inside clock_edge(); the old value stays readable until
  /// the simulator commits. The last call in a cycle wins.
  void set_next(T v) { schedule(static_cast<std::uint64_t>(v)); }
};

}  // namespace leo::rtl
