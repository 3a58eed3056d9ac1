// Tests for the RTL simulation kernel: wires, registers, two-phase clock
// semantics, combinational settle, synchronous RAM and VCD tracing.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gap/gap_top.hpp"

#include "obs/metrics.hpp"
#include "rtl/module.hpp"
#include "rtl/net.hpp"
#include "rtl/ram.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

namespace leo::rtl {
namespace {

/// Two registers that swap values every cycle — only correct under true
/// two-phase (simultaneous) register update.
class Swapper final : public Module {
 public:
  explicit Swapper(Module* parent) : Module(parent, "swapper"),
        a(this, "a", 8, 1), b(this, "b", 8, 2) {}
  Reg<std::uint8_t> a;
  Reg<std::uint8_t> b;
  void clock_edge() override {
    a.set_next(b.read());
    b.set_next(a.read());
  }
  [[nodiscard]] Nets inputs() const override { return {}; }
  [[nodiscard]] Nets drives() const override { return {}; }
};

TEST(RtlKernel, TwoPhaseRegisterSwap) {
  Swapper top(nullptr);
  Simulator sim(top);
  EXPECT_EQ(top.a.read(), 1);
  EXPECT_EQ(top.b.read(), 2);
  sim.step();
  EXPECT_EQ(top.a.read(), 2);
  EXPECT_EQ(top.b.read(), 1);
  sim.step();
  EXPECT_EQ(top.a.read(), 1);
  EXPECT_EQ(top.b.read(), 2);
}

/// counter -> comb double -> comb +1 chain exercises the settle loop.
class CombChain final : public Module {
 public:
  explicit CombChain(Module* parent)
      : Module(parent, "chain"), count(this, "count", 8),
        twice(this, "twice", 8), plus1(this, "plus1", 8) {}
  Reg<std::uint8_t> count;
  Wire<std::uint8_t> twice;
  Wire<std::uint8_t> plus1;
  void evaluate() override {
    twice.write(static_cast<std::uint8_t>(count.read() * 2));
    plus1.write(static_cast<std::uint8_t>(twice.read() + 1));
  }
  void clock_edge() override {
    count.set_next(static_cast<std::uint8_t>(count.read() + 1));
  }
  /// evaluate() reads its own `twice` only after writing it.
  [[nodiscard]] Nets inputs() const override { return {&count}; }
  [[nodiscard]] Nets drives() const override { return {&twice, &plus1}; }
};

TEST(RtlKernel, CombinationalChainSettles) {
  CombChain top(nullptr);
  Simulator sim(top);
  EXPECT_EQ(top.plus1.read(), 1);
  sim.step();
  EXPECT_EQ(top.twice.read(), 2);
  EXPECT_EQ(top.plus1.read(), 3);
  sim.run(9);
  EXPECT_EQ(top.count.read(), 10);
  EXPECT_EQ(top.plus1.read(), 21);
}

/// A genuine combinational loop (inverter feeding itself) must be caught.
class Oscillator final : public Module {
 public:
  explicit Oscillator(Module* parent)
      : Module(parent, "osc"), x(this, "x", 1) {}
  Wire<bool> x;
  void evaluate() override { x.write(!x.read()); }
  [[nodiscard]] Nets inputs() const override { return {&x}; }
  [[nodiscard]] Nets drives() const override { return {&x}; }
};

TEST(RtlKernel, CombinationalLoopDetected) {
  // The static schedule cannot rank a module that reads what it drives:
  // elaboration names the module and points at the dense sweep.
  Oscillator top(nullptr);
  try {
    Simulator sim(top);
    FAIL() << "loop not detected";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
    EXPECT_NE(what.find(" osc;"), std::string::npos) << what;
    EXPECT_NE(what.find("SimMode::kDense"), std::string::npos) << what;
  }
}

TEST(RtlKernel, IntraPassDefaultThenOverrideIsNotALoop) {
  // evaluate() writing a default then overriding it in the same pass must
  // not be mistaken for oscillation.
  class DefaultOverride final : public Module {
   public:
    explicit DefaultOverride(Module* parent)
        : Module(parent, "dov"), w(this, "w", 1) {}
    Wire<bool> w;
    void evaluate() override {
      w.write(false);
      w.write(true);
    }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {&w}; }
  };
  DefaultOverride top(nullptr);
  Simulator sim(top);  // must not throw
  EXPECT_TRUE(top.w.read());
}

TEST(RtlKernel, ResetRestoresInitialState) {
  CombChain top(nullptr);
  Simulator sim(top);
  sim.run(5);
  EXPECT_EQ(sim.cycles(), 5u);
  sim.reset();
  EXPECT_EQ(sim.cycles(), 0u);
  EXPECT_EQ(top.count.read(), 0);
  EXPECT_EQ(top.plus1.read(), 1);
}

TEST(RtlKernel, RegHoldsWithoutSetNext) {
  class Holder final : public Module {
   public:
    explicit Holder(Module* parent)
        : Module(parent, "h"), r(this, "r", 8, 7) {}
    Reg<std::uint8_t> r;
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  Holder top(nullptr);
  Simulator sim(top);
  sim.run(3);
  EXPECT_EQ(top.r.read(), 7);
}

TEST(RtlKernel, RegMasksToWidth) {
  class Narrow final : public Module {
   public:
    explicit Narrow(Module* parent)
        : Module(parent, "n"), r(this, "r", 3) {}
    Reg<std::uint8_t> r;
    void clock_edge() override { r.set_next(0xFF); }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  Narrow top(nullptr);
  Simulator sim(top);
  sim.step();
  EXPECT_EQ(top.r.read(), 7);
}

TEST(RtlKernel, WireWidthValidation) {
  class Bad final : public Module {
   public:
    explicit Bad(Module* parent) : Module(parent, "bad") {
      new Wire<std::uint64_t>(this, "w", 65);  // must throw before leaking
    }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  EXPECT_THROW(Bad(nullptr), std::invalid_argument);
}

TEST(RtlKernel, RunUntilStopsEarly) {
  CombChain top(nullptr);
  Simulator sim(top);
  const bool hit =
      sim.run_until([&] { return top.count.read() == 4; }, 100);
  EXPECT_TRUE(hit);
  EXPECT_EQ(sim.cycles(), 4u);
  const bool miss = sim.run_until([&] { return false; }, 10);
  EXPECT_FALSE(miss);
  EXPECT_EQ(sim.cycles(), 14u);
}

// leo_rtl_cycles_total grows by exactly the cycles each run()/run_until()
// burst advanced, and not at all while obs is disabled.
TEST(RtlKernel, CyclesCounterGrowsByTheCyclesEachBurstAdvanced) {
  CombChain top(nullptr);
  Simulator sim(top);
  const obs::Counter& total = obs::registry().counter("leo_rtl_cycles_total");

  std::uint64_t before = total.value();
  sim.run(5);
  EXPECT_EQ(total.value() - before, 5u);

  before = total.value();
  EXPECT_TRUE(sim.run_until([&] { return top.count.read() == 8; }, 100));
  EXPECT_EQ(sim.cycles(), 8u) << "stops early, 3 cycles into a 100 budget";
  EXPECT_EQ(total.value() - before, 3u);

  before = total.value();
  EXPECT_FALSE(sim.run_until([] { return false; }, 10));
  EXPECT_EQ(sim.cycles(), 18u);
  EXPECT_EQ(total.value() - before, 10u);

  obs::set_enabled(false);
  before = total.value();
  sim.run(7);
  EXPECT_TRUE(sim.run_until([&] { return top.count.read() == 27; }, 100));
  EXPECT_FALSE(sim.run_until([] { return false; }, 4));
  const std::uint64_t after_disabled = total.value();
  obs::set_enabled(true);
  EXPECT_EQ(sim.cycles(), 31u);
  EXPECT_EQ(after_disabled, before);
}

TEST(RtlKernel, HierarchyAndNames) {
  class Child final : public Module {
   public:
    explicit Child(Module* parent)
        : Module(parent, "child"), w(this, "w", 1) {}
    Wire<bool> w;
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  class Parent final : public Module {
   public:
    explicit Parent() : Module(nullptr, "parent"), kid(this) {}
    Child kid;
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  Parent top;
  EXPECT_EQ(top.kid.full_name(), "parent.child");
  EXPECT_EQ(top.kid.w.full_name(), "parent.child.w");
  EXPECT_EQ(top.children().size(), 1u);
  const std::string report = top.hierarchy_report();
  EXPECT_NE(report.find("parent"), std::string::npos);
  EXPECT_NE(report.find("child"), std::string::npos);
}

TEST(RtlKernel, ResourceTallyCountsRegisterBits) {
  Swapper top(nullptr);
  const ResourceTally t = top.own_resources();
  EXPECT_EQ(t.ff, 16u);  // two 8-bit registers
  EXPECT_EQ(t.lut4, 0u);
}

// ---- static schedule vs dense sweep ----

/// A three-stage chain declared for the static schedule: counter register
/// -> doubler -> +1. The +1 stage lives in the top module, so pre-order
/// (top first) is not rank order and the schedule has to reorder it.
class Counter final : public Module {
 public:
  explicit Counter(Module* parent)
      : Module(parent, "counter"), count(this, "count", 8) {}
  Reg<std::uint8_t> count;
  void clock_edge() override {
    count.set_next(static_cast<std::uint8_t>(count.read() + 1));
  }
  [[nodiscard]] Nets inputs() const override { return {}; }
  [[nodiscard]] Nets drives() const override { return {}; }
};

class Doubler final : public Module {
 public:
  Doubler(Module* parent, const Reg<std::uint8_t>& count)
      : Module(parent, "doubler"), twice(this, "twice", 8), count_(count) {}
  Wire<std::uint8_t> twice;
  void evaluate() override {
    twice.write(static_cast<std::uint8_t>(count_.read() * 2));
  }
  [[nodiscard]] Nets inputs() const override { return {&count_}; }
  [[nodiscard]] Nets drives() const override { return {&twice}; }

 private:
  const Reg<std::uint8_t>& count_;
};

class DeclaredChain final : public Module {
 public:
  DeclaredChain()
      : Module(nullptr, "dchain"), plus1(this, "plus1", 8), counter(this),
        doubler(this, counter.count) {}
  Wire<std::uint8_t> plus1;
  Counter counter;
  Doubler doubler;
  void evaluate() override {
    plus1.write(static_cast<std::uint8_t>(doubler.twice.read() + 1));
  }
  [[nodiscard]] Nets inputs() const override { return {&doubler.twice}; }
  [[nodiscard]] Nets drives() const override { return {&plus1}; }
};

TEST(RtlKernel, EventAndDenseModesAgreeOnCombChain) {
  DeclaredChain st_top;
  DeclaredChain de_top;
  Simulator st(st_top, SimMode::kLevel);
  Simulator de(de_top, SimMode::kDense);
  for (int cycle = 0; cycle < 300; ++cycle) {
    EXPECT_EQ(st_top.counter.count.read(), de_top.counter.count.read())
        << "cycle " << cycle;
    EXPECT_EQ(st_top.doubler.twice.read(), de_top.doubler.twice.read())
        << "cycle " << cycle;
    EXPECT_EQ(st_top.plus1.read(), de_top.plus1.read()) << "cycle " << cycle;
    st.step();
    de.step();
  }
  // One pass in Kahn order: every module once at reset, then the doubler
  // and the +1 stage once per cycle (the counter reads no nets).
  EXPECT_EQ(st.evaluations(), 3u + 2u * 300u);
}

TEST(RtlKernel, DenseModeDetectsCombinationalLoopToo) {
  Oscillator top(nullptr);
  try {
    Simulator sim(top, SimMode::kDense);
    FAIL() << "loop not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("osc.x"), std::string::npos);
  }
}

TEST(RtlKernel, EventHooksReleasedOnDestruction) {
  // A simulator keeps no hooks in the design's nets: a tree can be bound
  // again after its simulator is gone, and by two simulators at once.
  DeclaredChain top;
  {
    Simulator sim(top);
    sim.run(3);
  }
  Simulator again(top);  // resets the tree
  Simulator dense(top, SimMode::kDense);
  again.step();
  EXPECT_EQ(top.counter.count.read(), 1);
  EXPECT_EQ(top.plus1.read(), 3);
}

TEST(RtlKernel, MisdeclaredSensitivityNetIsRejected) {
  // A module declaring sensitivity to (or driving) a net outside the
  // simulated tree is a wiring bug and must fail loudly at elaboration.
  class Foreign final : public Module {
   public:
    Foreign(Module* parent, const NetBase* alien, bool as_output)
        : Module(parent, "foreign"), alien_(alien), as_output_(as_output) {}
    [[nodiscard]] Nets inputs() const override {
      return as_output_ ? Nets{} : Nets{alien_};
    }
    [[nodiscard]] Nets drives() const override {
      return as_output_ ? Nets{alien_} : Nets{};
    }

   private:
    const NetBase* alien_;
    bool as_output_;
  };
  CombChain other(nullptr);  // its nets are not part of `top`'s tree
  class Top final : public Module {
   public:
    Top(const NetBase* alien, bool as_output)
        : Module(nullptr, "top"), kid(this, alien, as_output) {}
    Foreign kid;
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }
  };
  for (const bool as_output : {false, true}) {
    Top top(&other.twice, as_output);
    EXPECT_THROW(Simulator(top, SimMode::kLevel), std::logic_error);
    EXPECT_NO_THROW(Simulator(top, SimMode::kDense));
  }
}

TEST(RtlKernel, EventModeDoesLessWorkOnDeclaredDesigns) {
  // A declared module is evaluated only when a declared input changed; a
  // design whose state stops changing stops being evaluated entirely.
  class Declared final : public Module {
   public:
    explicit Declared(Module* parent)
        : Module(parent, "decl"), stuck(this, "stuck", 8), out(this, "o", 8) {}
    Reg<std::uint8_t> stuck;  // never set_next -> never changes
    Wire<std::uint8_t> out;
    void evaluate() override {
      out.write(static_cast<std::uint8_t>(stuck.read() + 1));
    }
    [[nodiscard]] Nets inputs() const override { return {&stuck}; }
    [[nodiscard]] Nets drives() const override { return {&out}; }
  };
  Declared top(nullptr);
  Simulator sim(top, SimMode::kLevel);
  const std::uint64_t after_reset = sim.evaluations();
  EXPECT_EQ(after_reset, 1u);
  sim.run(100);
  EXPECT_EQ(sim.evaluations(), after_reset);  // no input ever changed
  EXPECT_EQ(top.out.read(), 1);

  Declared dense_top(nullptr);
  Simulator dense(dense_top, SimMode::kDense);
  const std::uint64_t dense_reset = dense.evaluations();
  dense.run(100);
  EXPECT_GT(dense.evaluations(), dense_reset);  // sweeps regardless
}

/// Copies a testbench-driven input wire to its output.
class Follower final : public Module {
 public:
  explicit Follower(Module* parent)
      : Module(parent, "f"), in(this, "in", 8), out(this, "out", 8) {}
  Wire<std::uint8_t> in;
  Wire<std::uint8_t> out;
  void evaluate() override { out.write(in.read()); }
  [[nodiscard]] Nets inputs() const override { return {&in}; }
  [[nodiscard]] Nets drives() const override { return {&out}; }
};

TEST(RtlKernel, ExternalWirePokeRetriggersDeclaredModule) {
  // Testbenches drive input wires between steps; the static schedule must
  // pick the change up at the next settle exactly like the dense sweep.
  Follower top(nullptr);
  Simulator sim(top, SimMode::kLevel);
  top.in.write(42);
  sim.step();
  EXPECT_EQ(top.out.read(), 42);
  top.in.write(7);
  sim.step();
  EXPECT_EQ(top.out.read(), 7);
}

TEST(RtlKernel, PokeWrittenBackBeforeTheStepIsNotAChange) {
  // Activation compares values, not writes: an input poked and restored
  // between two steps leaves its reader idle.
  Follower top(nullptr);
  Simulator sim(top, SimMode::kLevel);
  const std::uint64_t after_reset = sim.evaluations();
  top.in.write(42);
  top.in.write(0);
  sim.step();
  EXPECT_EQ(sim.evaluations(), after_reset);
  top.in.write(5);
  sim.step();
  EXPECT_EQ(sim.evaluations(), after_reset + 1);
  EXPECT_EQ(top.out.read(), 5);
}

TEST(RtlKernel, WireWithTwoDriversIsRejected) {
  // net.hpp: a wire is written by exactly one driver module.
  class Top final : public Module {
   public:
    Top() : Module(nullptr, "top"), f(this) {}
    Follower f;
    void evaluate() override { f.out.write(1); }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {&f.out}; }
  };
  Top top;
  try {
    Simulator sim(top, SimMode::kLevel);
    FAIL() << "a wire with two drivers was ranked";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("module 'top.f'"), std::string::npos) << what;
    EXPECT_NE(what.find("wire 'top.f.out'"), std::string::npos) << what;
    EXPECT_NE(what.find("module 'top' drives too"), std::string::npos)
        << what;
  }
}

TEST(RtlKernel, RegisterInDrivesIsRejected) {
  // module.hpp: registers change only at commit and never appear in
  // drives().
  class RegDriver final : public Module {
   public:
    explicit RegDriver(Module* parent)
        : Module(parent, "rd"), r(this, "r", 8) {}
    Reg<std::uint8_t> r;
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {&r}; }
  };
  RegDriver top(nullptr);
  try {
    Simulator sim(top, SimMode::kLevel);
    FAIL() << "a register in drives() was ranked";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("module 'rd'"), std::string::npos) << what;
    EXPECT_NE(what.find("register 'rd.r'"), std::string::npos) << what;
  }
}

TEST(RtlKernel, SensitivityNoneModuleOnlyEvaluatesAtReset) {
  class Constant final : public Module {
   public:
    explicit Constant(Module* parent)
        : Module(parent, "c"), out(this, "out", 8) {}
    Wire<std::uint8_t> out;
    int calls = 0;
    void evaluate() override {
      ++calls;
      out.write(99);
    }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {&out}; }
  };
  Constant top(nullptr);
  Simulator sim(top, SimMode::kLevel);
  EXPECT_EQ(top.calls, 1);
  sim.run(50);
  EXPECT_EQ(top.calls, 1);
  EXPECT_EQ(top.out.read(), 99);
  sim.reset();
  EXPECT_EQ(top.calls, 2);
}

// ---- commit: only the registers a cycle scheduled ----

/// A register written twice per clock_edge() (a default, then the real
/// value) feeding this module's evaluate(), plus a hold register scheduled
/// back to its own value every cycle, read by a HoldReader.
class Rescheduler final : public Module {
 public:
  Rescheduler()
      : Module(nullptr, "resched"), count(this, "count", 8),
        hold(this, "hold", 8, 5), count_out(this, "count_out", 8) {}
  Reg<std::uint8_t> count;
  Reg<std::uint8_t> hold;
  Wire<std::uint8_t> count_out;
  void evaluate() override {
    count_out.write(static_cast<std::uint8_t>(count.read() + 100));
  }
  void clock_edge() override {
    count.set_next(0);  // a default the second call overrides
    count.set_next(static_cast<std::uint8_t>(count.read() + 1));
    hold.set_next(hold.read());
  }
  [[nodiscard]] Nets inputs() const override { return {&count}; }
  [[nodiscard]] Nets drives() const override { return {&count_out}; }
};

/// Reads only the hold register: woken by nothing but its commits.
class HoldReader final : public Module {
 public:
  HoldReader(Module* parent, const Reg<std::uint8_t>& hold)
      : Module(parent, "hold_reader"), out(this, "out", 8), hold_(hold) {}
  Wire<std::uint8_t> out;
  int calls = 0;
  void evaluate() override {
    ++calls;
    out.write(hold_.read());
  }
  [[nodiscard]] Nets inputs() const override { return {&hold_}; }
  [[nodiscard]] Nets drives() const override { return {&out}; }

 private:
  const Reg<std::uint8_t>& hold_;
};

TEST(RtlKernel, RegisterScheduledTwiceCommitsTheLastValueOnce) {
  Rescheduler top;
  HoldReader reader(&top, top.hold);
  Simulator sim(top, SimMode::kLevel);
  EXPECT_EQ(sim.commits(), 0u);
  EXPECT_EQ(sim.evaluations(), 2u);  // both modules once at reset
  sim.run(10);
  EXPECT_EQ(top.count.read(), 10);
  EXPECT_EQ(top.count_out.read(), 110);
  // Two registers scheduled per cycle, each committed once however often
  // set_next() ran.
  EXPECT_EQ(sim.commits(), 20u);
  // `hold` is scheduled back to its own value every cycle: its commit
  // wakes no reader, so only the top (woken by `count`) runs each cycle.
  EXPECT_EQ(reader.calls, 1);
  EXPECT_EQ(reader.out.read(), 5);
  EXPECT_EQ(sim.evaluations(), 2u + 10u);

  Rescheduler dense_top;
  HoldReader dense_reader(&dense_top, dense_top.hold);
  Simulator dense(dense_top, SimMode::kDense);
  dense.run(10);
  EXPECT_EQ(dense.commits(), 20u);  // the same commit in both modes
  EXPECT_EQ(dense_top.count.read(), 10);
}

/// Counts up, and throws from clock_edge() on request after another
/// module's register (its child's) was already scheduled this cycle.
class Thrower final : public Module {
 public:
  explicit Thrower(Module* parent)
      : Module(parent, "thrower"), r(this, "r", 8, 3) {}
  Reg<std::uint8_t> r;
  bool armed = false;
  void clock_edge() override {
    r.set_next(static_cast<std::uint8_t>(r.read() + 3));
    if (armed) {
      armed = false;
      throw std::runtime_error("clock_edge failed");
    }
  }
  [[nodiscard]] Nets inputs() const override { return {}; }
  [[nodiscard]] Nets drives() const override { return {}; }
};

class ThrowingChain final : public Module {
 public:
  ThrowingChain()
      : Module(nullptr, "tchain"), plus1(this, "plus1", 8), counter(this),
        doubler(this, counter.count), thrower(this) {}
  Wire<std::uint8_t> plus1;
  Counter counter;  // clock_edge() runs before the thrower's
  Doubler doubler;
  Thrower thrower;
  void evaluate() override {
    plus1.write(static_cast<std::uint8_t>(doubler.twice.read() +
                                          thrower.r.read()));
  }
  [[nodiscard]] Nets inputs() const override {
    return {&doubler.twice, &thrower.r};
  }
  [[nodiscard]] Nets drives() const override { return {&plus1}; }
};

void expect_same_nets(const ThrowingChain& a, const ThrowingChain& b,
                      int cycle) {
  EXPECT_EQ(a.counter.count.read(), b.counter.count.read()) << cycle;
  EXPECT_EQ(a.thrower.r.read(), b.thrower.r.read()) << cycle;
  EXPECT_EQ(a.doubler.twice.read(), b.doubler.twice.read()) << cycle;
  EXPECT_EQ(a.plus1.read(), b.plus1.read()) << cycle;
}

TEST(RtlKernel, ThrowingClockEdgeCommitsNothingAndLeavesNothingPending) {
  for (const SimMode mode : {SimMode::kLevel, SimMode::kDense}) {
    ThrowingChain top;
    ThrowingChain fresh;
    Simulator sim(top, mode);
    Simulator ref(fresh, mode);
    sim.run(4);
    ref.run(4);
    const std::uint64_t commits = sim.commits();
    top.thrower.armed = true;
    EXPECT_THROW(sim.step(), std::runtime_error);
    // The counter's and the thrower's registers were scheduled before the
    // throw; neither was committed, and the cycle did not count.
    EXPECT_EQ(sim.cycles(), 4u);
    EXPECT_EQ(sim.commits(), commits);
    expect_same_nets(top, fresh, 4);
    // A set_next() outside any step has no pending list to join, and no
    // commit applies it.
    top.counter.count.set_next(200);
    top.thrower.r.set_next(200);
    // Every register the failed cycle scheduled is scheduled again, and
    // committed, by the next step: the tree runs in lockstep with one that
    // never threw.
    for (int cycle = 5; cycle < 40; ++cycle) {
      sim.step();
      ref.step();
      expect_same_nets(top, fresh, cycle);
    }
    EXPECT_EQ(sim.commits(), ref.commits());
  }
}

TEST(RtlKernel, SetNextAfterTheSimulatorIsGoneWritesNoStaleList) {
  // The failed step's list belongs to a simulator that no longer exists;
  // a later set_next() must not append to it (ASan would flag the write)
  // and a new simulator must commit normally.
  ThrowingChain top;
  {
    Simulator sim(top);
    top.thrower.armed = true;
    EXPECT_THROW(sim.step(), std::runtime_error);
  }
  top.thrower.r.set_next(9);
  top.counter.count.set_next(9);
  Simulator again(top);
  ThrowingChain fresh;
  Simulator ref(fresh);
  for (int cycle = 0; cycle < 10; ++cycle) {
    again.step();
    ref.step();
    expect_same_nets(top, fresh, cycle);
  }
}

TEST(RtlKernel, SchedulingARegisterTheSimulatorDidNotNumberThrows) {
  // set_next() checks a register against the stepping simulator's
  // numbering before it joins the pending list, so the check holds while
  // the list still has room. The step throws and commits nothing.
  class Poacher final : public Module {
   public:
    explicit Poacher(Reg<std::uint8_t>& foreign)
        : Module(nullptr, "poacher"), a(this, "a", 8), b(this, "b", 8),
          c(this, "c", 8), foreign_(foreign) {}
    Reg<std::uint8_t> a, b, c;  // `c` keeps room in the list
    bool poach = true;
    void clock_edge() override {
      a.set_next(static_cast<std::uint8_t>(a.read() + 1));
      if (poach) foreign_.set_next(99);
      b.set_next(static_cast<std::uint8_t>(b.read() + 2));
    }
    [[nodiscard]] Nets inputs() const override { return {}; }
    [[nodiscard]] Nets drives() const override { return {}; }

   private:
    Reg<std::uint8_t>& foreign_;
  };
  Counter victim(nullptr);
  Simulator victim_sim(victim);  // numbers victim.count 0, like poacher.a
  Poacher top(victim.count);
  Simulator sim(top);
  try {
    sim.step();
    FAIL() << "a register of another tree was committed";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("did not number"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.cycles(), 0u);
  EXPECT_EQ(sim.commits(), 0u);
  EXPECT_EQ(top.a.read(), 0);
  EXPECT_EQ(victim.count.read(), 0);
  // Nothing was left pending: each tree's own simulator commits its own.
  victim_sim.run(3);
  EXPECT_EQ(victim.count.read(), 3);
  top.poach = false;
  sim.run(2);
  EXPECT_EQ(top.a.read(), 2);
  EXPECT_EQ(top.b.read(), 4);
  EXPECT_EQ(sim.commits(), 4u);

  // A simulator bound to a subtree renumbers its registers; the one bound
  // to the whole tree then refuses them instead of keying the wrong
  // reader masks.
  ThrowingChain chain;
  Simulator whole(chain);
  whole.run(2);
  { Simulator part(chain.thrower); }
  EXPECT_THROW(whole.step(), std::logic_error);
  EXPECT_EQ(whole.cycles(), 2u);
}

/// One of many stages. Stage i adds i % 3 to its register every cycle (so
/// a third of them are scheduled back to their own value); even stages
/// read only their register, odd ones also the previous stage's output.
class Stage final : public Module {
 public:
  Stage(Module* parent, unsigned i, const Wire<std::uint8_t>* prev)
      : Module(parent, "s" + std::to_string(i)),
        r(this, "r", 8, static_cast<std::uint8_t>(i)),
        out(this, "out", 8), step_(static_cast<std::uint8_t>(i % 3)),
        prev_(i % 2 == 1 ? prev : nullptr) {}
  Reg<std::uint8_t> r;
  Wire<std::uint8_t> out;
  void clock_edge() override {
    r.set_next(static_cast<std::uint8_t>(r.read() + step_));
  }
  void evaluate() override {
    const unsigned in = prev_ != nullptr ? prev_->read() : 0u;
    out.write(static_cast<std::uint8_t>(r.read() * 7u + in));
  }
  [[nodiscard]] Nets inputs() const override {
    return prev_ != nullptr ? Nets{&r, prev_} : Nets{&r};
  }
  [[nodiscard]] Nets drives() const override { return {&out}; }

 private:
  std::uint8_t step_;
  const Wire<std::uint8_t>* prev_;
};

class ManyStages final : public Module {
 public:
  explicit ManyStages(unsigned n) : Module(nullptr, "many") {
    const Wire<std::uint8_t>* prev = nullptr;
    for (unsigned i = 0; i < n; ++i) {
      stages.push_back(std::make_unique<Stage>(this, i, prev));
      prev = &stages.back()->out;
    }
  }
  std::vector<std::unique_ptr<Stage>> stages;
  [[nodiscard]] Nets inputs() const override { return {}; }
  [[nodiscard]] Nets drives() const override { return {}; }
};

TEST(RtlKernel, MoreThanSixtyFourModulesStepInLockstepWithDense) {
  constexpr unsigned kStages = 150;  // 151 modules: three words of slots
  ManyStages level_top(kStages);
  ManyStages dense_top(kStages);
  Simulator level(level_top, SimMode::kLevel);
  Simulator dense(dense_top, SimMode::kDense);
  ASSERT_GT(level.modules().size(), 128u);
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (unsigned i = 0; i < kStages; ++i) {
      ASSERT_EQ(level_top.stages[i]->out.read(),
                dense_top.stages[i]->out.read())
          << "cycle " << cycle << " stage " << i;
    }
    level.step();
    dense.step();
  }
  EXPECT_EQ(level.commits(), dense.commits());
  EXPECT_EQ(level.commits(), 50u * kStages);
}

struct GapRun {
  std::uint64_t cycles, generations, genome, evaluations, commits;
  bool operator==(const GapRun&) const = default;
};

GapRun run_gap(std::uint64_t seed) {
  gap::GapParams params;
  gap::GapTop top(nullptr, "gap", params, seed);
  Simulator sim(top);
  EXPECT_TRUE(sim.run_until([&] { return top.done.read(); }, 2'000'000));
  return {sim.cycles(), top.generation(), top.best_genome(),
          sim.evaluations(), sim.commits()};
}

TEST(RtlKernel, TwoGapTreesOnTwoThreadsMatchOneThread) {
  // Each thread's steps use that thread's pending list: two trees stepped
  // at once neither lose nor steal each other's scheduled registers.
  constexpr std::uint64_t kSeeds[] = {5, 3};
  const GapRun alone[] = {run_gap(kSeeds[0]), run_gap(kSeeds[1])};
  GapRun together[2];
  {
    std::thread a([&] { together[0] = run_gap(kSeeds[0]); });
    std::thread b([&] { together[1] = run_gap(kSeeds[1]); });
    a.join();
    b.join();
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(together[i], alone[i]) << "seed " << kSeeds[i];
    EXPECT_GT(alone[i].commits, 0u);
  }
}

// ---- SyncRam ----

class RamHarness final : public Module {
 public:
  explicit RamHarness() : Module(nullptr, "tb"), ram(this, "ram", 32, 36) {}
  SyncRam ram;
  [[nodiscard]] Nets inputs() const override { return {}; }
  [[nodiscard]] Nets drives() const override { return {}; }
};

TEST(SyncRam, WriteThenReadBack) {
  RamHarness tb;
  Simulator sim(tb);
  tb.ram.addr.write(5);
  tb.ram.we.write(true);
  tb.ram.wdata.write(0xABCDEF123ULL);
  sim.step();
  tb.ram.we.write(false);
  tb.ram.addr.write(5);
  sim.step();
  EXPECT_EQ(tb.ram.rdata.read(), 0xABCDEF123ULL);
}

TEST(SyncRam, ReadFirstOnSimultaneousReadWrite) {
  RamHarness tb;
  Simulator sim(tb);
  tb.ram.poke(3, 111);
  tb.ram.addr.write(3);
  tb.ram.we.write(true);
  tb.ram.wdata.write(222);
  sim.step();
  EXPECT_EQ(tb.ram.rdata.read(), 111u);  // old data on the read port
  EXPECT_EQ(tb.ram.peek(3), 222u);       // write landed
}

TEST(SyncRam, WidthMasking) {
  RamHarness tb;
  Simulator sim(tb);
  tb.ram.addr.write(0);
  tb.ram.we.write(true);
  tb.ram.wdata.write(~std::uint64_t{0});
  sim.step();
  EXPECT_EQ(tb.ram.peek(0), (std::uint64_t{1} << 36) - 1);
}

TEST(SyncRam, PeekPokeBoundsChecked) {
  RamHarness tb;
  EXPECT_THROW((void)tb.ram.peek(32), std::out_of_range);
  EXPECT_THROW(tb.ram.poke(32, 0), std::out_of_range);
}

TEST(SyncRam, ResourceTallyCountsRamBits) {
  RamHarness tb;
  const ResourceTally t = tb.ram.own_resources();
  EXPECT_EQ(t.ram_bits, 32u * 36u);
  EXPECT_EQ(t.ff, 36u);  // registered read port
}

// ---- VCD ----

TEST(Vcd, ProducesWellFormedHeaderAndSamples) {
  CombChain top(nullptr);
  Simulator sim(top);
  const std::string path = ::testing::TempDir() + "/leo_test.vcd";
  {
    VcdWriter vcd(path, top);
    EXPECT_EQ(vcd.traced_nets(), 3u);
    sim.attach_vcd(&vcd);
    sim.run(3);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("$timescale 1 us $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8"), std::string::npos);
  EXPECT_NE(text.find("count"), std::string::npos);
  EXPECT_NE(text.find("#1"), std::string::npos);
  EXPECT_NE(text.find("#3"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace leo::rtl
