#include "rtl/simulator.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "rtl/vcd.hpp"

namespace leo::rtl {

namespace {

/// Adds a finished run() / run_until() burst to leo_rtl_cycles_total.
/// Instrumentation sits at burst granularity — never per cycle — so the
/// step loop stays untouched and a disabled registry costs one relaxed
/// load.
void count_cycles(std::uint64_t cycles) {
  if (cycles == 0 || !obs::enabled()) return;
  static obs::Counter& total = obs::registry().counter("leo_rtl_cycles_total");
  total.inc(cycles);
}

}  // namespace

void RegBase::foreign() {
  throw std::logic_error(
      "Simulator: a clock_edge() scheduled a register the stepping "
      "simulator did not number: one of another tree, or one renumbered "
      "by a simulator elaborated later on part of this tree");
}

Simulator::Simulator(Module& top, SimMode mode) : top_(&top), mode_(mode) {
  collect(top);
  for (std::size_t i = 0; i < regs_.size(); ++i) {
    regs_[i]->top_ = top_;
    regs_[i]->index_ = static_cast<std::uint32_t>(i);
  }
  snapshot_.assign(nets_.size(), 0);
  pending_.resize(regs_.size());
  readers_.assign(regs_.size(), 0);  // kDense: one all-zero word each
  dirty_.assign(1, 0);
  if (mode_ == SimMode::kLevel) plan_static_schedule();
  reset();
}

void Simulator::collect(Module& m) {
  modules_.push_back(&m);
  for (auto* net : m.nets()) nets_.push_back(net);
  for (auto* reg : m.regs()) regs_.push_back(reg);
  for (auto* child : m.children()) collect(*child);
}

void Simulator::plan_static_schedule() {
  // Every list is checked against the design and against the drives()
  // rules of module.hpp before anything is ranked. A net is looked up by
  // binary search in a sorted copy of nets_, and its position there
  // indexes the per-net table `driver`.
  std::vector<const NetBase*> net_order(nets_.begin(), nets_.end());
  std::vector<const NetBase*> reg_order(regs_.begin(), regs_.end());
  std::sort(net_order.begin(), net_order.end(), std::less<>());
  std::sort(reg_order.begin(), reg_order.end(), std::less<>());
  const auto is_reg = [&](const NetBase* n) {
    return std::binary_search(reg_order.begin(), reg_order.end(), n,
                              std::less<>());
  };
  const auto reject = [](const Module& m, const std::string& why) {
    throw std::logic_error("Simulator: module '" + m.full_name() + "' " +
                           why);
  };
  const auto position = [&](const Module& m, const NetBase* n,
                            const char* what) {
    const auto it = std::lower_bound(net_order.begin(), net_order.end(), n,
                                     std::less<>());
    if (it == net_order.end() || *it != n) {
      reject(m, std::string("declares ") + what + " net '" + n->full_name() +
                    "' which is not part of this design");
    }
    return static_cast<std::size_t>(it - net_order.begin());
  };
  constexpr std::uint32_t kNoDriver = ~std::uint32_t{0};
  std::vector<Nets> sens(modules_.size());
  std::vector<std::uint32_t> driver(net_order.size(), kNoDriver);
  for (std::uint32_t m = 0; m < modules_.size(); ++m) {
    const Module& mod = *modules_[m];
    sens[m] = mod.inputs();
    for (const NetBase* n : sens[m]) (void)position(mod, n, "sensitivity to");
    for (const NetBase* n : mod.drives()) {
      std::uint32_t& d = driver[position(mod, n, "it drives")];
      if (is_reg(n)) {
        reject(mod, "lists register '" + n->full_name() +
                        "' in drives(); registers change only at commit");
      }
      if (d != kNoDriver && d != m) {
        reject(mod, "drives wire '" + n->full_name() + "' which module '" +
                        modules_[d]->full_name() +
                        "' drives too; a wire has exactly one driver");
      }
      d = m;
    }
  }

  // Module-level combinational dependency graph: edge u -> v iff some
  // wire in drives(u) appears in inputs(v). Kahn's algorithm visits it in
  // a topological order — every module after all of its drivers — which
  // is the schedule; a module it never reaches sits on a cycle.
  std::vector<std::vector<std::uint32_t>> adj(modules_.size());
  for (std::uint32_t v = 0; v < modules_.size(); ++v) {
    for (const NetBase* n : sens[v]) {
      const std::uint32_t u =
          driver[position(*modules_[v], n, "sensitivity to")];
      if (u != kNoDriver) adj[u].push_back(v);
    }
  }
  std::vector<std::uint32_t> indegree(modules_.size(), 0);
  for (auto& edges : adj) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const std::uint32_t v : edges) ++indegree[v];
  }

  std::vector<std::uint32_t> order;
  order.reserve(modules_.size());
  for (std::uint32_t m = 0; m < modules_.size(); ++m) {
    if (indegree[m] == 0) order.push_back(m);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::uint32_t v : adj[order[head]]) {
      if (--indegree[v] == 0) order.push_back(v);
    }
  }
  if (order.size() != modules_.size()) {
    // Kahn's algorithm left the modules on a cycle and those downstream
    // of one. Peeling off every module with no edge back into the rest
    // leaves only those on a cycle (or between two).
    std::vector<bool> left(modules_.size());
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      left[m] = indegree[m] > 0;
    }
    for (bool peeled = true; peeled;) {
      peeled = false;
      for (std::size_t u = 0; u < modules_.size(); ++u) {
        if (left[u] && std::none_of(adj[u].begin(), adj[u].end(),
                                    [&](std::uint32_t v) { return left[v]; })) {
          left[u] = false;
          peeled = true;
        }
      }
    }
    std::string cyclic;
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      if (left[m] && cyclic.size() < 256) {
        cyclic += ' ';
        cyclic += modules_[m]->full_name();
      }
    }
    throw std::logic_error(
        "Simulator: combinational cycle in the module dependency graph "
        "through:" + cyclic +
        "; the static schedule cannot rank it, simulate it with "
        "SimMode::kDense");
  }

  // A wire input is compared at every settle; a register input instead
  // sets the reader's bit in the register's row of readers_, which its
  // commit ORs into the dirty set.
  words_ = (modules_.size() + 63) / 64;
  readers_.assign(regs_.size() * words_, 0);
  wired_.assign(words_, 0);
  dirty_.assign(words_, 0);
  for (const std::uint32_t m : order) {
    const std::size_t slot = schedule_.size();
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    const auto begin = static_cast<std::uint32_t>(inputs_.size());
    for (const NetBase* n : sens[m]) {
      if (is_reg(n)) {
        const auto& reg = static_cast<const RegBase&>(*n);
        readers_[reg.index_ * words_ + slot / 64] |= bit;
      } else {
        inputs_.push_back({&n->value_, 0});
        wired_[slot / 64] |= bit;
      }
    }
    schedule_.push_back({modules_[m], begin,
                         static_cast<std::uint32_t>(inputs_.size())});
  }
}

void Simulator::reset() {
  for (auto* reg : regs_) reg->reset();
  for (auto* m : modules_) m->reset();
  cycles_ = 0;
  if (mode_ == SimMode::kDense) {
    settle_dense();
  } else {
    for (std::size_t slot = 0; slot < schedule_.size(); ++slot) {
      dirty_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    settle_static();
  }
}

void Simulator::commit(std::size_t n) {
  commits_ += n;
  // Locals, because a store through a register could alias any member;
  // and the first word of the dirty set gathers in a register, because
  // ORing each row into memory would chain every commit through a store
  // and a reload.
  const std::size_t words = words_;
  const std::uint64_t* const readers = readers_.data();
  std::uint64_t* const dirty = dirty_.data();
  std::uint64_t woken = 0;
  for (std::size_t i = 0; i < n; ++i) {
    RegBase& reg = *pending_[i];
    reg.pending_ = false;
    // Branch-free: about two in three scheduled registers change value.
    const std::uint64_t changed =
        reg.next_ != reg.value_ ? ~std::uint64_t{0} : 0;
    reg.value_ = reg.next_;
    const std::uint64_t* const row = readers + reg.index_ * words;
    woken |= row[0] & changed;
    for (std::size_t w = 1; w < words; ++w) dirty[w] |= row[w] & changed;
  }
  dirty[0] |= woken;
}

void Simulator::settle_dense() {
  // Convergence is judged on end-of-pass values: a module's evaluate()
  // may legitimately write a default and then override it within one
  // pass, so intra-pass toggles are not loop evidence — only a value that
  // differs between consecutive passes is.
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    snapshot_[i] = nets_[i]->value_u64();
  }
  for (unsigned pass = 0; pass < kMaxSettlePasses; ++pass) {
    for (auto* m : modules_) m->evaluate();
    evaluations_ += modules_.size();
    bool changed = false;
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      const std::uint64_t v = nets_[i]->value_u64();
      if (v != snapshot_[i]) {
        changed = true;
        snapshot_[i] = v;
      }
    }
    if (!changed) return;
  }
  report_oscillation();
}

void Simulator::settle_static() {
  // Each wire changes at most once per settle (a testbench poke before
  // it, or its driver's evaluate()), and every reader comes after its
  // drivers. So comparing a module's wire inputs with what it saw last
  // time, together with the dirty bit its register inputs' commits set,
  // activates exactly the modules whose inputs changed, each once, after
  // all of its inputs are final. Only modules with a wire input or a
  // dirty bit are visited; a word of the dirty set is cleared after its
  // modules ran, so an evaluate() that throws leaves them dirty.
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t woken = dirty_[w];
    for (std::uint64_t todo = woken | wired_[w]; todo != 0;
         todo &= todo - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(todo));
      const Slot& slot = schedule_[w * 64 + bit];
      bool changed = ((woken >> bit) & 1) != 0;
      for (std::uint32_t k = slot.begin; k < slot.end; ++k) {
        const std::uint64_t v = *inputs_[k].word;
        changed |= v != inputs_[k].seen;
        inputs_[k].seen = v;
      }
      if (changed) {
        slot.module->evaluate();
        ++evaluations_;
      }
    }
    dirty_[w] = 0;
  }
}

void Simulator::report_oscillation() {
  // Failure path only — the diagnostic pass and the string it builds cost
  // nothing when designs converge (which is every pass of every cycle of
  // a healthy run).
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    snapshot_[i] = nets_[i]->value_u64();
  }
  for (auto* m : modules_) m->evaluate();
  std::string oscillating;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i]->value_u64() != snapshot_[i] && oscillating.size() < 512) {
      oscillating += ' ';
      oscillating += nets_[i]->full_name();
    }
  }
  throw std::runtime_error(
      "Simulator: combinational logic did not settle in " +
      std::to_string(kMaxSettlePasses) + " passes; oscillating nets:" +
      oscillating);
}

void Simulator::step() {
  // Wires already settled (end of previous step / reset). The edge phase
  // owns this thread's pending list only while clock_edge() runs, so a
  // simulator stepped from inside a clock_edge() keeps its own, and a
  // set_next() after a step has no stale list to write to.
  RegBase** const enclosing_tail = RegBase::edge_tail_;
  const Module* const enclosing_top = RegBase::edge_top_;
  RegBase::edge_tail_ = pending_.data();
  RegBase::edge_top_ = top_;
  const auto close_edge_phase = [&] {
    const auto n = static_cast<std::size_t>(RegBase::edge_tail_ -
                                            pending_.data());
    RegBase::edge_tail_ = enclosing_tail;
    RegBase::edge_top_ = enclosing_top;
    return n;
  };
  try {
    for (auto* m : modules_) m->clock_edge();
  } catch (...) {
    const std::size_t n = close_edge_phase();
    for (std::size_t i = 0; i < n; ++i) pending_[i]->pending_ = false;
    throw;
  }
  commit(close_edge_phase());
  ++cycles_;
  if (mode_ == SimMode::kDense) {
    settle_dense();
  } else {
    settle_static();
  }
  if (vcd_ != nullptr) vcd_->sample(cycles_);
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
  count_cycles(n);
}

bool Simulator::run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles) {
  const std::uint64_t first = cycles_;
  bool reached = false;
  for (std::uint64_t i = 0; i < max_cycles && !reached; ++i) {
    step();
    reached = done();
  }
  if (!reached) reached = done();
  count_cycles(cycles_ - first);
  return reached;
}

}  // namespace leo::rtl
