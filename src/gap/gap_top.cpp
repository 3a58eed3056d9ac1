#include "gap/gap_top.hpp"

#include <stdexcept>

#include "genome/gait_genome.hpp"

namespace leo::gap {

namespace {
constexpr auto kGenomeBits = static_cast<unsigned>(genome::kGenomeBits);

constexpr std::uint8_t to_u8(GapTop::Phase p) {
  return static_cast<std::uint8_t>(p);
}
}  // namespace

GapTop::GapTop(rtl::Module* parent, std::string name, GapParams params,
               std::uint64_t rng_seed, CombinationalFitness fitness)
    : rtl::Module(parent, std::move(name)),
      busy(this, "busy", 1),
      done(this, "done", 1),
      best_genome_bus(this, "best_genome_bus", kGenomeBits),
      best_fitness_bus(this, "best_fitness_bus", 8),
      params_(params),
      rng_(this, "random_generator", rng_seed),
      ram_a_(this, "population_a", params.population_size, kGenomeBits),
      ram_b_(this, "population_b", params.population_size, kGenomeBits),
      fitness_ram_(this, "fitness_ram", params.population_size, 8),
      fitness_unit_(this, "fitness_module", std::move(fitness)),
      fifo_(this, "individual_pipeline",
            static_cast<unsigned>(2 * params.addr_bits())),
      basis_rdata_mux_(this, "basis_rdata_mux", kGenomeBits),
      selection_(this, "selection", params, rng_.word, fitness_ram_.rdata,
                 fifo_),
      crossover_(this, "crossover", params, rng_.word, basis_rdata_mux_,
                 fifo_),
      phase_(this, "phase", 3),
      bank_(this, "bank", 1),
      idx_(this, "idx", 8),
      sub_(this, "sub", 2),
      init_acc_(this, "init_acc", 48),
      start_pulse_(this, "start_pulse", 1),
      mut_count_(this, "mut_count", 8),
      mut_addr_(this, "mut_addr", params.addr_bits()),
      mut_bit_(this, "mut_bit", 6),
      generation_(this, "generation", 32),
      best_genome_(this, "best_genome", kGenomeBits),
      best_fitness_(this, "best_fitness", 8),
      eval_cycles_(this, "eval_cycles", 48),
      selxover_cycles_(this, "selxover_cycles", 48),
      mutate_cycles_(this, "mutate_cycles", 48),
      port_mux_(this) {
  if (params_.population_size < 4 || params_.population_size % 2 != 0) {
    throw std::invalid_argument("GapTop: population must be even, >= 4");
  }
  if (params_.mutations_per_generation > 255) {
    throw std::invalid_argument("GapTop: too many mutations per generation");
  }
  if (params_.target_fitness > 255) {
    throw std::invalid_argument(
        "GapTop: target fitness above 255 is out of the 8-bit score's reach");
  }
}

void GapTop::drive_ram_defaults() {
  for (rtl::SyncRam* ram : {&ram_a_, &ram_b_, &fitness_ram_}) {
    ram->addr.write(0);
    ram->we.write(false);
    ram->wdata.write(0);
  }
}

void GapTop::evaluate() {
  // Control half only — the RAM port wires belong to port_mux_.
  const auto phase = static_cast<Phase>(phase_.read());
  busy.write(phase != Phase::kDone);
  done.write(phase == Phase::kDone);
  best_genome_bus.write(best_genome_.read());
  best_fitness_bus.write(best_fitness_.read());
  basis_rdata_mux_.write(basis().rdata.read());

  // Engine control defaults; overridden in the SEL+XOVER phase.
  selection_.start.write(false);
  selection_.enable.write(false);
  crossover_.start.write(false);
  crossover_.enable.write(false);
  fitness_unit_.genome.write(0);

  switch (phase) {
    case Phase::kEval:
      if (sub_.read() == 1) {
        // basis rdata now holds individual idx; feed it to the scorer.
        fitness_unit_.genome.write(basis().rdata.read());
      }
      break;

    case Phase::kSelXover:
      selection_.start.write(start_pulse_.read());
      crossover_.start.write(start_pulse_.read());
      if (params_.pipelined) {
        selection_.enable.write(true);
        crossover_.enable.write(true);
      } else {
        // Strict alternation: selection may only work while the crossover
        // engine is idle and nothing is queued; crossover drains first.
        // Activity is read from the crossover state register (busy_now),
        // not its busy wire — identical value, no combinational cycle.
        const bool xover_active =
            crossover_.busy_now() || !fifo_.empty.read();
        selection_.enable.write(!xover_active);
        crossover_.enable.write(true);
      }
      break;

    case Phase::kInit:
    case Phase::kMutate:
    case Phase::kSwap:
    case Phase::kDone:
      break;
  }
}

GapTop::PortMux::PortMux(GapTop* top)
    : rtl::Module(top, "port_mux"), top_(top) {}

rtl::Nets GapTop::PortMux::inputs() const {
  return {&top_->phase_,
          &top_->bank_,
          &top_->idx_,
          &top_->sub_,
          &top_->init_acc_,
          &top_->mut_addr_,
          &top_->mut_bit_,
          &top_->ram_a_.rdata,
          &top_->ram_b_.rdata,
          &top_->fitness_unit_.score,
          &top_->selection_.fitness_addr,
          &top_->crossover_.basis_addr,
          &top_->crossover_.inter_addr,
          &top_->crossover_.inter_we,
          &top_->crossover_.inter_wdata};
}

rtl::Nets GapTop::PortMux::drives() const {
  return {&top_->ram_a_.addr,        &top_->ram_a_.we,
          &top_->ram_a_.wdata,       &top_->ram_b_.addr,
          &top_->ram_b_.we,          &top_->ram_b_.wdata,
          &top_->fitness_ram_.addr,  &top_->fitness_ram_.we,
          &top_->fitness_ram_.wdata};
}

void GapTop::PortMux::evaluate() {
  GapTop& g = *top_;
  g.drive_ram_defaults();
  rtl::SyncRam& basis_ram = g.basis();
  rtl::SyncRam& inter_ram = g.intermediate();

  switch (static_cast<Phase>(g.phase_.read())) {
    case Phase::kInit:
      basis_ram.addr.write(g.idx_.read());
      if (g.sub_.read() == 3) {
        basis_ram.we.write(true);
        basis_ram.wdata.write(g.init_acc_.read() & genome::kGenomeMask);
      }
      break;

    case Phase::kEval:
      basis_ram.addr.write(g.idx_.read());
      if (g.sub_.read() == 1) {
        // Store the score the fitness unit computed from this rdata.
        g.fitness_ram_.addr.write(g.idx_.read());
        g.fitness_ram_.we.write(true);
        g.fitness_ram_.wdata.write(g.fitness_unit_.score.read());
      }
      break;

    case Phase::kSelXover:
      g.fitness_ram_.addr.write(g.selection_.fitness_addr.read());
      basis_ram.addr.write(g.crossover_.basis_addr.read());
      inter_ram.addr.write(g.crossover_.inter_addr.read());
      inter_ram.we.write(g.crossover_.inter_we.read());
      inter_ram.wdata.write(g.crossover_.inter_wdata.read());
      break;

    case Phase::kMutate:
      if (g.sub_.read() == 1) {
        inter_ram.addr.write(g.mut_addr_.read());
      } else if (g.sub_.read() == 2) {
        inter_ram.addr.write(g.mut_addr_.read());
        inter_ram.we.write(true);
        inter_ram.wdata.write(inter_ram.rdata.read() ^
                              (std::uint64_t{1} << g.mut_bit_.read()));
      }
      break;

    case Phase::kSwap:
    case Phase::kDone:
      break;
  }
}

void GapTop::clock_edge() {
  const auto phase = static_cast<Phase>(phase_.read());
  start_pulse_.set_next(false);

  switch (phase) {
    case Phase::kInit: {
      const unsigned sub = sub_.read();
      if (sub < 3) {
        init_acc_.set_next((init_acc_.read() << 16) | rng_.word.read());
        sub_.set_next(static_cast<std::uint8_t>(sub + 1));
      } else {
        // The write asserted in evaluate() commits at this edge.
        init_acc_.set_next(0);
        sub_.set_next(0);
        const unsigned next_idx = idx_.read() + 1u;
        if (next_idx >= params_.population_size) {
          idx_.set_next(0);
          phase_.set_next(to_u8(Phase::kEval));
        } else {
          idx_.set_next(static_cast<std::uint8_t>(next_idx));
        }
      }
      break;
    }

    case Phase::kEval: {
      eval_cycles_.set_next(eval_cycles_.read() + 1);
      if (sub_.read() == 0) {
        sub_.set_next(1);  // address presented; data arrives next cycle
        break;
      }
      sub_.set_next(0);
      const auto score = static_cast<std::uint8_t>(fitness_unit_.score.read());
      std::uint8_t best = best_fitness_.read();
      if (score > best) {
        best = score;
        best_fitness_.set_next(score);
        best_genome_.set_next(basis_rdata_mux_.read());
      }
      const unsigned next_idx = idx_.read() + 1u;
      if (next_idx >= params_.population_size) {
        idx_.set_next(0);
        if (best >= params_.target_fitness) {
          phase_.set_next(to_u8(Phase::kDone));
        } else {
          phase_.set_next(to_u8(Phase::kSelXover));
          start_pulse_.set_next(true);
        }
      } else {
        idx_.set_next(static_cast<std::uint8_t>(next_idx));
      }
      break;
    }

    case Phase::kSelXover:
      selxover_cycles_.set_next(selxover_cycles_.read() + 1);
      if (!start_pulse_.read() && selection_.done.read() &&
          crossover_.done.read()) {
        mut_count_.set_next(0);
        sub_.set_next(0);
        phase_.set_next(params_.mutations_per_generation > 0
                            ? to_u8(Phase::kMutate)
                            : to_u8(Phase::kSwap));
      }
      break;

    case Phase::kMutate: {
      mutate_cycles_.set_next(mutate_cycles_.read() + 1);
      const unsigned sub = sub_.read();
      if (sub == 0) {
        const std::uint16_t rand = rng_.word.read();
        const unsigned addr_bits = params_.addr_bits();
        mut_addr_.set_next(
            static_cast<std::uint8_t>(rand & ((1u << addr_bits) - 1)));
        // A 6-bit draw folded mod 36 by one conditional subtraction, the
        // hardware's cheap "modulo": bits 0..27 come up twice as often as
        // bits 28..35.
        unsigned bit = (rand >> addr_bits) & 0x3F;
        if (bit >= kGenomeBits) bit -= kGenomeBits;
        mut_bit_.set_next(static_cast<std::uint8_t>(bit));
        sub_.set_next(1);
      } else if (sub == 1) {
        sub_.set_next(2);  // intermediate RAM is capturing the word
      } else {
        sub_.set_next(0);
        const auto next_count =
            static_cast<std::uint8_t>(mut_count_.read() + 1);
        mut_count_.set_next(next_count);
        if (next_count >= params_.mutations_per_generation) {
          phase_.set_next(to_u8(Phase::kSwap));
        }
      }
      break;
    }

    case Phase::kSwap:
      bank_.set_next(!bank_.read());
      generation_.set_next(generation_.read() + 1);
      idx_.set_next(0);
      sub_.set_next(0);
      phase_.set_next(to_u8(Phase::kEval));
      break;

    case Phase::kDone:
      break;
  }
}

std::uint64_t GapTop::peek_basis(std::size_t index) const {
  return basis().peek(index);
}

std::uint64_t GapTop::peek_fitness_ram(std::size_t index) const {
  return fitness_ram_.peek(index);
}

rtl::ResourceTally GapTop::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  // Port muxes (three RAMs x addr/wdata/we) and phase decoding.
  t.lut4 += 3 * (params_.addr_bits() + kGenomeBits / 2) + 16;
  // The three per-phase cycle counters are simulation instrumentation
  // (the 1999 hardware had no performance counters); exclude their FFs
  // from the fabric estimate.
  t.ff -= eval_cycles_.width() + selxover_cycles_.width() +
          mutate_cycles_.width();
  return t;
}

}  // namespace leo::gap
