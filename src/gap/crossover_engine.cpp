#include "gap/crossover_engine.hpp"

#include "genome/gait_genome.hpp"

namespace leo::gap {

namespace {
constexpr auto kGenomeBits = static_cast<unsigned>(genome::kGenomeBits);
}  // namespace

CrossoverEngine::CrossoverEngine(rtl::Module* parent, std::string name,
                                 const GapParams& params,
                                 const rtl::Wire<std::uint16_t>& rand_word,
                                 const rtl::Wire<std::uint64_t>& basis_rdata,
                                 PairFifo& fifo)
    : rtl::Module(parent, std::move(name)),
      start(this, "start", 1),
      enable(this, "enable", 1),
      busy(this, "busy", 1),
      done(this, "done", 1),
      basis_addr(this, "basis_addr", params.addr_bits()),
      inter_addr(this, "inter_addr", params.addr_bits()),
      inter_we(this, "inter_we", 1),
      inter_wdata(this, "inter_wdata", kGenomeBits),
      params_(params),
      rand_word_(&rand_word),
      basis_rdata_(&basis_rdata),
      fifo_(&fifo),
      state_(this, "state", 3),
      parent_a_idx_(this, "parent_a_idx", params.addr_bits()),
      parent_b_idx_(this, "parent_b_idx", params.addr_bits()),
      parent_a_(this, "parent_a", kGenomeBits),
      parent_b_(this, "parent_b", kGenomeBits),
      do_cross_(this, "do_cross", 1),
      cut_(this, "cut", 6),
      out_index_(this, "out_index", params.addr_bits()),
      pairs_done_(this, "pairs_done", 8) {}

std::uint64_t CrossoverEngine::splice(std::uint64_t head, std::uint64_t tail,
                                      unsigned cut) const noexcept {
  const std::uint64_t low_mask = (std::uint64_t{1} << cut) - 1;
  return ((head & low_mask) | (tail & ~low_mask)) & genome::kGenomeMask;
}

void CrossoverEngine::evaluate() {
  const auto state = static_cast<State>(state_.read());
  busy.write(state != State::kIdle && state != State::kDone);
  done.write(state == State::kDone);

  // Pop request: consume a pair the moment one is visible (head of the
  // FIFO is combinational), but only while enabled and hungry.
  const bool want_pair = state == State::kIdle && enable.read() &&
                         pairs_done_.read() < params_.population_size / 2 &&
                         !fifo_->empty.read();
  fifo_->pop.write(want_pair);

  switch (state) {
    case State::kReadA:
      basis_addr.write(parent_a_idx_.read());
      break;
    case State::kReadB:
      basis_addr.write(parent_b_idx_.read());
      break;
    default:
      basis_addr.write(0);
      break;
  }

  // Child data is a pure function of the parent registers and the cut:
  // child 0 in kWriteA, child 1 in kWriteB.
  const unsigned cut = cut_.read();
  const bool crossing = do_cross_.read();
  if (state == State::kWriteA && enable.read()) {
    inter_addr.write(out_index_.read());
    inter_we.write(true);
    inter_wdata.write(crossing ? splice(parent_a_.read(), parent_b_.read(), cut)
                               : parent_a_.read());
  } else if (state == State::kWriteB && enable.read()) {
    inter_addr.write(out_index_.read());
    inter_we.write(true);
    inter_wdata.write(crossing ? splice(parent_b_.read(), parent_a_.read(), cut)
                               : parent_b_.read());
  } else {
    inter_addr.write(0);
    inter_we.write(false);
    inter_wdata.write(0);
  }
}

void CrossoverEngine::clock_edge() {
  const auto state = static_cast<State>(state_.read());
  if (!enable.read() && state != State::kIdle && state != State::kDone) {
    return;  // gated off mid-pair: hold
  }

  switch (state) {
    case State::kIdle: {
      if (start.read()) {
        pairs_done_.set_next(0);
        out_index_.set_next(0);
      }
      // The pop request asserted in evaluate() succeeds at this edge.
      if (fifo_->pop.read() && !fifo_->empty.read()) {
        const std::uint16_t pair = fifo_->out_pair.read();
        const std::uint16_t addr_mask =
            static_cast<std::uint16_t>((1u << params_.addr_bits()) - 1);
        parent_a_idx_.set_next(static_cast<std::uint8_t>(pair & addr_mask));
        parent_b_idx_.set_next(static_cast<std::uint8_t>(
            (pair >> params_.addr_bits()) & addr_mask));
        state_.set_next(static_cast<std::uint8_t>(State::kReadA));
      }
      break;
    }

    case State::kReadA:
      state_.set_next(static_cast<std::uint8_t>(State::kReadB));
      break;

    case State::kReadB:
      parent_a_.set_next(basis_rdata_->read());
      state_.set_next(static_cast<std::uint8_t>(State::kDecide));
      break;

    case State::kDecide: {
      parent_b_.set_next(basis_rdata_->read());
      const std::uint16_t rand = rand_word_->read();
      do_cross_.set_next(static_cast<std::uint8_t>(rand & 0xFF) <
                         params_.crossover_threshold.raw());
      // Cut in [1, 35]: 6 random bits folded mod 35 by one conditional
      // subtraction (the hardware's cheap "modulo"; cuts 1..29 come up
      // twice as often as cuts 30..35, like the real thing would).
      unsigned cut = (rand >> 8) & 0x3F;
      if (cut >= kGenomeBits - 1) cut -= kGenomeBits - 1;
      cut_.set_next(static_cast<std::uint8_t>(cut + 1));
      state_.set_next(static_cast<std::uint8_t>(State::kWriteA));
      break;
    }

    case State::kWriteA:
      out_index_.set_next(static_cast<std::uint8_t>(out_index_.read() + 1));
      state_.set_next(static_cast<std::uint8_t>(State::kWriteB));
      break;

    case State::kWriteB: {
      out_index_.set_next(static_cast<std::uint8_t>(out_index_.read() + 1));
      const auto next_pairs =
          static_cast<std::uint8_t>(pairs_done_.read() + 1);
      pairs_done_.set_next(next_pairs);
      state_.set_next(static_cast<std::uint8_t>(
          next_pairs >= params_.population_size / 2 ? State::kDone
                                                    : State::kIdle));
      break;
    }

    case State::kDone:
      if (start.read()) {
        pairs_done_.set_next(0);
        out_index_.set_next(0);
        state_.set_next(static_cast<std::uint8_t>(State::kIdle));
      }
      break;
  }
}

rtl::ResourceTally CrossoverEngine::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += kGenomeBits + 12;  // splice muxes + cut decode + control
  return t;
}

}  // namespace leo::gap
