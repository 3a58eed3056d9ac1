// selection.hpp — the parent-selection operator.
//
// The GAP uses tournament selection "because it does not use real numbers
// and divisions which are difficult to implement in logic systems" (§3.2):
// draw two individuals uniformly; with probability `threshold` keep the
// fitter one, else the weaker. It is the only selection operator:
// select(pop, rng) returns the index of the selected parent, drawing from
// util::Xoshiro256 inline so GaEngine's generation loop inlines it.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "ga/individual.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace leo::ga {

/// Binary tournament with a win probability, hardware-faithful: the
/// probability is an 8-bit threshold compared against a random byte, so
/// the paper's 0.8 quantizes to 205/256. Draws a, b, then the byte; a wins
/// a tie. Like the GAP's comparator and mux, the pick selects on two bits.
class TournamentSelection {
 public:
  explicit TournamentSelection(util::Prob8 win_probability)
      : win_probability_(win_probability) {}

  [[nodiscard]] std::size_t select(const Population& pop,
                                   util::Xoshiro256& rng) const {
    if (pop.empty()) throw std::invalid_argument("select: empty population");
    const std::size_t a = rng.next_below(pop.size());
    const std::size_t b = rng.next_below(pop.size());
    const bool a_better = pop[a].fitness >= pop[b].fitness;
    const bool better_wins = rng.next_bool_p8(win_probability_.raw());
    return a_better == better_wins ? a : b;
  }

 private:
  util::Prob8 win_probability_;
};

}  // namespace leo::ga
