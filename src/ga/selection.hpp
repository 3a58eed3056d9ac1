// selection.hpp — parent-selection operators.
//
// The GAP uses tournament selection "because it does not use real numbers
// and divisions which are difficult to implement in logic systems" (§3.2):
// draw two individuals uniformly; with probability `threshold` keep the
// fitter one, else the weaker. Alternatives (roulette, truncation) are
// provided as software baselines for the ablation benches.
//
// The operators form a closed set (the Selection variant): each is a
// concrete class whose select(pop, rng) returns the index of the selected
// parent, drawing from the concrete Xoshiro256 so GaEngine's generation
// loop inlines it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <variant>
#include <vector>

#include "ga/individual.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace leo::ga {

/// Binary tournament with a win probability, hardware-faithful: the
/// probability is an 8-bit threshold compared against a random byte, so
/// the paper's 0.8 quantizes to 205/256.
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
    const std::size_t better = a_better ? a : b;
    const std::size_t worse = a_better ? b : a;
    return rng.next_bool_p8(win_probability_.raw()) ? better : worse;
  }
  [[nodiscard]] util::Prob8 win_probability() const noexcept {
    return win_probability_;
  }

 private:
  util::Prob8 win_probability_;
};

/// Fitness-proportionate (roulette-wheel) selection. Needs the arithmetic
/// the paper avoided in hardware; included as a software baseline.
class RouletteSelection {
 public:
  [[nodiscard]] std::size_t select(const Population& pop,
                                   util::Xoshiro256& rng) const {
    if (pop.empty()) throw std::invalid_argument("select: empty population");
    std::uint64_t total = 0;
    for (const auto& ind : pop) total += ind.fitness;
    if (total == 0) return rng.next_below(pop.size());
    std::uint64_t ticket = rng.next_below(total);
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (ticket < pop[i].fitness) return i;
      ticket -= pop[i].fitness;
    }
    return pop.size() - 1;  // unreachable; guards rounding
  }
};

/// Uniform choice among the best `fraction` of the population.
class TruncationSelection {
 public:
  explicit TruncationSelection(double fraction) : fraction_(fraction) {
    if (!(fraction > 0.0) || fraction > 1.0) {
      throw std::invalid_argument("TruncationSelection: fraction in (0, 1]");
    }
  }

  [[nodiscard]] std::size_t select(const Population& pop,
                                   util::Xoshiro256& rng) const {
    if (pop.empty()) throw std::invalid_argument("select: empty population");
    const auto keep = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(fraction_ * static_cast<double>(pop.size())));
    // Rank indices by fitness (descending) and draw uniformly from the top.
    std::vector<std::size_t> order(pop.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(keep) - 1,
                     order.end(), [&](std::size_t x, std::size_t y) {
                       return pop[x].fitness > pop[y].fitness;
                     });
    return order[rng.next_below(keep)];
  }

 private:
  double fraction_;
};

/// The selection operators GaEngine can run.
using Selection =
    std::variant<TournamentSelection, RouletteSelection, TruncationSelection>;

}  // namespace leo::ga
