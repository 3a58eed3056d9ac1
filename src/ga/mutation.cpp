#include "ga/mutation.hpp"

#include <stdexcept>

namespace leo::ga {

namespace {
void check_width(std::size_t width) {
  if (width == 0 || width > kMaxGenomeBits) {
    throw std::invalid_argument("mutation: width must be in [1, 64]");
  }
}
}  // namespace

void ExactCountMutation::apply(Population& pop, std::size_t width,
                               util::RandomSource& rng) const {
  check_width(width);
  if (pop.empty()) return;
  const std::size_t total_bits = pop.size() * width;
  for (unsigned i = 0; i < count_; ++i) {
    const std::uint64_t pos = rng.next_below(total_bits);
    pop[pos / width].genome.bits ^= std::uint64_t{1} << (pos % width);
  }
}

void PerBitMutation::apply(Population& pop, std::size_t width,
                           util::RandomSource& rng) const {
  check_width(width);
  for (auto& ind : pop) {
    for (std::size_t bit = 0; bit < width; ++bit) {
      if (rng.next_bool_p8(rate_.raw())) {
        ind.genome.bits ^= std::uint64_t{1} << bit;
      }
    }
  }
}

}  // namespace leo::ga
