#include "util/ca_rng.hpp"

#include <stdexcept>

namespace leo::util {

CaRng::CaRng(unsigned width, std::uint64_t rule150_mask, std::uint64_t seed)
    : width_(width),
      mask_(width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1),
      rule150_(rule150_mask & mask_),
      state_(seed & mask_) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("CaRng: width must be in [1, 64]");
  }
  if (state_ == 0) state_ = 1;  // all-zero is the CA's absorbing state
}

CaRng CaRng::make_hortensius16(std::uint64_t seed) {
  // Hybrid 90/150 rule vector for n = 16 with maximal period 2^16 - 1,
  // in the spirit of the tables of Hortensius, McLeod & Card (IEEE Trans.
  // CAD 1989). The vector below (cells 0, 2 and 4 run rule 150, the rest
  // rule 90) was found by exhaustive search over all 2^16 hybrids and is
  // re-verified exhaustively in test_ca_rng.cpp: it must yield period 65535.
  return CaRng(16, kHortensius16Rule, seed);
}

}  // namespace leo::util
