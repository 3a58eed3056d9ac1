#include "util/rng.hpp"

#include <stdexcept>

namespace leo::util {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next_u64();
  // A state of all zeros is the one fixed point; the SplitMix expansion
  // cannot produce it for any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

void Xoshiro256::set_state(const State& s) {
  if ((s[0] | s[1] | s[2] | s[3]) == 0) {
    throw std::invalid_argument("Xoshiro256::set_state: all-zero state");
  }
  s_ = s;
}

void Xoshiro256::throw_zero_bound() {
  throw std::invalid_argument("next_below: bound == 0");
}

}  // namespace leo::util
