#include "util/rng.hpp"

#include <stdexcept>

namespace leo::util {

namespace detail {
void throw_zero_bound() {
  throw std::invalid_argument("next_below: bound == 0");
}
}  // namespace detail

double RandomSource::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

BitVec RandomSource::next_bits(std::size_t width) {
  BitVec v(width);
  std::size_t done = 0;
  while (done < width) {
    const std::size_t chunk = std::min<std::size_t>(64, width - done);
    v.set_slice_u64(done, chunk, next_u64());
    done += chunk;
  }
  return v;
}

std::uint64_t SplitMix64::next_u64() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

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

void Xoshiro256::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (void)next_u64();
    }
  }
  s_ = acc;
}

}  // namespace leo::util
