// rng.hpp — deterministic pseudo-random generators.
//
// Everything stochastic in this repository is reproducible from a single
// seed. Two engines are provided: SplitMix64 (seed expansion) and
// Xoshiro256** (the workhorse, and the one generator with bounded draws).
// The hardware-faithful cellular-automaton generator used by the GAP lives
// in ca_rng.hpp.
//
// Both are plain final classes whose draws are inline member functions, so
// every draw inlines at its call site.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace leo::util {

/// SplitMix64 — tiny, well-distributed stream used to seed other engines.
class SplitMix64 final {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniform bits.
  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna) — fast, 256-bit state, passes BigCrush.
class Xoshiro256 final {
 public:
  /// Full generator state; exposed so a run can be checkpointed and
  /// resumed bit-for-bit (serve::Snapshot stores these four words).
  using State = std::array<std::uint64_t, 4>;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  /// Next 64 uniform bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); throws std::invalid_argument for
  /// bound == 0. Bitmask rejection: draw ceil(log2(bound)) bits until the
  /// value lands in range. Expected < 2 draws; unbiased; avoids 128-bit
  /// arithmetic. bound == 1 returns 0 without drawing.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) throw_zero_bound();
    const std::uint64_t max = bound - 1;
    if (max == 0) return 0;
    const std::uint64_t mask = ~std::uint64_t{0} >> std::countl_zero(max);
    for (;;) {
      const std::uint64_t v = next_u64() & mask;
      if (v < bound) return v;
    }
  }

  /// Bernoulli draw: true with probability p8/256. This mirrors the
  /// hardware comparison "random byte < threshold" used by the GAP, so the
  /// software GA and hardware GAP share probability semantics exactly.
  bool next_bool_p8(std::uint8_t p8) noexcept {
    return static_cast<std::uint8_t>(next_u64() & 0xFF) < p8;
  }

  [[nodiscard]] State state() const noexcept { return s_; }
  /// Restores a previously captured state. The all-zero state is the
  /// generator's fixed point and is rejected.
  void set_state(const State& s);

 private:
  /// Kept out of line so the inline draw stays small.
  [[noreturn]] static void throw_zero_bound();

  State s_;
};

}  // namespace leo::util
