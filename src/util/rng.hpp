// rng.hpp — deterministic pseudo-random sources.
//
// Everything stochastic in this repository draws from a RandomSource so
// that experiments are reproducible from a single seed. Two engines are
// provided: SplitMix64 (seed expansion) and Xoshiro256** (the workhorse).
// The hardware-faithful cellular-automaton generator used by the GAP lives
// in ca_rng.hpp and also implements RandomSource.
//
// Xoshiro256 is final and defines next_u64/next_below/next_bool_p8 inline,
// so code holding a concrete Xoshiro256& (the software GA) draws without a
// virtual call. Its draws are identical to the same calls made through
// RandomSource&: both share one rejection loop (detail::next_below).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "util/bitvec.hpp"

namespace leo::util {

namespace detail {

/// Throws std::invalid_argument for next_below(0); kept out of line so
/// the inline draw stays small.
[[noreturn]] void throw_zero_bound();

/// Uniform integer in [0, bound) from `gen`'s next_u64(). Bitmask
/// rejection: draw ceil(log2(bound)) bits until the value lands in range.
/// Expected < 2 draws; unbiased; avoids 128-bit arithmetic.
template <class Gen>
std::uint64_t next_below(Gen& gen, std::uint64_t bound) {
  if (bound == 0) throw_zero_bound();
  const std::uint64_t max = bound - 1;
  if (max == 0) return 0;
  const std::uint64_t mask = ~std::uint64_t{0} >> std::countl_zero(max);
  for (;;) {
    const std::uint64_t v = gen.next_u64() & mask;
    if (v < bound) return v;
  }
}

}  // namespace detail

/// Abstract source of uniform random bits.
class RandomSource {
 public:
  virtual ~RandomSource() = default;

  /// Next 64 uniform bits.
  virtual std::uint64_t next_u64() = 0;

  /// Uniform integer in [0, bound). bound must be > 0 (throws
  /// std::invalid_argument otherwise).
  std::uint64_t next_below(std::uint64_t bound) {
    return detail::next_below(*this, bound);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double();

  /// Bernoulli draw: true with probability p8/256. This mirrors the
  /// hardware comparison "random byte < threshold" used by the GAP, so the
  /// software GA and hardware GAP share probability semantics exactly.
  bool next_bool_p8(std::uint8_t p8) {
    return static_cast<std::uint8_t>(next_u64() & 0xFF) < p8;
  }

  /// Uniform random bit vector of the given width.
  BitVec next_bits(std::size_t width);
};

/// SplitMix64 — tiny, well-distributed stream used to seed other engines.
class SplitMix64 final : public RandomSource {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next_u64() override;

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna) — fast, 256-bit state, passes BigCrush.
class Xoshiro256 final : public RandomSource {
 public:
  /// Full generator state; exposed so a run can be checkpointed and
  /// resumed bit-for-bit (serve::Snapshot stores these four words).
  using State = std::array<std::uint64_t, 4>;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  std::uint64_t next_u64() override {
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

  /// RandomSource::next_below and next_bool_p8 on the concrete stream
  /// (same draws, no virtual call).
  std::uint64_t next_below(std::uint64_t bound) {
    return detail::next_below(*this, bound);
  }
  bool next_bool_p8(std::uint8_t p8) {
    return static_cast<std::uint8_t>(next_u64() & 0xFF) < p8;
  }

  /// Equivalent to 2^128 next_u64() calls; used to derive independent
  /// per-thread streams for parallel experiment sweeps.
  void long_jump() noexcept;

  [[nodiscard]] State state() const noexcept { return s_; }
  /// Restores a previously captured state. The all-zero state is the
  /// generator's fixed point and is rejected.
  void set_state(const State& s);

 private:
  State s_;
};

}  // namespace leo::util
