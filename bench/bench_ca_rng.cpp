// E8 — the cellular-automaton random generator.
//
// Paper §3.2: the GAP's generator is a "one-dimensional cellular machine
// (XOR system)" producing "a new pseudo-random number for all genetic
// operators at each clock cycle", deliberately independent of the GA's
// execution. We characterize the 16-cell hybrid 90/150 machine: period,
// per-cell balance, serial correlation, byte uniformity, and throughput
// against a modern generator.
//
//   ./bench_ca_rng   # no scale knob: --iters is accepted and ignored
//
// Emits BENCH_ca_rng.json (shared runner; see bench_harness.hpp) with
// the period, balance and correlation as exact leo_bench_ca_rng_* values
// and the two throughputs as measured ones.
#include <chrono>
#include <cstdio>

#include "bench_harness.hpp"
#include "util/ca_rng.hpp"
#include "util/rng.hpp"

namespace leo::bench {

const char* bench_name() { return "ca_rng"; }

int bench_run(const Options&, Report& report) {
  using namespace leo::util;

  std::printf("E8 — the GAP's cellular-automaton random generator "
              "(16-cell hybrid 90/150)\n\n");

  // Period (exhaustive).
  {
    CaRng ca = CaRng::make_hortensius16(1);
    const std::uint64_t start = ca.state();
    std::uint64_t period = 0;
    do {
      ca.step();
      ++period;
    } while (ca.state() != start && period <= 70'000);
    std::printf("period: %llu (maximal = 2^16 - 1 = 65535) %s\n",
                static_cast<unsigned long long>(period),
                period == 65535 ? "— maximal-length, as required" : "");
    report.exact["leo_bench_ca_rng_period"] = static_cast<double>(period);
  }

  // Per-cell one-density over the full period.
  {
    CaRng ca = CaRng::make_hortensius16(1);
    std::uint64_t ones[16] = {};
    for (int i = 0; i < 65535; ++i) {
      const std::uint64_t s = ca.step();
      for (int b = 0; b < 16; ++b) ones[b] += (s >> b) & 1;
    }
    double worst = 0.0;
    for (const auto o : ones) {
      worst = std::max(worst,
                       std::abs(static_cast<double>(o) / 65535.0 - 0.5));
    }
    std::printf("per-cell one-density: worst deviation from 0.5 over the "
                "full period = %.5f\n", worst);
    report.exact["leo_bench_ca_rng_worst_cell_bias"] = worst;
  }

  // Byte uniformity (chi-square over low byte, one period).
  {
    CaRng ca = CaRng::make_hortensius16(1);
    std::uint64_t counts[256] = {};
    for (int i = 0; i < 65535; ++i) ++counts[ca.step() & 0xFF];
    double chi2 = 0.0;
    const double expected = 65535.0 / 256.0;
    for (const auto c : counts) {
      const double d = static_cast<double>(c) - expected;
      chi2 += d * d / expected;
    }
    std::printf("low-byte chi-square over one period: %.1f "
                "(exactly 0 expected: a maximal-length sequence visits "
                "every state once,\n  so each byte value appears exactly "
                "256 times — perfect equidistribution)\n", chi2);
    report.exact["leo_bench_ca_rng_low_byte_chi2"] = chi2;
  }

  // Serial correlation of successive words.
  {
    CaRng ca = CaRng::make_hortensius16(0x1234);
    std::uint64_t agree = 0;
    std::uint64_t prev = ca.step();
    constexpr int kSteps = 65'534;
    for (int i = 0; i < kSteps; ++i) {
      const std::uint64_t cur = ca.step();
      agree += static_cast<std::uint64_t>(
          16 - __builtin_popcountll(cur ^ prev));
      prev = cur;
    }
    const double agreement = static_cast<double>(agree) / (16.0 * kSteps);
    std::printf("successive-word bit agreement: %.4f (0.5 = uncorrelated)\n",
                agreement);
    report.exact["leo_bench_ca_rng_serial_bit_agreement"] = agreement;
  }

  // Throughput: CA vs xoshiro256**.
  {
    constexpr std::uint64_t kN = 20'000'000;
    CaRng ca = CaRng::make_hortensius16(99);
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < kN; ++i) sink ^= ca.step();
    const double ca_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    Xoshiro256 xo(99);
    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kN; ++i) sink ^= xo.next_u64();
    const double xo_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("throughput (%llu draws): CA %.0f M/s (16-bit words), "
                "xoshiro %.0f M/s (64-bit)%s\n",
                static_cast<unsigned long long>(kN), kN / ca_s / 1e6,
                kN / xo_s / 1e6, sink == 42 ? "!" : "");
    report.measured = {{"leo_bench_ca_rng_ca_draws_per_sec", kN / ca_s},
                       {"leo_bench_ca_rng_xoshiro_draws_per_sec", kN / xo_s}};
  }

  std::printf("\nreading: the CA is weak by modern software standards "
              "(short period, 16-bit words)\nbut free in CLBs, one fresh "
              "word per clock, and demonstrably unbiased — exactly\nwhat "
              "the GAP needs. The software GA uses xoshiro; the hardware "
              "GAP uses this CA;\nboth converge (E1).\n");
  return 0;
}

}  // namespace leo::bench
