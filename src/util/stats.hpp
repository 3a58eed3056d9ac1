// stats.hpp — streaming statistics and histograms for experiment reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace leo::util {

/// Welford's online mean/variance plus min/max. Numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  // population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so totals always reconcile.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t i) const;
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Standard error of the mean, from the sample standard deviation; 0 for
/// fewer than two samples.
[[nodiscard]] double standard_error(const RunningStats& stats);

/// Half-width of the ~95% confidence interval on the mean (1.96 standard
/// errors; adequate for the n >= 10 trial counts the benches use).
[[nodiscard]] double confidence95(const RunningStats& stats);

/// Streaming Pearson correlation between paired samples — used to
/// measure how well rule fitness predicts walked distance (E4/E5).
class Correlation {
 public:
  void add(double x, double y) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  /// Pearson r in [-1, 1]; 0 when degenerate (n < 2 or zero variance).
  [[nodiscard]] double r() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
  double cov_ = 0.0;
};

}  // namespace leo::util
