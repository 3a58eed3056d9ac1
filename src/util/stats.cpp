#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leo::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi) || bins == 0) {
    throw std::invalid_argument("Histogram: need lo < hi and bins > 0");
  }
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const { return counts_.at(i); }

void Correlation::add(double x, double y) noexcept {
  ++n_;
  const double dx = x - mean_x_;
  mean_x_ += dx / static_cast<double>(n_);
  const double dy = y - mean_y_;
  mean_y_ += dy / static_cast<double>(n_);
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy * (y - mean_y_);
  cov_ += dx * (y - mean_y_);
}

double Correlation::r() const noexcept {
  if (n_ < 2 || m2x_ <= 0.0 || m2y_ <= 0.0) return 0.0;
  return cov_ / std::sqrt(m2x_ * m2y_);
}

double confidence95(const RunningStats& stats) {
  if (stats.count() < 2) return 0.0;
  // 1.96 * sqrt(sample variance / n), with sample variance
  // = variance * n / (n - 1).
  return 1.96 * stats.stddev() /
         std::sqrt(static_cast<double>(stats.count() - 1));
}

}  // namespace leo::util
