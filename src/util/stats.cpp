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

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
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

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const {
  return bin_lo(i) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<double>(total_) * q;
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      return 0.5 * (bin_lo(i) + bin_hi(i));
    }
  }
  return hi_;
}

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
  return 1.96 * std::sqrt(stats.sample_variance() /
                          static_cast<double>(stats.count()));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

}  // namespace leo::util
