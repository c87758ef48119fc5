#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace hbp::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double IntCounter::frequency(std::int64_t v) const {
  if (total_ == 0) return 0.0;
  const auto it = counts_.find(v);
  if (it == counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(total_);
}

double IntCounter::mean() const {
  if (total_ == 0) return 0.0;
  double s = 0.0;
  for (const auto& [v, c] : counts_) {
    s += static_cast<double>(v) * static_cast<double>(c);
  }
  return s / static_cast<double>(total_);
}

}  // namespace hbp::util
