#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace esh {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ > 0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ > 0 ? min_ : 0.0; }

double RunningStats::max() const { return count_ > 0 ? max_ : 0.0; }

void PercentileTracker::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::percentile(double p) const {
  if (samples_.empty()) {
    throw std::logic_error{"percentile: no samples"};
  }
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument{"percentile: p out of [0, 100]"};
  }
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<double> PercentileTracker::percentiles(
    const std::vector<double>& ps) const {
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(percentile(p));
  return out;
}

TimeBinnedSeries::TimeBinnedSeries(SimDuration bin_width)
    : bin_width_(bin_width) {
  if (bin_width <= SimDuration::zero()) {
    throw std::invalid_argument{"TimeBinnedSeries: bin width must be > 0"};
  }
}

void TimeBinnedSeries::add(SimTime t, double value) {
  const auto bin_index = t.count() / bin_width_.count();
  const SimTime start{bin_index * bin_width_.count()};
  if (bins_.empty() || bins_.back().start < start) {
    bins_.push_back(Bin{start, {}});
  } else if (bins_.back().start > start) {
    throw std::logic_error{"TimeBinnedSeries: observations must arrive in time order"};
  }
  bins_.back().stats.add(value);
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace esh
