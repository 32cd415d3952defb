// Statistics utilities used for probes, delay measurement, and the
// experiment harnesses: running moments, percentile sketches, and
// time-binned series matching the paper's 30-second reporting windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esh {

// Numerically-stable (Welford) running mean / variance / min / max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exact percentile computation over retained samples. The experiments
// produce at most a few hundred thousand samples, so retaining them is
// cheaper and more faithful than a sketch.
class PercentileTracker {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  // Percentile by nearest-rank on the sorted samples; p in [0, 100].
  // Precondition: count() > 0.
  [[nodiscard]] double percentile(double p) const;

  // Returns the requested percentiles in one sort.
  [[nodiscard]] std::vector<double> percentiles(
      const std::vector<double>& ps) const;

  void reset() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

// Aggregates (time, value) observations into fixed-duration bins, reporting
// per-bin mean / stddev / min / max — the format of the paper's Figures 7-9
// ("averages, standard deviations, minimum, or maximum values observed over
// periods of 30 seconds").
class TimeBinnedSeries {
 public:
  explicit TimeBinnedSeries(SimDuration bin_width);

  void add(SimTime t, double value);

  struct Bin {
    SimTime start{};
    RunningStats stats;
  };

  // Bins in time order; empty bins are omitted.
  [[nodiscard]] const std::vector<Bin>& bins() const { return bins_; }
  [[nodiscard]] SimDuration bin_width() const { return bin_width_; }

 private:
  SimDuration bin_width_;
  std::vector<Bin> bins_;
};

// Formats a value with fixed precision; convenience for bench output.
std::string format_double(double v, int precision = 2);

}  // namespace esh
