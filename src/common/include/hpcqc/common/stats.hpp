#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hpcqc {

/// Streaming univariate statistics (Welford). Used by telemetry aggregation
/// and by the benchmark harnesses to summarize series without storing them.
class RunningStats {
public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean of a sample; 0 for an empty sample.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than two points.
double stddev(std::span<const double> xs);

/// Root mean square of a sample; 0 for an empty sample.
double rms(std::span<const double> xs);

/// Nearest-rank percentile, the one sample-percentile rule every report
/// uses: the value at 1-based rank ceil(q * n) of the sorted sample, with
/// the rank clamped to [1, n], so q = 0 gives the minimum and q = 1 the
/// maximum. Never interpolates. Throws on an empty sample or q outside
/// [0, 1]. Copies the sample.
double percentile(std::span<const double> xs, double q);

/// Median: the middle value for odd n, and for even n the mean of the two
/// middle values a, b computed as a * 0.5 + b * 0.5. Throws on an empty
/// sample. Copies and sorts.
double median(std::span<const double> xs);

/// Pearson correlation coefficient; 0 when either side is constant.
double correlation(std::span<const double> xs, std::span<const double> ys);

/// Fixed-width histogram over [lo, hi) with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins);

}  // namespace hpcqc
