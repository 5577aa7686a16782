#include "hpcqc/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"

namespace hpcqc {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double rms(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double q) {
  expects(!xs.empty(), "percentile: empty sample");
  expects(q >= 0.0 && q <= 1.0, "percentile: q outside [0,1]");
  std::vector<double> values(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index =
      std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median(std::span<const double> xs) {
  expects(!xs.empty(), "median: empty sample");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return sorted[mid - 1] * 0.5 + sorted[mid] * 0.5;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  expects(xs.size() == ys.size(), "correlation: size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  expects(bins > 0, "histogram: need at least one bin");
  expects(hi > lo, "histogram: hi must exceed lo");
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto bin = static_cast<long>((x - lo) / width);
    bin = std::clamp(bin, 0L, static_cast<long>(bins) - 1L);
    ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

}  // namespace hpcqc
