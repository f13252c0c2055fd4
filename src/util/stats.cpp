#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace cgs {

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineSeries::add(std::span<const double> series) {
  if (runs_ == 0) {
    len_ = series.size();
    stats_.resize(len_);
  } else {
    len_ = std::min(len_, series.size());
  }
  for (std::size_t i = 0; i < len_; ++i) stats_[i].add(series[i]);
  ++runs_;
}

PercentileDigest::PercentileDigest(double lo, double hi, std::size_t bins)
    : lo_(lo),
      hi_(hi > lo ? hi : lo + 1.0),
      width_((hi_ - lo_) / double(bins == 0 ? 1 : bins)),
      bins_(bins == 0 ? 1 : bins, 0) {}

void PercentileDigest::add(double x) {
  const double v = std::clamp(x, lo_, hi_);
  auto b = std::size_t((v - lo_) / width_);
  if (b >= bins_.size()) b = bins_.size() - 1;
  ++bins_[b];
  ++n_;
  sum_ += v;
}

double PercentileDigest::percentile(double p) const {
  if (n_ == 0) return 0.0;
  // Rank of the wanted sample (0-based), then walk the histogram.
  const double rank = std::clamp(p, 0.0, 1.0) * double(n_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b] == 0) continue;
    const auto in_bin = double(bins_[b]);
    if (rank < double(seen) + in_bin) {
      // Interpolate linearly through the bin's width by the rank's
      // position among the bin's samples.
      const double frac = (rank - double(seen) + 0.5) / in_bin;
      return lo_ + (double(b) + std::clamp(frac, 0.0, 1.0)) * width_;
    }
    seen += bins_[b];
  }
  return hi_;
}

double t_critical_95(std::size_t n) {
  if (n < 2) return 0.0;
  const std::size_t df = n - 1;
  // Two-sided 95% t-table; beyond 30 dof the normal value is within 2%.
  static constexpr std::array<double, 31> kTable = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (df < kTable.size()) return kTable[df];
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.960;
}

double ci95_halfwidth(const OnlineStats& s) {
  if (s.count() < 2) return 0.0;
  return t_critical_95(s.count()) * s.stddev() / std::sqrt(double(s.count()));
}

double mean_of(std::span<const double> xs) {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double stddev_of(std::span<const double> xs) {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.stddev();
}

double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double pos = std::clamp(p, 0.0, 1.0) * double(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - double(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace cgs
