#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace cgs::core {

namespace {

struct WindowStats {
  double mean = 0.0;
  double sd = 0.0;
};

WindowStats window_stats(const std::vector<double>& series, Time interval,
                         Time from, Time to) {
  OnlineStats s;
  const auto lo = std::size_t(from.count() / interval.count());
  const auto hi =
      std::min(std::size_t(to.count() / interval.count()), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return {s.mean(), s.stddev()};
}

/// First time in [from, limit) at which the trailing `smooth_n`-sample mean
/// of `series` lies within [level - band, level + band]; negative if never.
double first_entry_s(const std::vector<double>& series, Time interval,
                     Time from, Time limit, double level, double band,
                     int smooth_n) {
  const auto lo = std::size_t(from.count() / interval.count());
  const auto hi =
      std::min(std::size_t(limit.count() / interval.count()), series.size());
  for (std::size_t i = lo; i < hi; ++i) {
    OnlineStats s;
    for (int k = 0; k < smooth_n && i >= std::size_t(k); ++k) {
      s.add(series[i - std::size_t(k)]);
    }
    const double v = s.mean();
    if (std::abs(v - level) <= band) {
      return to_seconds(Time(std::int64_t(i) * interval.count()) - from);
    }
  }
  return -1.0;
}

}  // namespace

double fairness_ratio(const std::vector<double>& game_mbps,
                      const std::vector<double>& tcp_mbps,
                      Time sample_interval, Bandwidth capacity,
                      const AnalysisWindows& w) {
  const WindowStats g =
      window_stats(game_mbps, sample_interval, w.fairness_from, w.fairness_to);
  const WindowStats t =
      window_stats(tcp_mbps, sample_interval, w.fairness_from, w.fairness_to);
  const double cap = capacity.megabits_per_sec();
  if (cap <= 0.0) return 0.0;
  return std::clamp((g.mean - t.mean) / cap, -1.0, 1.0);
}

ResponseRecovery response_recovery(const std::vector<double>& game_mbps,
                                   Time sample_interval, Time tcp_start,
                                   Time tcp_stop, const AnalysisWindows& w) {
  constexpr int kSmoothSamples = 5;  // 2.5 s trailing window at 0.5 s buckets

  const WindowStats original = window_stats(game_mbps, sample_interval,
                                            w.original_from, w.original_to);
  const WindowStats settled = window_stats(game_mbps, sample_interval,
                                           w.settled_from, w.settled_to);

  ResponseRecovery rr;

  // Guard: an sd of ~0 makes the band unreachable; floor it at 5% of level.
  const double resp_band = std::max(settled.sd, 0.05 * settled.mean);
  const double resp = first_entry_s(game_mbps, sample_interval, tcp_start,
                                    tcp_stop, settled.mean, resp_band,
                                    kSmoothSamples);
  const double resp_limit = to_seconds(tcp_stop - tcp_start);
  rr.responded = resp >= 0.0;
  rr.response_s = rr.responded ? resp : resp_limit;

  const double rec_band = std::max(original.sd, 0.05 * original.mean);
  const Time rec_limit_t = tcp_stop + w.recovery_limit;
  const double rec = first_entry_s(game_mbps, sample_interval, tcp_stop,
                                   rec_limit_t, original.mean, rec_band,
                                   kSmoothSamples);
  rr.recovered = rec >= 0.0;
  rr.recovery_s = rr.recovered ? rec : to_seconds(w.recovery_limit);
  return rr;
}

double adaptiveness(const ResponseRecovery& rr, double c_max_s,
                    double e_max_s) {
  const double c = c_max_s > 0.0 ? rr.response_s / c_max_s : 0.0;
  const double e = e_max_s > 0.0 ? rr.recovery_s / e_max_s : 0.0;
  return 0.5 * (1.0 - c) + 0.5 * (1.0 - e);
}

double harm_more_is_better(double solo, double with_competitor) {
  if (solo <= 0.0) return 0.0;
  return std::clamp((solo - with_competitor) / solo, 0.0, 1.0);
}

double harm_less_is_better(double solo, double with_competitor) {
  if (with_competitor <= 0.0) return 0.0;
  return std::clamp((with_competitor - solo) / with_competitor, 0.0, 1.0);
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sq = 0.0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 0.0;
  return sum * sum / (double(xs.size()) * sq);
}

std::vector<double> flow_throughputs_mbps(const RunTrace& t, Time from,
                                          Time to) {
  std::vector<double> out;
  out.reserve(t.flows.size());
  for (const FlowTrace& f : t.flows) {
    if (f.kind == FlowKind::kPing) continue;
    out.push_back(t.mean_bitrate_mbps(f.mbps, from, to));
  }
  return out;
}

double jain_index(const RunTrace& t, const AnalysisWindows& w) {
  return jain_index(flow_throughputs_mbps(t, w.fairness_from, w.fairness_to));
}

}  // namespace cgs::core
