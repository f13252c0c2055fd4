// Quickstart: simulate one game-streaming session competing with a TCP flow
// and print the headline metrics.
//
//   ./quickstart [stadia|geforce|luna] [cubic|bbr] [capacity_mbps] [queue_x]
//
// Defaults reproduce the paper's centre cell: Stadia vs Cubic, 25 Mb/s,
// 2x-BDP drop-tail queue, 3 runs.
#include <cstdio>
#include <cstring>
#include <string>

#include "cgstream.hpp"

namespace {

cgs::stream::GameSystem parse_system(const char* s) {
  using cgs::stream::GameSystem;
  if (std::strcmp(s, "geforce") == 0) return GameSystem::kGeForce;
  if (std::strcmp(s, "luna") == 0) return GameSystem::kLuna;
  return GameSystem::kStadia;
}

cgs::tcp::CcAlgo parse_cc(const char* s) {
  using cgs::tcp::CcAlgo;
  if (std::strcmp(s, "bbr") == 0) return CcAlgo::kBbr;
  if (std::strcmp(s, "reno") == 0) return CcAlgo::kReno;
  if (std::strcmp(s, "vegas") == 0) return CcAlgo::kVegas;
  return CcAlgo::kCubic;
}

}  // namespace

int main(int argc, char** argv) {
  cgs::core::Scenario sc;
  sc.system = argc > 1 ? parse_system(argv[1]) : cgs::stream::GameSystem::kStadia;
  sc.tcp_algo = argc > 2 ? parse_cc(argv[2]) : cgs::tcp::CcAlgo::kCubic;
  sc.capacity = cgs::Bandwidth::mbps(argc > 3 ? std::stod(argv[3]) : 25.0);
  sc.queue_bdp_mult = argc > 4 ? std::stod(argv[4]) : 2.0;

  std::printf("scenario: %s\n", sc.label().c_str());
  std::printf("queue: %lld bytes (%.1fx BDP)\n\n",
              static_cast<long long>(sc.queue_bytes().bytes()),
              sc.queue_bdp_mult);

  cgs::core::SweepOptions opts;
  opts.runs = 3;
  const auto res = cgs::core::run_condition(sc, opts);

  std::printf("game bitrate (Mb/s), one char per ~7s:\n  %s\n",
              cgs::core::sparkline(res.game.mean).c_str());
  std::printf("tcp bitrate (Mb/s):\n  %s\n\n",
              cgs::core::sparkline(res.tcp.mean).c_str());

  const cgs::Time t0 = std::chrono::seconds(0);
  std::printf("steady game bitrate (125-185s): %s Mb/s\n",
              cgs::core::fmt_mean_sd(res.steady_mean_mbps,
                                     res.steady_sd_mbps).c_str());
  std::printf("fairness (game-tcp)/capacity  : %+.2f\n", res.fairness_mean);
  std::printf("response time                 : %.1f s%s\n", res.rr.response_s,
              res.rr.responded ? "" : " (never settled)");
  std::printf("recovery time                 : %.1f s%s\n", res.rr.recovery_s,
              res.rr.recovered ? "" : " (never recovered)");
  std::printf("RTT during competition        : %s ms\n",
              cgs::core::fmt_mean_sd(res.rtt_mean_ms, res.rtt_sd_ms).c_str());
  std::printf("frame rate during competition : %s f/s\n",
              cgs::core::fmt_mean_sd(res.fps_mean, res.fps_sd).c_str());
  std::printf("game packet loss (competition): %.3f%%\n",
              res.loss_mean * 100.0);
  (void)t0;
  return 0;
}
