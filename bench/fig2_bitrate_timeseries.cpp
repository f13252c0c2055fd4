// Figure 2 (a-f): game-system bitrate vs time at a 25 Mb/s capacity with a
// competing TCP flow during [185 s, 370 s), one line per queue size
// (0.5x / 2x / 7x BDP), top row Cubic, bottom row BBR.
//
// Prints a compact sparkline rendering per panel and (with --csv) writes the
// full mean/CI series for plotting.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "fig2");

  using cgs::tcp::CcAlgo;

  std::printf(
      "Figure 2 — bitrate vs time, 25 Mb/s capacity, TCP flow in "
      "[185 s, 370 s), %d runs per line\n"
      "(each char ~7 s; markers: | = TCP start/stop)\n\n",
      args.runs);

  for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
    for (auto sys : cgs::core::kAllSystems) {
      std::printf("--- %s vs TCP %s ---\n", bench::short_name(sys),
                  std::string(cgs::tcp::to_string(cc)).c_str());
      for (double q : {0.5, 2.0, 7.0}) {
        auto sc = bench::make_scenario(sys, 25.0, q, cc, args.seed);
        cgs::core::SweepOptions opts;
        opts.runs = args.runs;
        opts.threads = args.threads;
        const auto res = cgs::core::run_condition(sc, opts);

        std::printf("  %3.1fx BDP game %s\n", q,
                    cgs::core::sparkline(res.game.mean).c_str());
        std::printf("           tcp %s\n",
                    cgs::core::sparkline(res.tcp.mean).c_str());
        std::printf(
            "           during-TCP game=%.1f tcp=%.1f Mb/s  "
            "response=%.0fs%s recovery=%.0fs%s\n",
            res.game_fair_mbps, res.tcp_fair_mbps, res.rr.response_s,
            res.rr.responded ? "" : "*", res.rr.recovery_s,
            res.rr.recovered ? "" : "*");

        if (args.csv) {
          const std::string path = args.csv_prefix + "_" +
                                   std::string(bench::short_name(sys)) + "_" +
                                   std::string(cgs::tcp::to_string(cc)) + "_q" +
                                   std::to_string(q) + ".csv";
          cgs::core::write_series_csv(path, std::chrono::milliseconds(500),
                                      res.game, &res.tcp);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("(* = level not reached within the measurement window)\n");
  if (args.csv) std::printf("CSV series written with prefix %s_\n",
                            args.csv_prefix.c_str());
  return 0;
}
