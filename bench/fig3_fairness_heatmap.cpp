// Figure 3: heatmaps of the bitrate-difference ratio
// (game - TCP) / capacity over 220-370 s, for each game system (blocks),
// capacity (rows) x queue size (columns), competing with TCP Cubic (top
// half) and TCP BBR (bottom half).
//
// The full 2x3x3x3 grid runs as ONE sweep on the shared worker
// pool: late stragglers in one cell overlap with the next cell's runs
// instead of idling a per-cell fork/join pool.
//
// Paper shape targets (EXPERIMENTS.md): vs Cubic Stadia warm (hottest
// 0.5x/35), Luna near-fair, GeForce all-cool; vs BBR GeForce cooler still,
// Luna all-cool (coolest 0.5x/35), Stadia near-fair but warmer at 7x.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "fig3");

  using cgs::stream::GameSystem;
  using cgs::tcp::CcAlgo;

  const std::vector<double> caps = {35.0, 25.0, 15.0};
  const std::vector<double> queues = {0.5, 2.0, 7.0};
  const CcAlgo ccs[] = {CcAlgo::kCubic, CcAlgo::kBbr};

  std::printf(
      "Figure 3 — ratio of bitrate difference (game - TCP) / capacity, "
      "window 220-370 s, %d runs per cell\n\n",
      args.runs);

  // Flatten the whole grid, render-loop order (cc, system, cap, queue).
  std::vector<cgs::core::SweepCell> cells;
  for (CcAlgo cc : ccs) {
    for (GameSystem sys : cgs::core::kAllSystems) {
      for (double cap : caps) {
        for (double q : queues) {
          cells.push_back(
              {bench::cell_label(sys, cap, q, cc),
               bench::make_scenario(sys, cap, q, cc, args.seed)});
        }
      }
    }
  }
  cgs::core::SweepOptions opts;
  opts.runs = args.runs;
  opts.threads = args.threads;
  const auto sweep = cgs::core::run_sweep(std::move(cells), opts);

  std::unique_ptr<cgs::CsvWriter> csv;
  if (args.csv) {
    csv = std::make_unique<cgs::CsvWriter>(args.csv_prefix + "_fairness.csv");
    csv->header({"system", "cc", "capacity_mbps", "queue_mult",
                 "fairness_mean", "fairness_sd", "game_mbps", "tcp_mbps",
                 "loss"});
  }

  std::size_t idx = 0;
  for (CcAlgo cc : ccs) {
    std::printf("=== competing flow: TCP %s ===\n",
                std::string(cgs::tcp::to_string(cc)).c_str());
    for (GameSystem sys : cgs::core::kAllSystems) {
      std::vector<std::vector<double>> grid(
          caps.size(), std::vector<double>(queues.size(), 0.0));
      for (std::size_t r = 0; r < caps.size(); ++r) {
        for (std::size_t c = 0; c < queues.size(); ++c) {
          const auto& res = sweep.results[idx++];
          grid[r][c] = res.fairness_mean;
          if (csv) {
            csv->row({std::string(cgs::stream::to_string(sys)),
                      std::string(cgs::tcp::to_string(cc)),
                      std::to_string(caps[r]), std::to_string(queues[c]),
                      std::to_string(res.fairness_mean),
                      std::to_string(res.fairness_sd),
                      std::to_string(res.game_fair_mbps),
                      std::to_string(res.tcp_fair_mbps),
                      std::to_string(res.loss_mean)});
          }
        }
      }
      std::printf("%s\n",
                  cgs::core::render_heatmap_block(
                      std::string(bench::short_name(sys)) + " vs " +
                          std::string(cgs::tcp::to_string(cc)),
                      caps, queues, grid, args.color)
                      .c_str());
    }
  }
  if (csv) std::printf("CSV written to %s_fairness.csv\n",
                       args.csv_prefix.c_str());
  return 0;
}
