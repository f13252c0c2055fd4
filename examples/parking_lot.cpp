// A 3-hop parking-lot topology: the game stream traverses three
// bottlenecks in series while each hop carries its own single-hop cubic
// cross-traffic flow, so congestion is hop-local rather than end-to-end.
//
//   ./parking_lot [runs] [out_prefix]
//
// Demonstrates: ParkingLotParams / parking_lot_scenario, the per-link
// summary table (utilization, drops, peak queue depth per hop) and the
// per-link utilization series CSV export.
#include <cstdio>
#include <string>

#include "cgstream.hpp"

int main(int argc, char** argv) {
  using namespace std::chrono;

  cgs::core::ParkingLotParams p;
  p.hops = 3;
  p.cross_per_hop = 1;          // one cubic flow pinned to each hop
  p.tcp_start = seconds(185);   // the paper's competing-flow schedule, so
  p.tcp_stop = seconds(370);    // the 220-370 s fairness window applies
  p.duration = seconds(390);
  const cgs::core::Scenario sc = cgs::core::parking_lot_scenario(p);

  cgs::core::SweepOptions opts;
  opts.runs = argc > 1 ? std::atoi(argv[1]) : 3;
  opts.progress = [](int done, int total) {
    std::fprintf(stderr, "\r  run %d/%d", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  std::printf("condition: %s (%d runs)\n\n", sc.label().c_str(), opts.runs);
  const auto res = cgs::core::run_condition(sc, opts);

  // Per-flow digest (end-to-end game + per-hop cross flows), then the
  // per-hop link digest: each hop's utilization, drops and peak depth.
  std::printf("%s\n", cgs::core::render_flow_summary(res).c_str());
  std::printf("%s\n", cgs::core::render_link_summary(res).c_str());

  const std::string prefix = argc > 2 ? argv[2] : "parking_lot";
  const std::string links_csv = prefix + "_links.csv";
  cgs::core::write_link_series_csv(links_csv, milliseconds(500),
                                   res.link_rows);
  std::printf("per-link series written to %s\n", links_csv.c_str());
  return 0;
}
