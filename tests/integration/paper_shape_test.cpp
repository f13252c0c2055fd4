// Regression guards for the paper's headline comparative findings
// (EXPERIMENTS.md). These pin the calibrated dynamics: if a refactor flips
// one of the qualitative results, a test fails — not a bench eyeball.
// Shortened schedule (300 s, TCP in [100, 220)) keeps each run ~1 s.
#include <gtest/gtest.h>

#include "core/runner.hpp"

namespace cgs::core {
namespace {

using namespace cgs::literals;
using stream::GameSystem;
using tcp::CcAlgo;

ConditionResult run_cell(GameSystem sys, std::optional<CcAlgo> cc,
                         double cap_mbps, double queue_mult, int runs = 2) {
  Scenario sc;
  sc.system = sys;
  sc.tcp_algo = cc;
  sc.capacity = Bandwidth::mbps(cap_mbps);
  sc.queue_bdp_mult = queue_mult;
  sc.duration = 300_sec;
  sc.tcp_start = 100_sec;
  sc.tcp_stop = 220_sec;
  sc.seed = 7;
  SweepOptions opts;
  opts.runs = runs;
  return run_condition(sc, opts);
}

// AnalysisWindows matching the shortened schedule.
AnalysisWindows short_windows() {
  AnalysisWindows w;
  w.original_from = 40_sec;
  w.original_to = 100_sec;
  w.settled_from = 160_sec;
  w.settled_to = 220_sec;
  w.fairness_from = 130_sec;
  w.fairness_to = 220_sec;
  w.recovery_limit = 80_sec;
  return w;
}

double fairness(const ConditionResult& r) {
  return fairness_ratio(r.game.mean, r.tcp.mean,
                        std::chrono::milliseconds(500), r.scenario.capacity,
                        short_windows());
}

// §4.1/Fig 3: "Stadia dominates, taking about twice what is fair" vs Cubic
// at small queues.
TEST(PaperShape, StadiaBeatsCubicAtSmallQueue) {
  const auto r = run_cell(GameSystem::kStadia, CcAlgo::kCubic, 35.0, 0.5);
  EXPECT_GT(fairness(r), 0.2);
}

// Fig 3: Stadia defers at bloated queues vs Cubic (the two cool 7x cells).
TEST(PaperShape, StadiaDefersToCubicAtBloatedQueue) {
  const auto r = run_cell(GameSystem::kStadia, CcAlgo::kCubic, 35.0, 7.0);
  EXPECT_LT(fairness(r), -0.1);
}

// §4.1: "GeForce defers and lets the TCP flow have about twice what is
// fair" — below fair share against both CCAs.
TEST(PaperShape, GeForceAlwaysBelowFairShare) {
  for (CcAlgo cc : {CcAlgo::kCubic, CcAlgo::kBbr}) {
    for (double q : {0.5, 7.0}) {
      const auto r = run_cell(GameSystem::kGeForce, cc, 25.0, q);
      EXPECT_LT(fairness(r), 0.0)
          << "cc=" << tcp::to_string(cc) << " q=" << q;
    }
  }
}

// §4.1: Luna loses its fair share to BBR at every queue size.
TEST(PaperShape, LunaLosesToBbr) {
  for (double q : {0.5, 2.0, 7.0}) {
    const auto r = run_cell(GameSystem::kLuna, CcAlgo::kBbr, 25.0, q);
    EXPECT_LT(fairness(r), -0.15) << "q=" << q;
  }
}

// §4.3/Table 4: with Cubic the RTT tracks the 7x queue limit; with BBR it
// is roughly halved (inflight cap).
TEST(PaperShape, BbrHalvesBufferbloatRtt) {
  const auto cubic = run_cell(GameSystem::kStadia, CcAlgo::kCubic, 25.0, 7.0);
  const auto bbr = run_cell(GameSystem::kStadia, CcAlgo::kBbr, 25.0, 7.0);
  EXPECT_GT(cubic.rtt_mean_ms, 80.0);
  EXPECT_LT(bbr.rtt_mean_ms, cubic.rtt_mean_ms / 1.5);
}

// Table 3: solo systems keep queuing low even at a bloated queue.
TEST(PaperShape, SoloSystemsAvoidSelfBufferbloat) {
  for (GameSystem sys : {GameSystem::kStadia, GameSystem::kGeForce}) {
    const auto r = run_cell(sys, std::nullopt, 25.0, 7.0);
    EXPECT_LT(r.rtt_mean_ms, 35.0) << stream::to_string(sys);
  }
}

// Table 5: GeForce's frame rate is resilient under competition while
// Stadia's and Luna's degrade against BBR at a small queue.
TEST(PaperShape, GeForceFramerateResilient) {
  const auto gf = run_cell(GameSystem::kGeForce, CcAlgo::kBbr, 25.0, 0.5);
  const auto st = run_cell(GameSystem::kStadia, CcAlgo::kBbr, 25.0, 0.5);
  const auto lu = run_cell(GameSystem::kLuna, CcAlgo::kBbr, 25.0, 0.5);
  EXPECT_GT(gf.fps_mean, 45.0);
  EXPECT_LT(st.fps_mean, gf.fps_mean);
  EXPECT_LT(lu.fps_mean, gf.fps_mean);
}

// Table 5 7x rows: nearly full frame rate for Stadia/GeForce when the
// queue absorbs the burstiness.
TEST(PaperShape, BigQueuesRestoreFramerate) {
  const auto st = run_cell(GameSystem::kStadia, CcAlgo::kBbr, 25.0, 7.0);
  EXPECT_GT(st.fps_mean, 55.0);
}

// §4.3: loss stays small in absolute terms (well under a few percent) for
// the solo baselines.
TEST(PaperShape, SoloLossNearZero) {
  for (GameSystem sys : {GameSystem::kStadia, GameSystem::kGeForce,
                         GameSystem::kLuna}) {
    const auto r = run_cell(sys, std::nullopt, 25.0, 2.0);
    EXPECT_LT(r.loss_mean, 0.02) << stream::to_string(sys);
  }
}

}  // namespace
}  // namespace cgs::core
