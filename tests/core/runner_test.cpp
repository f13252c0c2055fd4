#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cgs::core {
namespace {

using namespace cgs::literals;

/// Small, fast scenario: solo game stream, 2 simulated seconds.
Scenario quick_scenario() {
  Scenario sc;
  sc.tcp_algo.reset();
  sc.duration = 2_sec;
  sc.seed = 100;
  return sc;
}

TEST(Runner, RejectsNonPositiveRuns) {
  SweepOptions opts;
  opts.runs = 0;
  try {
    (void)run_many(quick_scenario(), opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("runs must be > 0"),
              std::string::npos);
  }
}

TEST(Runner, ValidatesScenarioBeforeSpawningWorkers) {
  Scenario sc = quick_scenario();
  sc.capacity = Bandwidth(0);
  SweepOptions opts;
  opts.runs = 2;
  EXPECT_THROW((void)run_many(sc, opts), std::invalid_argument);
}

TEST(Runner, ReportsEveryFailingSeed) {
  Scenario sc = quick_scenario();
  // A watchdog budget this small guarantees every run aborts immediately.
  sc.watchdog_event_budget = 10;
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  try {
    (void)run_many(sc, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 of 3 runs failed"), std::string::npos) << what;
    // Every failing seed is named, in seed order, with its diagnostic.
    const auto p100 = what.find("seed 100");
    const auto p101 = what.find("seed 101");
    const auto p102 = what.find("seed 102");
    EXPECT_NE(p100, std::string::npos) << what;
    EXPECT_NE(p101, std::string::npos) << what;
    EXPECT_NE(p102, std::string::npos) << what;
    EXPECT_LT(p100, p101);
    EXPECT_LT(p101, p102);
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
  }
}

TEST(Runner, ProgressCountsFailedRuns) {
  // Regression: progress used to count only successes, so a failing run
  // left the bar stuck short of total.  Completed = success OR failure.
  Scenario sc = quick_scenario();
  sc.watchdog_event_budget = 10;  // every run aborts
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  std::mutex mu;
  std::vector<std::pair<int, int>> calls;
  opts.progress = [&](int done, int total) {
    std::lock_guard lk(mu);
    calls.push_back({done, total});
  };
  EXPECT_THROW((void)run_many(sc, opts), std::runtime_error);
  ASSERT_EQ(calls.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(calls[std::size_t(i)].first, i + 1);
    EXPECT_EQ(calls[std::size_t(i)].second, 3);
  }
}

TEST(Runner, ProgressCallbackThrowDoesNotAbortRuns) {
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  std::atomic<int> calls{0};
  opts.progress = [&](int, int) {
    ++calls;
    throw std::runtime_error("reporting failure");
  };
  const auto traces = run_many(quick_scenario(), opts);
  EXPECT_EQ(traces.size(), 2u);
  EXPECT_EQ(calls.load(), 2);
  for (const auto& t : traces) EXPECT_FALSE(t.game_mbps.empty());
}

TEST(Runner, ParallelTracesMatchSerial) {
  const Scenario sc = quick_scenario();
  SweepOptions serial;
  serial.runs = 3;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.runs = 3;
  parallel.threads = 3;
  const auto a = run_many(sc, serial);
  const auto b = run_many(sc, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].game_mbps, b[i].game_mbps) << "run " << i;
    EXPECT_EQ(a[i].tcp_mbps, b[i].tcp_mbps) << "run " << i;
  }
}

}  // namespace
}  // namespace cgs::core
