#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/testbed.hpp"
#include "stream/profiles.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

TEST(Sweep, CrossProductExpandsRowMajor) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.axis("cap", {{"15", [](Scenario& s) { s.capacity = Bandwidth::mbps(15.0); }},
                    {"25", [](Scenario& s) { s.capacity = Bandwidth::mbps(25.0); }}})
      .axis("queue", {{"0.5", [](Scenario& s) { s.queue_bdp_mult = 0.5; }},
                      {"2", [](Scenario& s) { s.queue_bdp_mult = 2.0; }},
                      {"7", [](Scenario& s) { s.queue_bdp_mult = 7.0; }}});
  const auto cells = spec.cells();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "cap=15 queue=0.5");
  EXPECT_EQ(cells[5].label, "cap=25 queue=7");
  // Last axis fastest; mutators composed onto the base.
  EXPECT_DOUBLE_EQ(cells[1].scenario.queue_bdp_mult, 2.0);
  EXPECT_DOUBLE_EQ(cells[1].scenario.capacity.megabits_per_sec(), 15.0);
  EXPECT_DOUBLE_EQ(cells[4].scenario.capacity.megabits_per_sec(), 25.0);
  // Axis-free spec: the base scenario as a single cell.
  SweepSpec bare;
  bare.base = quick_scenario();
  EXPECT_EQ(bare.cells().size(), 1u);
}

TEST(Sweep, RejectsNonPositiveRunsAndInvalidCells) {
  SweepOptions opts;
  opts.runs = 0;
  EXPECT_THROW((void)sweep_jobs({{"c", quick_scenario()}}, opts,
                                [](std::size_t, int, RunTrace&&) {}),
               std::invalid_argument);
  Scenario bad = quick_scenario();
  bad.capacity = Bandwidth(0);
  opts.runs = 2;
  EXPECT_THROW((void)sweep_jobs({{"bad", bad}}, opts,
                                [](std::size_t, int, RunTrace&&) {}),
               std::invalid_argument);
}

TEST(Sweep, SeedsExactlyMatchSerialTestbed) {
  // The engine's (cell, i) job must seed scenario.seed + i — byte-for-byte
  // the traces a serial Testbed loop produces.
  const Scenario sc = quick_scenario(7);
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  std::vector<RunTrace> got(3);
  const SweepReport report =
      sweep_jobs({{"cell", sc}}, opts,
                 [&](std::size_t, int run, RunTrace&& t) {
                   got[std::size_t(run)] = std::move(t);
                 });
  ASSERT_TRUE(report.failures.empty());
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.succeeded, 3);
  EXPECT_EQ(report.finished, 3);
  EXPECT_FALSE(report.interrupted);
  for (int i = 0; i < 3; ++i) {
    Scenario serial = sc;
    serial.seed = sc.seed + std::uint64_t(i);
    Testbed bed(serial);
    const RunTrace want = bed.run();
    EXPECT_EQ(got[std::size_t(i)].game_mbps, want.game_mbps) << "run " << i;
    EXPECT_EQ(got[std::size_t(i)].tcp_mbps, want.tcp_mbps) << "run " << i;
  }
}

TEST(Sweep, StreamingMatchesBatchSummarize) {
  // The headline determinism contract: streaming ConditionAccumulator
  // output == batch summarize, field for field, through the whole engine.
  std::vector<SweepCell> cells;
  Scenario a = quick_scenario(11);
  Scenario b = quick_scenario(23);
  b.queue_bdp_mult = 0.5;
  b.tcp_algo = tcp::CcAlgo::kBbr;
  cells.push_back({"a", a});
  cells.push_back({"b", b});

  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 3;
  const auto sweep = run_sweep(cells, opts);
  ASSERT_EQ(sweep.results.size(), 2u);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepOptions serial;
    serial.runs = 4;
    serial.threads = 1;
    const auto traces = run_many(cells[c].scenario, serial);
    const auto batch = summarize(cells[c].scenario, traces);
    expect_results_equal(sweep.results[c], batch);
  }
}

TEST(Sweep, AccumulatorMatchesSummarizeIncrementally) {
  SweepOptions opts;
  opts.runs = 3;
  const auto traces = run_many(quick_scenario(), opts);
  ConditionAccumulator acc(quick_scenario());
  for (const auto& t : traces) acc.add(t);
  EXPECT_EQ(acc.runs(), 3);
  expect_results_equal(acc.finalize(), summarize(quick_scenario(), traces));
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  std::vector<SweepCell> cells;
  for (double q : {0.5, 2.0, 7.0}) {
    Scenario sc = quick_scenario(42);
    sc.queue_bdp_mult = q;
    cells.push_back({"q" + std::to_string(q), sc});
  }
  SweepOptions serial;
  serial.runs = 3;
  serial.threads = 1;
  SweepOptions wide;
  wide.runs = 3;
  wide.threads = 4;
  const auto a = run_sweep(cells, serial);
  const auto b = run_sweep(cells, wide);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t c = 0; c < a.results.size(); ++c) {
    expect_results_equal(a.results[c], b.results[c]);
  }
}

TEST(Sweep, ReportsEveryFailingCellAndSeed) {
  // Cell 1 livelocks on every seed; cell 0 is healthy.  Every failure is
  // named and classified, healthy runs still stream through in seed order.
  Scenario sick = quick_scenario(200);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};

  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  std::mutex mu;
  std::vector<std::pair<std::size_t, int>> delivered;
  const SweepReport report = sweep_jobs(
      cells, opts, [&](std::size_t cell, int run, RunTrace&&) {
        std::lock_guard lk(mu);
        delivered.push_back({cell, run});
      });
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].cell, 1u);
  EXPECT_EQ(report.failures[0].cell_label, "sick");
  EXPECT_EQ(report.failures[0].seed, 200u);
  EXPECT_EQ(report.failures[1].seed, 201u);
  EXPECT_NE(report.failures[0].what.find("watchdog"), std::string::npos);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(report.failures[0].attempts, 1);
  EXPECT_EQ(report.failed(), 2u);
  ASSERT_EQ(report.cell_failures.size(), 2u);
  EXPECT_EQ(report.cell_failures[0], 0u);
  EXPECT_EQ(report.cell_failures[1], 2u);
  EXPECT_EQ(report.finished, 4);
  // Healthy cell delivered both runs, in seed order.
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (std::pair<std::size_t, int>{0, 0}));
  EXPECT_EQ(delivered[1], (std::pair<std::size_t, int>{0, 1}));

  // run_sweep surfaces the same failures as one diagnostic.
  try {
    (void)run_sweep(cells, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 of 4 jobs failed"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 'sick' seed 200"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 'sick' seed 201"), std::string::npos) << what;
  }
}

TEST(Sweep, ProgressCountsFailuresAndReachesTotal) {
  // Mixed success/failure grid: progress must still count every job and
  // finish at (total, total), strictly increasing.
  Scenario sick = quick_scenario(300);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  std::mutex mu;
  std::vector<std::pair<int, int>> calls;
  opts.progress = [&](int done, int total) {
    std::lock_guard lk(mu);
    calls.push_back({done, total});
  };
  const SweepReport report = sweep_jobs(cells, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_EQ(report.failures.size(), 3u);
  ASSERT_EQ(calls.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(calls[std::size_t(i)].first, i + 1);
    EXPECT_EQ(calls[std::size_t(i)].second, 6);
  }
}

TEST(Sweep, ProgressExceptionsCountedNotFatal) {
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.progress = [](int, int) { throw std::runtime_error("reporting broke"); };
  const SweepReport report = sweep_jobs({{"c", quick_scenario(500)}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.succeeded, 3);
  EXPECT_EQ(report.progress_errors, 3);
}

TEST(Sweep, RetriesTransientFailuresOnly) {
  // A controller_override that throws a foreign exception on its first
  // call models an environmental blip: classified kUnclassified, hence
  // retried; the retry draws a fresh Testbed and succeeds.
  std::atomic<int> calls{0};
  Scenario flaky = quick_scenario(600);
  flaky.controller_override =
      [&calls]() -> std::unique_ptr<stream::RateController> {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("spurious failure");
    return stream::make_controller(stream::GameSystem::kStadia);
  };
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  opts.max_retries = 2;
  const SweepReport report = sweep_jobs({{"flaky", flaky}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.succeeded, 1);
  EXPECT_EQ(report.retries, 1);
}

TEST(Sweep, RetryBudgetExhaustedKeepsAttemptCount) {
  Scenario broken = quick_scenario(700);
  broken.controller_override = []() -> std::unique_ptr<stream::RateController> {
    throw std::runtime_error("always broken");
  };
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  opts.max_retries = 2;
  const SweepReport report = sweep_jobs({{"broken", broken}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kUnclassified);
  EXPECT_EQ(report.failures[0].attempts, 3);  // 1 try + 2 retries
  EXPECT_EQ(report.retries, 2);
}

TEST(Sweep, DeterministicFailuresAreNeverRetried) {
  // A watchdog trip reproduces identically — re-running it wastes the
  // budget, so the engine must not.
  Scenario sick = quick_scenario(800);
  sick.watchdog_event_budget = 10;
  SweepOptions opts;
  opts.runs = 1;
  opts.threads = 1;
  opts.max_retries = 5;
  const SweepReport report = sweep_jobs({{"sick", sick}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(report.failures[0].attempts, 1);
  EXPECT_EQ(report.retries, 0);
}

TEST(Sweep, FailureRecordsCappedPerCell) {
  Scenario sick = quick_scenario(900);
  sick.watchdog_event_budget = 10;
  SweepOptions opts;
  opts.runs = 5;
  opts.threads = 2;
  opts.max_failures_per_cell = 2;
  int on_failure_calls = 0;
  opts.on_failure = [&](const SweepFailure&) { ++on_failure_calls; };
  const SweepReport report = sweep_jobs({{"sick", sick}}, opts,
                                        [](std::size_t, int, RunTrace&&) {});
  EXPECT_EQ(report.failures.size(), 2u);       // records kept
  EXPECT_EQ(report.failures_suppressed, 3u);   // records dropped
  EXPECT_EQ(report.failed(), 5u);              // but all failures counted
  ASSERT_EQ(report.cell_failures.size(), 1u);
  EXPECT_EQ(report.cell_failures[0], 5u);
  EXPECT_EQ(on_failure_calls, 5);  // the hook sees suppressed failures too
}

TEST(Sweep, StopFlagDrainsGracefully) {
  std::atomic<bool> stop{false};
  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 1;
  opts.stop = &stop;
  opts.progress = [&](int done, int) {
    if (done >= 2) stop.store(true);
  };
  std::atomic<int> consumed{0};
  const SweepReport report = sweep_jobs({{"c", quick_scenario(950)}}, opts,
                                        [&](std::size_t, int, RunTrace&&) {
                                          ++consumed;
                                        });
  EXPECT_TRUE(report.interrupted);
  EXPECT_GE(report.finished, 2);
  EXPECT_LT(report.finished, report.total);
  EXPECT_EQ(report.remaining(), report.total - report.finished);
  EXPECT_EQ(consumed.load(), report.finished);

  // A pre-raised flag stops the pool before any job runs.
  stop.store(true);
  const SweepReport none = sweep_jobs({{"c", quick_scenario(950)}}, opts,
                                      [](std::size_t, int, RunTrace&&) {});
  EXPECT_TRUE(none.interrupted);
  EXPECT_EQ(none.finished, 0);
  EXPECT_EQ(none.remaining(), none.total);
}

TEST(Sweep, PreloadedRunsDeliverInSeedOrderWithoutReExecution) {
  const Scenario sc = quick_scenario(31);
  // Compute runs 0 and 1 serially — what a journal would have stored.
  std::vector<PreloadedRun> pre;
  for (int i = 0; i < 2; ++i) {
    Scenario serial = sc;
    serial.seed = sc.seed + std::uint64_t(i);
    Testbed bed(serial);
    PreloadedRun p;
    p.cell = 0;
    p.run = i;
    p.load = [t = bed.run()] { return t; };
    pre.push_back(std::move(p));
  }
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  std::mutex mu;
  std::vector<int> order;
  const SweepReport report = sweep_jobs(
      {{"cell", sc}}, opts,
      [&](std::size_t, int run, RunTrace&&) {
        std::lock_guard lk(mu);
        order.push_back(run);
      },
      pre);
  EXPECT_EQ(report.skipped, 2);
  EXPECT_EQ(report.succeeded, 1);  // only run 2 executed fresh
  EXPECT_EQ(report.finished, 3);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

  // A preloaded failure is re-reported, never re-run.
  PreloadedRun bad;
  bad.cell = 0;
  bad.run = 0;
  bad.failure = SweepFailure{0, "cell", sc.seed, "recorded failure",
                             ErrorClass::kWatchdog};
  const SweepReport rep2 = sweep_jobs(
      {{"cell", sc}}, opts, [](std::size_t, int, RunTrace&&) {}, {bad});
  ASSERT_EQ(rep2.failures.size(), 1u);
  EXPECT_EQ(rep2.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(rep2.skipped, 1);
  EXPECT_EQ(rep2.succeeded, 2);

  // Invalid preload slots are rejected before any worker spawns.
  PreloadedRun oob;
  oob.cell = 5;
  EXPECT_THROW((void)sweep_jobs({{"cell", sc}}, opts,
                                [](std::size_t, int, RunTrace&&) {}, {oob}),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_jobs({{"cell", sc}}, opts,
                                [](std::size_t, int, RunTrace&&) {},
                                {pre[0], pre[0]}),
               std::invalid_argument);
}

TEST(Sweep, SnapshotCountsAreConsistent) {
  // Preloaded slots, one failing cell and a multi-threaded pool: every
  // snapshot is a monotone cut of the sweep, and the one final snapshot
  // agrees with the report.
  Scenario sick = quick_scenario(1100);
  sick.watchdog_event_budget = 10;
  const std::vector<SweepCell> cells = {{"a", quick_scenario(1000)},
                                        {"sick", sick},
                                        {"b", quick_scenario(1200)}};
  constexpr int kRuns = 3;
  std::vector<PreloadedRun> pre;
  for (int i = 0; i < 2; ++i) {
    Scenario serial = cells[2].scenario;
    serial.seed += std::uint64_t(i);
    Testbed bed(serial);
    PreloadedRun p;
    p.cell = 2;
    p.run = i;
    p.load = [t = bed.run()] { return t; };
    pre.push_back(std::move(p));
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex mu;
    std::vector<ProgressSnapshot> snaps;
    SweepOptions opts;
    opts.runs = kRuns;
    opts.threads = threads;
    opts.snapshot_interval_ms = 0;
    opts.on_snapshot = [&](const ProgressSnapshot& s) {
      std::lock_guard lk(mu);
      snaps.push_back(s);
    };
    const SweepReport report = sweep_jobs(
        cells, opts, [](std::size_t, int, RunTrace&&) {}, pre);
    ASSERT_GE(snaps.size(), 2u);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      EXPECT_EQ(snaps[i].total, 3 * kRuns);
      EXPECT_EQ(snaps[i].cells, 3u);
      EXPECT_EQ(snaps[i].final, i + 1 == snaps.size()) << "snapshot " << i;
      if (i > 0) {
        EXPECT_GE(snaps[i].finished, snaps[i - 1].finished) << i;
        EXPECT_GE(snaps[i].cells_finished, snaps[i - 1].cells_finished) << i;
      }
    }
    const ProgressSnapshot& last = snaps.back();
    EXPECT_EQ(last.finished, report.total);
    EXPECT_EQ(last.cells_finished, 3u);
    EXPECT_EQ(last.failed, int(report.failed()));
    EXPECT_EQ(last.failed, kRuns);
    EXPECT_EQ(last.skipped, report.skipped);
    EXPECT_EQ(last.skipped, 2);
    EXPECT_EQ(last.succeeded, report.succeeded);
  }

  // Stopped part-way: the final snapshot counts only the cells whose every
  // seed was delivered, not those with runs parked behind a missing seed.
  const std::vector<SweepCell> healthy = {{"a", quick_scenario(1000)},
                                          {"b", quick_scenario(1200)},
                                          {"c", quick_scenario(1300)}};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("stopped, threads=" + std::to_string(threads));
    std::atomic<bool> stop{false};
    std::mutex mu;
    std::vector<int> consumed(healthy.size(), 0);
    std::optional<ProgressSnapshot> final_snap;
    SweepOptions opts;
    opts.runs = kRuns;
    opts.threads = threads;
    opts.stop = &stop;
    opts.progress = [&](int done, int) {
      if (done >= kRuns + 1) stop.store(true);
    };
    opts.on_snapshot = [&](const ProgressSnapshot& s) {
      if (s.final) final_snap = s;
    };
    const SweepReport report =
        sweep_jobs(healthy, opts, [&](std::size_t cell, int, RunTrace&&) {
          std::lock_guard lk(mu);
          ++consumed[cell];
        });
    ASSERT_TRUE(report.interrupted);
    ASSERT_TRUE(final_snap.has_value());
    std::size_t complete = 0;
    for (const int n : consumed) complete += n == kRuns ? 1 : 0;
    EXPECT_GE(complete, 1u);
    EXPECT_LT(complete, healthy.size());
    EXPECT_EQ(final_snap->cells_finished, complete);
    EXPECT_EQ(final_snap->finished, report.finished);
    EXPECT_LT(final_snap->finished, final_snap->total);
  }
}

}  // namespace
}  // namespace cgs::core
