// Crash-recovery contract: a sweep interrupted at an arbitrary job
// boundary — even with a torn trailing journal record — and then resumed
// must produce ConditionResults bit-identical to an uninterrupted run, at
// any thread count, while holding at most one journal record in memory.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_resume_test_" + name;
  std::remove(path.c_str());
  return path;
}

/// Two fast cells x 3 runs = 6 jobs; distinct seeds/queues so any
/// cross-cell mixup would show in the aggregates.
std::vector<SweepCell> small_grid() {
  Scenario a = quick_scenario(11);
  Scenario b = quick_scenario(23);
  b.queue_bdp_mult = 0.5;
  b.tcp_algo = tcp::CcAlgo::kBbr;
  return {{"a", a}, {"b", b}};
}

SweepResult reference_result(const std::vector<SweepCell>& cells) {
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  return run_sweep(cells, opts);
}

/// Run a journaled sweep that stops itself once `kill_after` jobs finish —
/// the librarified version of SIGINT-at-a-random-moment.
SweepResult interrupted_sweep(const std::vector<SweepCell>& cells,
                              const std::string& journal, int kill_after) {
  std::atomic<bool> stop{false};
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;  // crash semantics are journal_test's concern
  opts.stop = &stop;
  opts.progress = [&, kill_after](int done, int) {
    if (done >= kill_after) stop.store(true);
  };
  return run_sweep(cells, opts);
}

TEST(Resume, InterruptedAtAnyBoundaryThenResumedIsBitExact) {
  const auto cells = small_grid();
  const SweepResult want = reference_result(cells);

  // Kill points spread across the job list; resume at several widths.
  for (const int kill_after : {1, 2, 4}) {
    for (const int resume_threads : {1, 3}) {
      const std::string journal = tmp_journal(
          "kill" + std::to_string(kill_after) + "_t" +
          std::to_string(resume_threads) + ".jnl");
      const SweepResult partial = interrupted_sweep(cells, journal, kill_after);
      ASSERT_GE(partial.report.finished, kill_after);
      if (partial.report.finished == partial.report.total) {
        // In-flight jobs finished the grid before the flag was seen —
        // nothing left to resume, but the result must still be exact.
        expect_results_equal(partial.results[0], want.results[0]);
        std::remove(journal.c_str());
        continue;
      }
      EXPECT_TRUE(partial.report.interrupted);

      SweepOptions opts;
      opts.runs = 3;
      opts.threads = resume_threads;
      opts.journal_path = journal;
      opts.journal_sync = false;
      const SweepResult resumed = run_sweep(cells, opts);
      EXPECT_FALSE(resumed.report.interrupted);
      EXPECT_EQ(resumed.report.finished, resumed.report.total);
      EXPECT_EQ(resumed.report.skipped, partial.report.finished)
          << "every journaled job must be restored, none re-run";
      ASSERT_EQ(resumed.results.size(), want.results.size());
      for (std::size_t c = 0; c < want.results.size(); ++c) {
        expect_results_equal(resumed.results[c], want.results[c]);
      }
      std::remove(journal.c_str());
    }
  }
}

TEST(Resume, TornTrailingRecordIsDroppedNotFatal) {
  const auto cells = small_grid();
  const SweepResult want = reference_result(cells);
  const std::string journal = tmp_journal("torn.jnl");
  const SweepResult partial = interrupted_sweep(cells, journal, 2);
  ASSERT_TRUE(partial.report.interrupted);

  // Simulate a crash mid-append: garbage where the next record started.
  {
    std::ofstream os(journal, std::ios::binary | std::ios::app);
    const char junk[] = {0x47, 0x52, 0x4e, 0x4c, 0x7f, 0x01};
    os.write(junk, sizeof junk);
  }

  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepResult resumed = run_sweep(cells, opts);
  EXPECT_EQ(resumed.report.skipped, partial.report.finished);
  for (std::size_t c = 0; c < want.results.size(); ++c) {
    expect_results_equal(resumed.results[c], want.results[c]);
  }
  std::remove(journal.c_str());
}

TEST(Resume, CompletedJournalShortCircuitsTheWholeSweep) {
  const auto cells = small_grid();
  const std::string journal = tmp_journal("full.jnl");
  SweepOptions opts;
  opts.runs = 3;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const SweepResult first = run_sweep(cells, opts);
  const SweepResult second = run_sweep(cells, opts);
  EXPECT_EQ(second.report.skipped, second.report.total);
  EXPECT_EQ(second.report.succeeded, 0);  // nothing re-ran
  for (std::size_t c = 0; c < first.results.size(); ++c) {
    expect_results_equal(second.results[c], first.results[c]);
  }
  std::remove(journal.c_str());
}

TEST(Resume, MismatchedGridIsRefused) {
  const auto cells = small_grid();
  const std::string journal = tmp_journal("mismatch.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);

  // Different run count -> different job list -> refuse.
  SweepOptions more_runs = opts;
  more_runs.runs = 3;
  EXPECT_THROW((void)run_sweep(cells, more_runs), JournalMismatchError);

  // Same shape but a mutated cell scenario -> refuse.
  auto mutated = cells;
  mutated[0].scenario.queue_bdp_mult = 7.0;
  EXPECT_THROW((void)run_sweep(mutated, opts), JournalMismatchError);
  std::remove(journal.c_str());
}

TEST(Resume, JournaledFailuresAreRestoredWithoutReRunning) {
  Scenario sick = quick_scenario(200);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = {{"healthy", quick_scenario(100)},
                                  {"sick", sick}};
  const std::string journal = tmp_journal("failures.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  opts.throw_on_failure = false;
  const SweepResult first = run_sweep(cells, opts);
  EXPECT_EQ(first.report.failed(), 2u);

  const SweepResult second = run_sweep(cells, opts);
  EXPECT_EQ(second.report.succeeded, 0);  // failures not re-executed either
  EXPECT_EQ(second.report.skipped, second.report.total);
  EXPECT_EQ(second.report.failed(), 2u);
  ASSERT_EQ(second.report.failures.size(), 2u);
  EXPECT_EQ(second.report.failures[0].cls, ErrorClass::kWatchdog);
  EXPECT_EQ(second.report.failures[0].seed, 200u);
  EXPECT_NE(second.report.failures[0].what.find("watchdog"),
            std::string::npos);
  expect_results_equal(second.results[0], first.results[0]);
  std::remove(journal.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Every CSV a sweep result writes, concatenated in a fixed order.
std::string csv_bytes(const SweepResult& r, const std::string& prefix) {
  const SweepCsvFiles f = write_sweep_csvs(prefix, r);
  std::string bytes = file_bytes(f.cells_path) + file_bytes(f.links_path);
  if (!f.fleet_path.empty()) bytes += file_bytes(f.fleet_path);
  return bytes;
}

TEST(Resume, GappedJournalWithAFailureResumesToIdenticalCsvs) {
  // A 4-thread journal with holes: runs missing below journaled ones park
  // as journal references until the fresh run fills the gap, and the one
  // journaled failure is re-reported, not re-run.
  Scenario sick = quick_scenario(300);
  sick.watchdog_event_budget = 10;
  std::vector<SweepCell> cells = small_grid();
  cells.push_back({"sick", sick});
  SweepOptions opts;
  opts.runs = 4;
  opts.threads = 4;
  opts.throw_on_failure = false;
  const std::string want =
      csv_bytes(run_sweep(cells, opts), tmp_journal("gap_ref"));

  const std::string full = tmp_journal("gap_full.jnl");
  opts.journal_path = full;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);
  const auto scan = read_journal(full);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 12u);

  // Keep a: 0,2,3 (gap at 1); b: 1,3 (gaps at 0 and 2); sick: 0 only.
  const std::set<std::pair<std::uint32_t, std::uint32_t>> keep = {
      {0, 0}, {0, 2}, {0, 3}, {1, 1}, {1, 3}, {2, 0}};
  const std::string gapped = tmp_journal("gap.jnl");
  {
    JournalWriter w = JournalWriter::create(gapped, scan->meta, false);
    for (const JournalEntry& e : scan->entries) {
      if (keep.count({e.cell, e.run}) != 0) w.append(e);
    }
  }
  std::remove(full.c_str());

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string journal =
        tmp_journal("gap_t" + std::to_string(threads) + ".jnl");
    std::filesystem::copy_file(gapped, journal);
    opts.threads = threads;
    opts.journal_path = journal;
    const SweepResult resumed = run_sweep(cells, opts);
    EXPECT_EQ(resumed.report.skipped, int(keep.size()));
    EXPECT_EQ(resumed.report.succeeded, 3);  // a1, b0, b2; sick 1-3 fail again
    EXPECT_EQ(resumed.report.failed(), 4u);
    EXPECT_EQ(csv_bytes(resumed,
                        tmp_journal("gap_res" + std::to_string(threads))),
              want);
    std::remove(journal.c_str());
  }
  std::remove(gapped.c_str());
}

TEST(Resume, MemoryStaysWithinAFewRecordsOfTheJournal) {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  if (mallinfo2().uordblks == 0) {
    GTEST_SKIP() << "allocator reports no heap statistics (sanitizer build)";
  }
  // A synthetic journal of 64 ~0.5 MB records: one real trace padded with
  // frame times past the end of the run, which no statistic reads.
  constexpr int kRuns = 64;
  const std::vector<SweepCell> cells = {{"big", quick_scenario(77)}};
  const std::string journal = tmp_journal("bounded.jnl");
  std::size_t payload_bytes = 0;
  {
    Testbed bed(cells[0].scenario);
    RunTrace t = bed.run();
    t.frame_times.resize(t.frame_times.size() + 64 * 1024, t.duration);
    JournalMeta meta;
    meta.fingerprint = sweep_fingerprint(cells, kRuns);
    meta.runs = kRuns;
    meta.cells = 1;
    JournalWriter w = JournalWriter::create(journal, meta, false);
    JournalEntry e;
    e.ok = true;
    e.trace_hash = trace_hash(t);
    e.payload = serialize_trace(t);
    payload_bytes = e.payload.size();
    for (int run = 0; run < kRuns; ++run) {
      e.run = std::uint32_t(run);
      e.seed = cells[0].scenario.seed + std::uint64_t(run);
      w.append(e);
    }
    w.close();
  }

  SweepOptions opts;
  opts.runs = kRuns;
  opts.threads = 1;
  opts.journal_path = journal;
  opts.journal_sync = false;
  const std::size_t base = mallinfo2().uordblks;
  std::size_t peak = base;
  opts.progress = [&](int, int) {
    peak = std::max<std::size_t>(peak, mallinfo2().uordblks);
  };
  const SweepResult r = run_sweep(cells, opts);
  EXPECT_EQ(r.report.skipped, kRuns);
  EXPECT_EQ(r.results[0].runs, kRuns);
  EXPECT_LT(peak - base, 4 * payload_bytes)
      << "resume held " << (peak - base) << " heap bytes for a journal of "
      << kRuns << " records of " << payload_bytes << " bytes";
  std::remove(journal.c_str());
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

TEST(Resume, JournalHashesMatchTheGoldenHasher) {
  // Every ok record's stored hash must equal trace_hash() of its payload —
  // the property tools/replay relies on to verify reproductions.
  const auto cells = small_grid();
  const std::string journal = tmp_journal("hashes.jnl");
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 2;
  opts.journal_path = journal;
  opts.journal_sync = false;
  (void)run_sweep(cells, opts);

  const auto scan = read_journal(journal);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->entries.size(), 4u);
  for (const JournalEntry& e : scan->entries) {
    ASSERT_TRUE(e.ok);
    const RunTrace t = deserialize_trace(e.payload.data(), e.payload.size());
    EXPECT_EQ(trace_hash(t), e.trace_hash);
    EXPECT_EQ(t.flows.empty() ? 0u : 1u, 1u);
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace cgs::core
