// sweep — run a named paper grid on the shared-pool sweep engine and
// write the per-cell CSV.
//
//   sweep --grid=fig3    # 2 CC x 3 systems x 3 capacities x 3 queues (54)
//   sweep --grid=table3  # solo: 3 systems x 3 capacities x 3 queues (27)
//   sweep --grid=table4  # same grid as fig3, RTT-oriented columns
//   sweep --grid=smoke   # 30 s schedule, 2 systems x 2 queues (CI)
//   sweep --grid=sick    # 1 healthy + 1 watchdog-tripping cell (triage CI)
//   sweep --grid=poison  # 1 healthy + crash/oom/spin cells (chaos CI)
//   sweep --grid=fleet   # hybrid-fidelity fleet: sessions x churn (CI)
//
// Fault isolation: --isolation=forked runs every (cell, seed) job in a
// fork()ed child under a supervisor, so a crashing or runaway scenario
// kills only its own job.  --job-timeout / --job-mem / --job-cpu cap each
// child's wall clock, address space and CPU time; a job that keeps dying
// is quarantined after --strikes executions and lands in the failure CSV
// with quarantined=1.  Forked results are bit-identical to in-process.
//
// Crash safety: --journal=PATH appends every finished (cell, seed) job to
// an fsync'd journal; re-running the same command after a crash (or after
// SIGINT/SIGTERM, which drain gracefully) resumes from it and produces
// results bit-identical to an uninterrupted sweep.  Failed jobs are
// triaged by error class, dumped to <prefix>_failures.csv and reflected
// in the exit status:
//
//   0  clean sweep (and verify passed, when requested)
//   1  --verify mismatch (streaming != batch)
//   2  usage error / unknown grid
//   3  sweep completed but some jobs failed (see the triage table)
//   4  interrupted (SIGINT/SIGTERM) — partial results journaled, resumable
//   5  refused to resume: journal belongs to a different grid
//
// --verify re-runs every cell through the sequential batch path
// (run_many + summarize) and fails unless the streaming results match —
// the end-to-end determinism check the CI sweep-smoke job asserts.
// Prints wall-clock and peak-RSS so EXPERIMENTS.md recipes can quote them.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cgstream.hpp"
#include "exit_codes.hpp"
#include "grids.hpp"

namespace {

using cgs::core::SweepCell;
using cgs::tools::kExitInterrupted;
using cgs::tools::kExitJobsFailed;
using cgs::tools::kExitJournalMismatch;
using cgs::tools::kExitOk;
using cgs::tools::kExitUsage;
using cgs::tools::kExitVerifyFailed;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Args {
  std::string grid = "fig3";
  int runs = 5;
  int threads = 0;
  std::uint64_t seed = 42;
  std::string csv_prefix;
  std::string journal;
  int retries = 0;
  bool verify = false;
  bool progress = true;
  // Fault isolation (forked workers, core/proc.hpp).
  bool forked = false;
  double job_timeout_s = 0;  // supervisor wall deadline per job
  double job_mem_mb = 0;     // RLIMIT_AS per job
  int job_cpu_s = 0;         // RLIMIT_CPU per job
  int strikes = 3;           // executions before quarantine
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--grid=", 7) == 0) {
      a.grid = arg + 7;
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      a.runs = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      a.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      a.csv_prefix = arg + 6;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      a.journal = arg + 10;
    } else if (std::strncmp(arg, "--retries=", 10) == 0) {
      a.retries = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--isolation=", 12) == 0) {
      const char* mode = arg + 12;
      if (std::strcmp(mode, "forked") == 0) {
        a.forked = true;
      } else if (std::strcmp(mode, "inprocess") == 0) {
        a.forked = false;
      } else {
        std::fprintf(stderr, "unknown isolation '%s' (forked|inprocess)\n",
                     mode);
        std::exit(kExitUsage);
      }
    } else if (std::strncmp(arg, "--job-timeout=", 14) == 0) {
      a.job_timeout_s = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--job-mem=", 10) == 0) {
      a.job_mem_mb = std::atof(arg + 10);
    } else if (std::strncmp(arg, "--job-cpu=", 10) == 0) {
      a.job_cpu_s = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--strikes=", 10) == 0) {
      a.strikes = std::atoi(arg + 10);
    } else if (std::strcmp(arg, "--verify") == 0) {
      a.verify = true;
    } else if (std::strcmp(arg, "--no-progress") == 0) {
      a.progress = false;
    } else {
      std::printf(
          "usage: sweep [--grid=%s] [--runs=N]\n"
          "             [--threads=N] [--seed=S] [--csv=PREFIX]\n"
          "             [--journal=PATH] [--retries=N] [--verify]\n"
          "             [--no-progress]\n"
          "             [--isolation=forked|inprocess] [--strikes=K]\n"
          "             [--job-timeout=SECS] [--job-mem=MB] [--job-cpu=SECS]\n",
          cgs::tools::kGridNames);
      std::exit(std::strcmp(arg, "--help") == 0 ? kExitOk : kExitUsage);
    }
  }
  if (a.csv_prefix.empty()) a.csv_prefix = a.grid;
  return a;
}

/// True when a and b agree exactly or to 1e-9 relative.
bool close(double a, double b) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// Compare the streaming sweep result against the batch path for one cell.
bool verify_cell(const SweepCell& cell, const cgs::core::ConditionResult& got,
                 int runs) {
  cgs::core::SweepOptions opts;
  opts.runs = runs;
  opts.threads = 1;
  const auto traces = cgs::core::run_many(cell.scenario, opts);
  const auto want = cgs::core::summarize(cell.scenario, traces);

  bool ok = got.runs == want.runs &&
            got.game.mean.size() == want.game.mean.size() &&
            got.flow_rows.size() == want.flow_rows.size();
  const std::pair<double, double> scalars[] = {
      {got.fairness_mean, want.fairness_mean},
      {got.fairness_sd, want.fairness_sd},
      {got.game_fair_mbps, want.game_fair_mbps},
      {got.tcp_fair_mbps, want.tcp_fair_mbps},
      {got.jain_mean, want.jain_mean},
      {got.jain_sd, want.jain_sd},
      {got.rtt_mean_ms, want.rtt_mean_ms},
      {got.rtt_sd_ms, want.rtt_sd_ms},
      {got.fps_mean, want.fps_mean},
      {got.loss_mean, want.loss_mean},
      {got.steady_mean_mbps, want.steady_mean_mbps},
      {got.rr.response_s, want.rr.response_s},
      {got.rr.recovery_s, want.rr.recovery_s},
  };
  for (auto [a, b] : scalars) ok = ok && close(a, b);
  // Fleet population digests (when the cell runs a fluid fleet).
  ok = ok && got.fleet.active == want.fleet.active;
  if (got.fleet.active) {
    const std::pair<double, double> fleet_scalars[] = {
        {got.fleet.p50_mean, want.fleet.p50_mean},
        {got.fleet.p95_mean, want.fleet.p95_mean},
        {got.fleet.p99_mean, want.fleet.p99_mean},
        {got.fleet.mean_mbps_mean, want.fleet.mean_mbps_mean},
        {got.fleet.stall_mean, want.fleet.stall_mean},
        {got.fleet.jain_mean, want.fleet.jain_mean},
        {got.fleet.peak_sessions_mean, want.fleet.peak_sessions_mean},
        {got.fleet.arrivals_mean, want.fleet.arrivals_mean},
        {got.fleet.departures_mean, want.fleet.departures_mean},
    };
    for (auto [a, b] : fleet_scalars) ok = ok && close(a, b);
  }
  if (ok) {
    for (std::size_t i = 0; i < want.game.mean.size(); ++i) {
      ok = ok && close(got.game.mean[i], want.game.mean[i]) &&
           close(got.game.sd[i], want.game.sd[i]);
    }
  }
  if (!ok) {
    std::fprintf(stderr, "verify FAILED: cell '%s' streaming != batch\n",
                 cell.label.c_str());
  }
  return ok;
}

/// Triage table: failures grouped by (cell, class) with first messages.
void print_triage(const cgs::core::SweepReport& report) {
  std::fprintf(stderr, "\nfailure triage (%zu failed job%s", report.failed(),
               report.failed() == 1 ? "" : "s");
  if (report.retries > 0) {
    std::fprintf(stderr, ", %d retr%s granted", report.retries,
                 report.retries == 1 ? "y" : "ies");
  }
  if (report.quarantined > 0) {
    std::fprintf(stderr, ", %d quarantined", report.quarantined);
  }
  std::fprintf(stderr, "):\n");

  std::map<std::pair<std::string, cgs::core::ErrorClass>, int> groups;
  for (const auto& f : report.failures) {
    ++groups[{f.cell_label, f.cls}];
  }
  for (const auto& [key, n] : groups) {
    std::fprintf(stderr, "  %-12s %3d x  %s\n",
                 std::string(to_string(key.second)).c_str(), n,
                 key.first.c_str());
  }
  std::fprintf(stderr, "  first messages:\n");
  std::size_t shown = 0;
  for (const auto& f : report.failures) {
    if (shown++ >= 5) break;
    std::fprintf(stderr, "    seed %llu: %s\n",
                 (unsigned long long)f.seed, f.what.c_str());
  }
  if (report.failures_suppressed > 0) {
    std::fprintf(stderr, "  (%zu further failure records suppressed)\n",
                 report.failures_suppressed);
  }
}

/// Dump every kept failure record as CSV for offline triage.
void write_failures_csv(const std::string& path,
                        const cgs::core::SweepReport& report) {
  cgs::CsvWriter csv(path);
  csv.header({"cell", "seed", "class", "attempts", "quarantined", "message"});
  for (const auto& f : report.failures) {
    csv.row({f.cell_label, std::to_string(f.seed),
             std::string(to_string(f.cls)), std::to_string(f.attempts),
             f.quarantined ? "1" : "0", f.what});
  }
  std::fprintf(stderr, "wrote %s (%zu failure records)\n", path.c_str(),
               report.failures.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  auto cells_opt = cgs::tools::grid_by_name(args.grid, args.seed);
  if (!cells_opt) {
    std::fprintf(stderr, "unknown grid '%s' (%s)\n", args.grid.c_str(),
                 cgs::tools::kGridNames);
    return kExitUsage;
  }
  std::vector<SweepCell> cells = std::move(*cells_opt);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  cgs::core::SweepOptions opts;
  opts.runs = args.runs;
  opts.threads = args.threads;
  opts.max_retries = args.retries;
  if (args.forked) {
    opts.isolation = cgs::core::Isolation::kForked;
    opts.quarantine_strikes = args.strikes;
    opts.limits.wall_seconds = args.job_timeout_s;
    opts.limits.cpu_seconds = args.job_cpu_s;
    opts.limits.address_space_bytes =
        std::uint64_t(args.job_mem_mb * 1024.0 * 1024.0);
  }
  opts.stop = &g_stop;
  opts.throw_on_failure = false;
  opts.journal_path = args.journal;
  opts.journal_note = "grid=" + args.grid + " seed=" +
                      std::to_string(args.seed) +
                      " runs=" + std::to_string(args.runs);
  if (args.progress) {
    // Throttled snapshots (not per-job callbacks): a 10k-job grid repaints
    // the line a few times a second, not ten thousand times.
    opts.on_snapshot = [](const cgs::core::ProgressSnapshot& s) {
      std::fprintf(stderr, "\r%d / %d runs (%zu/%zu cells", s.finished,
                   s.total, s.cells_finished, s.cells);
      if (s.failed > 0) std::fprintf(stderr, ", %d failed", s.failed);
      if (s.retries > 0) std::fprintf(stderr, ", %d retries", s.retries);
      std::fprintf(stderr, ")");
      if (s.final) std::fprintf(stderr, "\n");
    };
    opts.snapshot_interval_ms = 100;
  }

  const std::string journal_suffix =
      args.journal.empty() ? "" : " (journal: " + args.journal + ")";
  std::printf("sweep '%s': %zu cells x %d runs%s\n", args.grid.c_str(),
              cells.size(), args.runs, journal_suffix.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  cgs::core::SweepResult sweep;
  try {
    sweep = cgs::core::run_sweep(cells, opts);
  } catch (const cgs::core::JournalMismatchError& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    return kExitJournalMismatch;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& report = sweep.report;

  if (report.skipped > 0) {
    std::printf("resumed: %d of %d jobs restored from the journal\n",
                report.skipped, report.total);
  }

  if (report.interrupted) {
    std::fprintf(stderr,
                 "\ninterrupted: %d of %d jobs finished (%d remaining)%s\n",
                 report.finished, report.total, report.remaining(),
                 args.journal.empty()
                     ? " — no journal, progress is lost"
                     : ", journaled and resumable");
    if (!args.journal.empty()) {
      std::fprintf(stderr,
                   "resume with:\n  sweep --grid=%s --runs=%d --seed=%llu "
                   "--journal=%s\n",
                   args.grid.c_str(), args.runs,
                   (unsigned long long)args.seed, args.journal.c_str());
    }
    return kExitInterrupted;
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;  // Linux: KiB

  // One shared writer (core/report) defines the CSV format for the CLI and
  // the daemon — the crash-recovery cmp checks depend on that.
  const cgs::core::SweepCsvFiles files =
      cgs::core::write_sweep_csvs(args.csv_prefix, sweep);
  std::printf("wrote %s (%zu cells) — wall %.1f s, peak RSS %.1f MB\n",
              files.cells_path.c_str(), files.cell_rows, wall, peak_rss_mb);
  std::printf("wrote %s (%zu link rows)\n", files.links_path.c_str(),
              files.link_rows);
  if (!files.fleet_path.empty()) {
    std::printf("wrote %s (%zu fleet rows)\n", files.fleet_path.c_str(),
                files.fleet_rows);
  }
  if (report.progress_errors > 0) {
    std::fprintf(stderr, "warning: progress callback threw %d time%s\n",
                 report.progress_errors,
                 report.progress_errors == 1 ? "" : "s");
  }

  if (report.failed() != 0) {
    print_triage(report);
    write_failures_csv(args.csv_prefix + "_failures.csv", report);
    if (!args.journal.empty()) {
      std::fprintf(stderr,
                   "replay a failure with:\n  replay --journal=%s --failed\n",
                   args.journal.c_str());
    }
    return kExitJobsFailed;
  }

  if (args.verify) {
    bool all_ok = true;
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      all_ok = verify_cell(sweep.cells[i], sweep.results[i], args.runs) &&
               all_ok;
    }
    if (!all_ok) return kExitVerifyFailed;
    std::printf("verify OK: streaming == batch for all %zu cells\n",
                sweep.cells.size());
  }
  return kExitOk;
}
