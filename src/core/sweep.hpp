// Sweep engine: one worker pool over a whole parameter grid.
//
// The paper's artifacts (Fig 2-4, Tables 1/3-5) are grids of
// (system x CC algo x queue size x rate limit) cells, each averaged over
// many seeded runs.  A SweepSpec cross-products axes into a flat list of
// (cell, seed) jobs that the pool's workers claim in order through one
// shared cursor — no per-cell fork/join barrier, so late stragglers in one
// cell overlap with the next cell's runs.  Each finished
// RunTrace is folded into its cell's streaming ConditionAccumulator and
// freed immediately, bounding peak memory at O(cells + in-flight runs).
//
// Determinism contract: job (cell, i) runs Testbed(cell.scenario with
// seed = cell.scenario.seed + i) — exactly the per-seed derivation
// run_many has always used — and per-cell delivery is serialized in seed
// order (an internal reorder buffer parks out-of-order completions), so
// the streaming ConditionResult is bit-identical to batch summarize() over
// the same traces regardless of thread count or which worker ran which job.
//
// Crash safety: run_sweep can journal every finished (cell, seed) job to
// an append-only file (SweepOptions::journal_path, core/journal.hpp) and,
// on restart against the same grid, preload the journaled results instead
// of re-running them — folding them through the same seed-order delivery
// path, so a resumed sweep's ConditionResult is bit-identical to an
// uninterrupted one.  A resume indexes the journal first and reads each
// record back only when its turn comes, so it holds one record at a time.
// A stop flag (SweepOptions::stop) drains gracefully: in-flight jobs
// finish and are journaled, queued jobs stay queued, and the partial
// result comes back marked interrupted.
//
// Fault isolation: with SweepOptions::isolation = kForked each job runs in
// a fork()ed child under per-job rlimits and a wall-clock deadline
// (core/proc.hpp), so a segfault, OOM, or wedge kills one child instead of
// the sweep.  The child ships its RunTrace over a pipe via the bit-exact
// journal serialization, and the parent folds it through the same
// seed-order delivery path — forked results are bit-identical to
// in-process ones at any thread count.  A job whose child keeps dying is
// retried with capped jittered backoff and quarantined after
// quarantine_strikes total executions: recorded as a failure, journaled,
// and never run again (resume skips it like any journaled failure).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/error.hpp"
#include "core/proc.hpp"
#include "core/scenario.hpp"

namespace cgs::core {

/// One value of a sweep axis: a display label plus a scenario mutator.
struct AxisValue {
  std::string label;
  std::function<void(Scenario&)> apply;
};

/// One axis of the grid, e.g. "queue" x {0.5, 2, 7}.
struct SweepAxis {
  std::string name;
  std::vector<AxisValue> values;
};

/// One fully-resolved grid cell.
struct SweepCell {
  std::string label;
  Scenario scenario;
};

/// Declarative grid: a base scenario crossed with mutator axes.
struct SweepSpec {
  Scenario base;
  std::vector<SweepAxis> axes;

  /// Append an axis (builder style).
  SweepSpec& axis(std::string name, std::vector<AxisValue> values);

  /// Cross product in row-major order (last axis fastest).  Labels join as
  /// "name=value name=value"; no axes yields the base scenario as one cell.
  [[nodiscard]] std::vector<SweepCell> cells() const;
};

/// One failed (cell, seed) job, classified for triage.
struct SweepFailure {
  std::size_t cell = 0;  // index into the cell list
  std::string cell_label;
  std::uint64_t seed = 0;
  std::string what;
  ErrorClass cls = ErrorClass::kUnclassified;
  Time sim_time = kTimeInfinite;  // kTimeInfinite = not known
  net::FlowId flow = 0;           // 0 = not flow-specific
  int attempts = 1;               // executions including retries
  /// Forked isolation only: the job kept killing its worker process and
  /// exhausted its quarantine strikes — it is recorded as failed and never
  /// executed again this sweep (nor on resume: the journal remembers).
  bool quarantined = false;
};

/// How each (cell, seed) job executes.
enum class Isolation : std::uint8_t {
  /// In the worker thread (the default): fastest, but a crashing or
  /// runaway job takes the whole sweep with it.
  kInProcess,
  /// In a fork()ed child per job under a supervisor (core/proc.hpp): a
  /// poisoned job costs one child, the sweep completes and quarantines it.
  /// Results cross the pipe via the bit-exact RunTrace serialization, so
  /// forked sweeps are bit-identical to in-process ones.
  kForked,
};

/// Throttled cross-thread progress summary (SweepOptions::on_snapshot):
/// one consistent reading of the sweep's counters, emitted at most every
/// snapshot_interval_ms instead of once per job — what a daemon streams to
/// subscribers and a CLI paints without drowning a large grid in per-job
/// callbacks.
struct ProgressSnapshot {
  int total = 0;        // jobs in the grid (cells x runs)
  int finished = 0;     // jobs delivered: successes + failures + preloaded
  int succeeded = 0;    // fresh jobs that produced a trace
  int failed = 0;       // failed jobs, preloaded and fresh
  int skipped = 0;      // jobs restored from a journal
  int retries = 0;      // extra attempts granted
  int quarantined = 0;  // jobs that exhausted their quarantine strikes
  std::size_t cells = 0;           // cells in the grid
  std::size_t cells_finished = 0;  // cells with every job delivered
  /// Set on the one guaranteed last snapshot, emitted when the pool has
  /// drained (complete or interrupted) regardless of the throttle.
  bool final = false;
};

struct SweepOptions {
  int runs = 15;    // seeded repetitions per cell (paper: 15, §3.4)
  int threads = 0;  // 0 = hardware concurrency
  /// Progress callback (completed_jobs, total_jobs) counting successes,
  /// failures AND journal-preloaded jobs, so the final call always reports
  /// (total, total).  Calls are serialized and strictly increasing;
  /// exceptions it throws are counted (SweepReport::progress_errors) and
  /// swallowed — reporting must not kill a worker thread.
  std::function<void(int, int)> progress;

  /// Throttled progress reporting: called with a ProgressSnapshot at most
  /// every snapshot_interval_ms (0 = every delivery), plus exactly once —
  /// final = true — after the pool drains, even when interrupted.  Calls
  /// are serialized with `progress`; exceptions are swallowed and counted
  /// in SweepReport::progress_errors.  Unset costs nothing.
  std::function<void(const ProgressSnapshot&)> on_snapshot;
  std::uint32_t snapshot_interval_ms = 500;

  /// Extra executions granted to *transient* failures (ErrorClass
  /// kUnclassified — foreign exceptions, possibly environmental).
  /// Deterministic simulation failures (watchdog, invariant, scenario)
  /// reproduce identically and are never retried.
  int max_retries = 0;

  // --- fault isolation -----------------------------------------------------

  /// Execution mode; see Isolation.  Defaults to in-process.
  Isolation isolation = Isolation::kInProcess;

  /// Per-job resource caps, applied in the child (forked mode only):
  /// address-space and CPU rlimits plus a supervisor-enforced wall-clock
  /// deadline.  Zero fields are uncapped.
  proc::ResourceLimits limits;

  /// Forked mode only: total executions granted to a job whose child dies
  /// a process death (kCrash / kTimeout / kResource) before the job is
  /// quarantined — recorded as failed, never run again this sweep.
  /// Process deaths are retried at all (unlike deterministic simulation
  /// failures) because they can be environmental: a transient OOM from a
  /// co-tenant, an operator kill, a loaded host missing a deadline.
  int quarantine_strikes = 3;

  /// Backoff between those strikes: capped exponential with deterministic
  /// jitter (proc::backoff_ms), base doubling per attempt up to the max.
  /// base 0 disables the sleep (tests).  Sleeps poll `stop` so a drain
  /// request is honored mid-backoff.
  std::uint32_t backoff_base_ms = 100;
  std::uint32_t backoff_max_ms = 2000;

  /// At most this many SweepFailure records are kept per cell; the rest
  /// are counted (SweepReport::failures_suppressed / cell_failures) but
  /// their messages dropped, bounding memory when a whole cell is sick.
  std::size_t max_failures_per_cell = 8;

  /// Graceful-drain flag: when it reads true, workers finish their
  /// in-flight job and stop pulling new ones.  The sweep returns a partial
  /// result with SweepReport::interrupted set (and, when journaling, every
  /// finished job safely on disk).  Typically flipped by a signal handler.
  const std::atomic<bool>* stop = nullptr;

  /// Called once per *final* failure (after retries are exhausted), from
  /// worker threads but serialized; exceptions it throws are swallowed.
  /// run_sweep uses this to journal failures as they happen.
  std::function<void(const SweepFailure&)> on_failure;

  // --- run_sweep only ------------------------------------------------------

  /// Non-empty enables crash-safe journaling: every finished job is
  /// appended (fsync'd) to this file, and a restart against the same grid
  /// resumes from it instead of re-running finished jobs.  A journal whose
  /// grid fingerprint does not match throws JournalMismatchError.
  std::string journal_path;
  /// fsync each journal record (the crash-safety guarantee).  Turn off
  /// only for benchmarks.
  bool journal_sync = true;
  /// Free-form provenance stored in the journal header (e.g. the CLI
  /// arguments that produced the grid), read back by tools/replay.
  std::string journal_note;

  /// run_sweep: throw std::runtime_error summarizing failures once all
  /// jobs drain (historical behaviour).  When false — or whenever the
  /// sweep was interrupted — run_sweep returns normally and callers read
  /// SweepResult::report for triage.
  bool throw_on_failure = true;
};

/// What happened during one sweep_jobs / run_sweep invocation.
struct SweepReport {
  /// Final failures in (cell, seed) order, at most max_failures_per_cell
  /// records per cell (suppressed ones are still counted below).
  std::vector<SweepFailure> failures;
  /// Total failed jobs per cell (including suppressed records), parallel
  /// to the cell list.
  std::vector<std::size_t> cell_failures;
  /// Failure records dropped by the per-cell cap.
  std::size_t failures_suppressed = 0;

  int total = 0;     // jobs in the grid (cells x runs)
  int finished = 0;  // jobs delivered: successes + failures + preloaded
  int succeeded = 0;  // fresh jobs that produced a trace this invocation
  int skipped = 0;    // jobs satisfied from preloaded/journaled results
  int retries = 0;    // extra attempts: transient retries + forked strikes
  int quarantined = 0;       // jobs that exhausted their quarantine strikes
  int progress_errors = 0;   // progress-callback exceptions swallowed
  bool interrupted = false;  // stop flag drained the pool before the end

  /// Jobs still queued when the pool drained (nonzero only when
  /// interrupted) — what a resume would have left to do.
  [[nodiscard]] int remaining() const { return total - finished; }
  /// Total failed jobs, preloaded and fresh, across all cells.
  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (std::size_t c : cell_failures) n += c;
    return n;
  }
};

/// A previously-finished (cell, run) job fed back into the engine: either
/// a successful run (delivered through consume in seed order, exactly as
/// if it had just run) or a recorded failure (re-reported, not re-run).
struct PreloadedRun {
  std::size_t cell = 0;
  int run = 0;
  /// Success: yields the trace when the run's turn in seed order comes, so
  /// a run parked behind a lower seed still executing holds no trace.  A
  /// throw becomes this job's recorded failure.
  std::function<RunTrace()> load;
  std::optional<SweepFailure> failure;  // recorded failure (no re-run)
};

/// Low-level engine: run every (cell, seed) job of the grid on one shared
/// worker pool (the calling thread plus threads-1 spawned ones).
/// `consume(cell_index, run_index, trace)` is invoked once per successful
/// run from worker threads; calls for any one cell are serialized and
/// arrive in seed order (failed runs produce no call but still advance the
/// order), interleaved arbitrarily across cells.
/// `preloaded` jobs are delivered first (on the calling thread, in the
/// order given; a run that must wait for a lower seed is loaded later, on
/// the worker that delivers that seed) and their slots never execute.
/// Every remaining job executes even when others fail — unless opts.stop
/// flips, which drains the pool gracefully.  Failures come back sorted by
/// (cell, seed) in the report.  Throws std::invalid_argument for runs <= 0,
/// an invalid cell scenario, or an out-of-range/duplicate preloaded slot,
/// before any worker spawns.
[[nodiscard]] SweepReport sweep_jobs(
    const std::vector<SweepCell>& cells, const SweepOptions& opts,
    const std::function<void(std::size_t, int, RunTrace&&)>& consume,
    const std::vector<PreloadedRun>& preloaded = {});

/// The sweep's output: one ConditionResult per cell, parallel to `cells`.
struct SweepResult {
  std::vector<SweepCell> cells;
  std::vector<ConditionResult> results;
  SweepReport report;
};

/// Run the whole grid with streaming aggregation (one ConditionAccumulator
/// per cell), journaling and resuming via opts.journal_path when set.
/// With opts.throw_on_failure (the default) a completed sweep with
/// failures throws std::runtime_error listing them (capped per cell); an
/// interrupted sweep always returns normally with report.interrupted set
/// so the partial (journaled) state reaches the caller.
[[nodiscard]] SweepResult run_sweep(std::vector<SweepCell> cells,
                                    const SweepOptions& opts);

/// SweepSpec convenience overload: expand the cross product and run it.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const SweepOptions& opts);

}  // namespace cgs::core
