// Shared plumbing for the repo benchmark: clocks, CPU/RSS readings,
// order statistics, the span tracer, the allocation counter switch, the
// scratch directory and the result a workload hands back to main().
//
// Everything here sits outside the library: the benchmark times the
// public calls it makes and reads public counters after each run.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/collectors.hpp"
#include "core/journal.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process plus its reaped children.
[[nodiscard]] double cpu_seconds();
/// User + system CPU seconds of reaped children only.
[[nodiscard]] double child_cpu_seconds();
/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

// --- allocation counter ------------------------------------------------------
//
// alloc_count.cpp replaces the global operator new; it counts only while
// the switch is on, which the traced rounds flip around the calls they
// attribute.  Atomic so pool threads can allocate while it is on.

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
[[nodiscard]] AllocCounts alloc_counts();

// --- spans -------------------------------------------------------------------

/// One timed public call: its name, the job it belongs to (cell/seed or a
/// submission id, packed by the workload), its interval and the span that
/// contained it (-1 = a root span).
struct Span {
  const char* name = "";
  std::uint64_t job = 0;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

/// In-memory span recorder, written out once at exit.  Only the main
/// thread opens scoped spans; pool-side spans are added after the fact
/// with add().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Spans are recorded only while the tracer is enabled and active; the
  /// workloads activate it for their traced rounds only.
  [[nodiscard]] bool enabled() const { return enabled_ && active_; }
  [[nodiscard]] bool tracing() const { return enabled_; }
  void set_active(bool on) { active_ = on; }
  /// Seconds since the tracer was created (span timestamps use this base).
  [[nodiscard]] double now() const { return seconds_since(t0_); }

  int open(const char* name, std::uint64_t job);
  void close(int idx);
  /// Record a finished span whose interval was measured elsewhere.
  void add(const char* name, std::uint64_t job, double start_s, double end_s,
           int parent);

  /// Per-name totals: (name, count, total seconds, self seconds), self =
  /// duration minus the time covered by child spans.
  struct Row {
    std::string name;
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  [[nodiscard]] std::vector<Row> summary() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// TSV: index, parent, job, name, start_s, end_s.
  void write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  bool active_ = false;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span around one call; a no-op when the tracer is off.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t job)
      : t_(t), idx_(t.enabled() ? t.open(name, job) : -1) {}
  ~Scoped() {
    if (idx_ >= 0) t_.close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// --- scratch -----------------------------------------------------------------

/// A fresh mkdtemp directory under `parent`, removed with everything in it
/// when the object dies.
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// A fresh empty subdirectory.
  [[nodiscard]] std::filesystem::path subdir(const std::string& name) const;

 private:
  std::filesystem::path path_;
};

[[nodiscard]] std::string read_file(const std::filesystem::path& p);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload invocation hands back.  `e2e` and `layer` must carry
/// exactly the names BENCHMARK.json lists, in any order.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;  // failed checks, for stderr
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> e2e_traced;  // the same figures from traced rounds
  std::vector<Metric> layer;
  /// Human-only figures (printed, not in the JSON line).
  std::vector<Metric> extra;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Everything a workload needs from the command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_root;  // scratch and span output live here
  int threads = 1;                  // pool size for fig3_grid
};

// --- host speed --------------------------------------------------------------
//
// Other tenants of a shared host change the speed of cache- and
// memory-bound code by tens of percent, in phases that outlast a run, so a
// raw wall time measures the neighbours as much as the program.  (On the
// reference host a core flips between a calm and a ~1.5x slower contended
// state every fraction of a second, and the contended share drifts over
// seconds to minutes.)  Before the first round and after every round
// paper_run, parkinglot and sweepd_jobs therefore time a probe: a fixed
// kernel in the benchmark's own code (binary-heap event queues stamping
// 128-512 KiB tables, the shape of the simulator's hot loop) that no
// library change can touch.  Each round's timings are reported scaled by its host scale,
// kProbeRefS over the mean probe time of the gaps just before and just
// after it: seconds on an uncontended core of the reference host.  The
// mean, not the median: a probe pass sees one state, and the round pays
// for the share of time spent in each.

/// Probe time of one uncontended thread of the reference host (a 4-vCPU
/// Xeon VM, g++ -O3).
inline constexpr double kProbeRefS = 0.010;
/// Probe passes in one gap between rounds.
inline constexpr int kProbesPerGap = 4;

/// Time one gap's probe passes on the calling thread, appending each time
/// to `out`; returns their mean.
double probe_host(std::vector<double>& out);

/// The host scale of a round between two probe gaps.
[[nodiscard]] inline double host_scale(double gap_before_s,
                                       double gap_after_s) {
  return 2 * kProbeRefS / (gap_before_s + gap_after_s);
}

/// One round: the workload's fixed unit of work, timed as a whole.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;   // user + sys, this process and its reaped children
  double jobs = 0;    // runs, grid jobs or submissions completed
  double sim_s = 0;   // simulated seconds completed
  double scale = 1;   // host scale (see host_scale); 1 when not probed
  std::vector<double> run_s;          // per simulation run
  std::vector<double> job_latency_s;  // per job, handed over -> result
};

/// The samples the end-to-end metrics are computed from.
struct E2eSamples {
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  /// Every probe pass of the run; set-up time is scaled by kProbeRefS over
  /// their mean.  fig3_grid takes none and is reported as measured: its
  /// four busy workers leave a one-thread probe with a different view of
  /// the host than the pool's.
  std::vector<double> probe_s;
  /// Set when the closed loop is paced by waits more than by cores (the
  /// daemon's): its wall times, latencies and rates are then left
  /// unscaled; set-up and cpu_s are still scaled.
  bool paced = false;
};

/// Round scheduling: alternate traced/untraced rounds when tracing (first
/// round traced, so its deterministic counts always exist), run until
/// `seconds` have elapsed and at least `min_rounds` rounds are done.
struct RoundPlan {
  double seconds = 10;
  int min_rounds = 1;
  bool trace = false;
  [[nodiscard]] bool traced(int round) const {
    return trace && round % 2 == 0;
  }
  [[nodiscard]] bool more(int rounds_done, Clock::time_point t0) const {
    return rounds_done < min_rounds || seconds_since(t0) < seconds;
  }
};

/// Fill the outcome's metrics.  The end-to-end set (BENCHMARK.json order)
/// is made of medians: of the set-up samples, of the rounds' wall and CPU
/// times and rates, and of every run's and job's time over all rounds —
/// each scaled by its round's host scale.  The raw figures go to
/// `out.extra`.  The per-layer set is
/// every BENCHMARK.json name valued from `layer` (names a workload does not
/// observe read 0; an unknown name throws std::logic_error), plus the
/// tracing overhead: median traced vs median untraced round wall.
void finish_e2e(Outcome& out, const E2eSamples& plain,
                const E2eSamples& traced, std::map<std::string, double>& layer,
                const Tracer& tr);

/// Counts a journaled trace carries: game-stream packets received and lost
/// (latest cumulative sample of each game flow) and drops (latest
/// cumulative sample of each link).
struct TraceCounts {
  double recv = 0, lost = 0, drops = 0;
};
[[nodiscard]] TraceCounts trace_counts(const cgs::core::RunTrace& t);

/// FNV-1a of a byte string (the journal's hash, from the FNV offset basis).
[[nodiscard]] std::uint64_t fnv_digest(const std::string& bytes);

/// A journal's records in (cell, run) order: FNV-1a over their trace
/// hashes, their summed payload bytes, and whether every record is ok.
struct JournalDigest {
  std::uint64_t trace_digest = 0;
  std::uint64_t trace_bytes = 0;
  std::size_t records = 0;
  bool all_ok = true;
};
[[nodiscard]] JournalDigest digest_journal(const cgs::core::JournalScan& scan);

// The four workloads.
[[nodiscard]] Outcome run_paper_run(const Args& a, Tracer& tr);
[[nodiscard]] Outcome run_parkinglot(const Args& a, Tracer& tr);
[[nodiscard]] Outcome run_fig3_grid(const Args& a, Tracer& tr);
[[nodiscard]] Outcome run_sweepd_jobs(const Args& a, Tracer& tr);

/// The three 90-s golden cells must hash to the test-suite constants.
void check_golden(Outcome& out);

/// Print this build's pin tables (the body of pins.inc), per workload.
void print_sequential_pins();
void print_fig3_pins(const Args& a);
void print_sweepd_pins(const Args& a);

}  // namespace perfbench
