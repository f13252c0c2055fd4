// Job admission, lifecycle and crash-tolerant persistence for the sweep
// service.
//
// The store is the daemon's single source of truth about jobs: a bounded
// FIFO admission queue (beyond capacity, submissions are rejected with a
// structured queue-full error carrying an advisory retry-after — memory
// stays bounded, the *client* holds the backlog), the per-job state
// machine, and two on-disk artifacts per job under the daemon's state
// directory:
//
//   job-<id>.jnl   the sweep's fsync'd run journal (core/journal) — the
//                  ground truth for results, including the submission spec
//                  in the journal's provenance note
//   job-<id>_*.csv the output set (core/report::write_sweep_csvs), written
//                  when the job completes
//
// plus one shared state log, sweepd.state, recording job ids, specs and
// states.  The log is an 8-byte tag and a u32 version, then CRC-framed
// records (u32 body length | body | u32 CRC of both).  Submit appends a
// record carrying the whole job, spec included; every later transition
// (claim, finish, cancel, requeue) appends one carrying only the id, the
// state and the error.  Each append is fdatasync'd before the call
// returns, so a job is durable before its admission ack, and a transition
// costs one small record however many jobs the daemon has seen: over 1000
// jobs on a 4-vCPU VM, 0.06-0.08 ms per transition throughout, where a
// whole-table rewrite (tmp + fsync + rename) per transition grew from 0.20
// to 1.06 ms.
//
// Recovery after any death — clean drain or kill -9 — replays the log
// (the last record for an id wins) and stops at the first torn or corrupt
// record, keeping everything before it: the run journal's torn-tail rule.
// A missing log or one with a bad tag or version (the old snapshot format
// included) is ignored.  Recovery then rescans the directory for job
// journals the log missed, reading only their headers (the journal note
// re-derives the spec),
// re-queues every non-terminal job, writes the compacted log once (tmp +
// fsync + rename), and resumes each job from its journal.  A job whose
// `finish` record was torn is still running in the log, so it is
// re-queued and resumes from its complete journal.  Because resume feeds
// journaled results through the same seed-order delivery path, a recovered
// job's CSVs are byte-identical to an uninterrupted run's.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "svc/protocol.hpp"

namespace cgs::svc {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

[[nodiscard]] std::string_view to_string(JobState s);

[[nodiscard]] constexpr bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// One submitted sweep.  Everything except `stop` is guarded by the
/// store's mutex; `stop` is the graceful-drain flag handed to the sweep
/// engine, flipped by cancel/drain from other threads.
struct Job {
  std::uint64_t id = 0;
  KvMap spec;
  JobState state = JobState::kQueued;
  std::atomic<bool> stop{false};
  bool cancel_requested = false;  // distinguishes cancel from daemon drain
  std::string error;              // terminal detail (failed/cancelled)
  core::ProgressSnapshot progress;
  bool have_progress = false;
};

/// Build the single cell of an inline (non-named-grid) submission from its
/// kv spec.  Recognized keys: system (stadia|geforce|luna), cc
/// (cubic|bbr|reno|vegas|none), cap_mbps, queue (xBDP), base_rtt_ms,
/// duration_s, tcp_start_s, tcp_stop_s, seed.  Unknown keys are ignored
/// (runs/grid belong to other layers); malformed values throw
/// std::invalid_argument naming the key — which the server maps to a
/// structured invalid-scenario error, not a dead session.
[[nodiscard]] std::vector<core::SweepCell> inline_cells_from_spec(
    const KvMap& spec);

/// Thread-safe job table + bounded queue + persistence.
class JobStore {
 public:
  JobStore(std::string dir, std::size_t max_queue);
  ~JobStore();

  /// What admission decided.  err == kNone: admitted as job `id`.
  /// err == kQueueFull: retry_after_s carries the advisory backoff.
  struct Admission {
    core::ProtoError err = core::ProtoError::kNone;
    std::uint64_t id = 0;
    double retry_after_s = 0;
    std::string message;
  };

  /// Admit one spec into the queue (state is persisted before returning).
  [[nodiscard]] Admission submit(KvMap spec);

  /// Runner: claim the oldest queued job, marking it running.  0 = empty.
  [[nodiscard]] std::uint64_t claim_next();

  /// Runner: move a running job to a terminal state (persists).
  void finish(std::uint64_t id, JobState final_state, std::string error);

  /// Runner: a drain interrupted this running job — back to the queue
  /// front, journal intact, for the next daemon incarnation (persists).
  void requeue_front(std::uint64_t id);

  /// Cancel: queued jobs go terminal immediately; running jobs get their
  /// stop flag flipped (the runner finishes them as cancelled).  Returns
  /// kUnknownJob for ids the store has never seen; cancelling a terminal
  /// job is a no-op success.
  core::ProtoError cancel(std::uint64_t id);

  /// Pointer to a job (stable across map growth) or nullptr.  The caller
  /// may read `stop` freely; other fields only via store methods.
  [[nodiscard]] Job* find(std::uint64_t id);

  /// Mirror the latest engine snapshot into the job (for status listings).
  void update_progress(std::uint64_t id, const core::ProgressSnapshot& s);

  /// Copy out one job's fields.  False when unknown.
  bool snapshot(std::uint64_t id, JobState* state, KvMap* spec,
                std::string* error, core::ProgressSnapshot* progress,
                bool* have_progress) const;

  /// Human-facing listing of every job, oldest first.
  [[nodiscard]] std::string status_text() const;

  [[nodiscard]] std::size_t queued_count() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string journal_path(std::uint64_t id) const;
  [[nodiscard]] std::string csv_prefix(std::uint64_t id) const;
  [[nodiscard]] std::string state_path() const;

  /// Restart recovery: replay the state log up to its first torn or
  /// corrupt record (a missing or unreadable log is ignored, not fatal),
  /// rescan the directory for job journals the log missed, re-queue every
  /// non-terminal job oldest-first and rewrite the log compacted.  Returns
  /// the ids that were running, re-queued for resume.
  std::vector<std::uint64_t> recover();

 private:
  /// Persist one transition of `job` as an appended, fdatasync'd record
  /// (`with_spec`: the admission record).  With no log open yet, writes
  /// the whole table instead.
  void append_locked(const Job& job, bool with_spec);
  /// Write every job to a fresh log (tmp + fsync + rename) and keep it
  /// open for appends.
  void rewrite_log_locked();

  std::string dir_;
  std::size_t max_queue_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> queue_;
  int log_fd_ = -1;  // sweepd.state, open for appends
};

}  // namespace cgs::svc
