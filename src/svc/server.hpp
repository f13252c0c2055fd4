// cgs-sweepd's engine room: a single-threaded poll() server plus one
// sweep-runner thread.
//
// The server thread owns the listening socket, every client session and
// all connection state; the runner thread owns the sweep engine.  They
// meet in exactly three thread-safe places — the JobStore (admission and
// lifecycle), the SnapshotPublisher (latest progress per job) and a
// self-wake pipe — so neither can stall the other: a slow subscriber
// costs the runner nothing, and a long sweep costs connection handling
// nothing.
//
// Robustness policy, end to end:
//
//   admission      bounded queue; beyond capacity a submission is refused
//                  with queue-full + advisory retry_after_s
//   validation     the resolver and Scenario::validate() run at submit
//                  time; failures become structured protocol errors on a
//                  live session
//   bad bytes      a frame failing magic/CRC/length gets one bad-frame
//                  error, then the session closes (framing is lost);
//                  well-framed nonsense gets bad-request and the session
//                  lives
//   slow readers   bounded per-session send buffer; snapshots beyond the
//                  cap are dropped and flagged (`lossy=1`), and the server
//                  stops reading from over-cap sessions so control frames
//                  stay bounded too
//   stuck jobs     every job runs under a wall-clock budget: the forked
//                  supervisor's deadline (forked mode) or the in-sim
//                  wall watchdog (in-process) — a wedged job becomes a
//                  failed job, never a wedged daemon
//   drain          SIGTERM/SIGINT -> request_drain() (signal-safe): stop
//                  accepting, gracefully stop the in-flight sweep (its
//                  finished jobs are journaled) and log it as re-queued,
//                  exit
//   crash          kill -9 loses nothing durable: on restart the store
//                  rescans its directory and re-queues every non-terminal
//                  job, which resumes from its journal with results
//                  byte-identical to an uninterrupted run
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/proc.hpp"
#include "core/sweep.hpp"
#include "svc/job_store.hpp"
#include "svc/protocol.hpp"
#include "svc/publisher.hpp"

namespace cgs::svc {

/// Turn a submission spec into the cell list it describes.  Empty return =
/// the spec names a grid this daemon does not know (unknown-grid error);
/// std::invalid_argument / ScenarioError = invalid-scenario error.  The
/// same resolver runs at admission (validation) and again in the runner
/// (execution), so it must be deterministic — journal resume depends on
/// the grid resolving identically across daemon restarts.
using GridResolver =
    std::function<std::vector<core::SweepCell>(const KvMap& spec)>;

/// Resolver used when none is configured: inline single-cell specs only
/// (any "grid" key is unknown — named grids live in the tools layer).
[[nodiscard]] std::vector<core::SweepCell> default_resolver(const KvMap& spec);

/// Set up an accepted session socket: non-blocking, and TCP_NODELAY so a
/// small frame is sent at once instead of waiting out the client's
/// delayed ACK behind Nagle's algorithm.
void prepare_session_socket(int fd);

struct ServerConfig {
  /// State directory: journals, CSVs and the job-state log live here.
  std::string dir = ".";
  /// TCP port on 127.0.0.1; 0 = kernel-chosen (listen() returns it).
  int port = 0;
  /// Admission-queue capacity (backpressure bound).
  std::size_t max_queue = 16;
  /// Per-session outgoing byte cap (slow-subscriber bound).
  std::size_t client_buffer_bytes = 256 * 1024;
  /// Engine snapshot throttle and the poll tick, in ms.
  std::uint32_t snapshot_ms = 200;
  /// Sweep threads per job (0 = hardware concurrency).
  int threads = 0;
  /// Runs per cell when the spec does not say (`runs=` key).
  int default_runs = 5;
  /// Run jobs under forked isolation (core/proc supervisor).
  bool forked = false;
  /// Forked-mode per-job rlimits.
  core::proc::ResourceLimits limits;
  /// Stuck-job wall budget in seconds (0 = none): forked jobs get the
  /// supervisor deadline, in-process jobs the in-sim wall watchdog.
  double job_wall_s = 0;
  /// fsync journal records (the crash-safety guarantee).
  bool journal_sync = true;
  /// Spec -> cells; defaults to default_resolver.
  GridResolver resolver;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind 127.0.0.1:{cfg.port} and listen.  Returns the chosen port
  /// (meaningful with port 0).  Throws std::runtime_error on failure.
  int listen();

  /// Recover state, start the runner, serve until a drain completes.
  void run();

  /// Async-signal-safe drain trigger (call it from SIGTERM/SIGINT
  /// handlers): atomically flags the drain and pokes the wake pipe.
  void request_drain();

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] JobStore& store() { return store_; }

 private:
  struct Session;

  void wake();
  void accept_clients();
  void handle_readable(Session& s);
  void handle_writable(Session& s);
  void dispatch(Session& s, const Frame& f);
  void handle_submit(Session& s, const Frame& f);
  void handle_watch(Session& s, const Frame& f);
  void push_snapshots();
  void publish_job(std::uint64_t id, const core::ProgressSnapshot& snap,
                   bool terminal);
  void publish_terminal(std::uint64_t id);
  void send_frame(Session& s, MsgType type, std::string_view payload,
                  bool droppable = false);
  void send_error(Session& s, core::ProtoError code, std::string_view msg,
                  double retry_after_s = 0);
  void begin_drain();
  void runner_main();
  void run_job(std::uint64_t id);

  ServerConfig cfg_;
  JobStore store_;
  SnapshotPublisher publisher_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_fds_[2] = {-1, -1};
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<bool> drain_flag_{false};  // set by request_drain (signals)
  bool draining_ = false;                // server thread's view
  std::atomic<bool> runner_done_{false};
  std::atomic<std::uint64_t> current_job_{0};
  // Runner wakeup (submit/drain -> runner).
  std::mutex runner_mu_;
  std::condition_variable runner_cv_;
  std::thread runner_thread_;
};

}  // namespace cgs::svc
