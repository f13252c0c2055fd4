// End-to-end daemon tests over a real loopback socket: submit/watch/done
// round trips, structured errors on a surviving session, bad-frame
// handling, slow-subscriber bounds, watch reconnect with seq resume, and
// the drain -> restart -> journal-resume path asserting byte-identical
// CSVs against an uninterrupted reference run.
#include "svc/server.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/proc.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "svc/job_store.hpp"
#include "svc/protocol.hpp"

namespace cgs::svc {
namespace {

std::string tmp_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_server_" + name;
  (void)::mkdir(path.c_str(), 0755);
  for (int id = 1; id <= 4; ++id) {
    const std::string base = path + "/job-" + std::to_string(id);
    for (const char* suffix : {".jnl", "_cells.csv", "_links.csv",
                               "_fleet.csv"}) {
      std::remove((base + suffix).c_str());
    }
  }
  std::remove((path + "/sweepd.state").c_str());
  std::remove((path + "/ref_cells.csv").c_str());
  std::remove((path + "/ref_links.csv").c_str());
  return path;
}

/// Fast inline cell: the 2-simulated-second full mix the sweep tests use.
KvMap quick_spec(int runs) {
  KvMap spec;
  spec["system"] = "stadia";
  spec["cc"] = "cubic";
  spec["duration_s"] = "2";
  spec["tcp_start_s"] = "0.5";
  spec["tcp_stop_s"] = "1.5";
  spec["seed"] = "100";
  spec["runs"] = std::to_string(runs);
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Blocking protocol client for tests.
class TestClient {
 public:
  explicit TestClient(int port) {
    (void)::signal(SIGPIPE, SIG_IGN);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(std::uint16_t(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send(MsgType type, std::string_view payload) {
    const auto bytes = encode_frame(type, payload);
    ASSERT_TRUE(core::proc::write_exact(fd_, bytes.data(), bytes.size()));
  }

  void send_raw(const void* data, std::size_t n) {
    ASSERT_TRUE(core::proc::write_exact(fd_, data, n));
  }

  /// Next frame within `timeout_ms`; false on timeout, EOF or bad bytes.
  bool recv_frame(Frame& out, int timeout_ms = 60'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const FrameParser::Status st = parser_.next(out);
      if (st == FrameParser::Status::kFrame) return true;
      if (st == FrameParser::Status::kBad) return false;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, int(left.count()));
      if (pr <= 0 && errno != EINTR) return false;
      unsigned char chunk[4096];
      const long r = core::proc::read_some(fd_, chunk, sizeof chunk);
      if (r <= 0) return false;  // EOF or error
      parser_.feed(chunk, std::size_t(r));
    }
  }

  /// Drain frames until one of `type` arrives (collecting everything).
  bool recv_until(MsgType type, std::vector<Frame>& seen,
                  int timeout_ms = 120'000) {
    Frame f;
    while (recv_frame(f, timeout_ms)) {
      seen.push_back(f);
      if (f.type == type) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameParser parser_;
};

/// Server on an OS-chosen port plus the thread running it.
class DaemonFixture {
 public:
  explicit DaemonFixture(ServerConfig cfg) : server_(std::move(cfg)) {
    port_ = server_.listen();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~DaemonFixture() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.request_drain();
      thread_.join();
    }
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  int port_ = 0;
  std::thread thread_;
};

ServerConfig quick_config(const std::string& dir) {
  ServerConfig cfg;
  cfg.dir = dir;
  cfg.port = 0;  // OS-chosen: tests must never hardcode ports
  cfg.snapshot_ms = 10;
  cfg.default_runs = 2;
  cfg.journal_sync = false;  // in-process tests don't crash; fsync is slow
  return cfg;
}

TEST(Svc, SessionSocketIsNonBlockingWithNoDelay) {
  // An accepted loopback connection, prepared exactly as the server
  // prepares each session.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // port 0: kernel-chosen
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int cfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(cfd, 0);
  ASSERT_EQ(::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(sfd, 0);

  prepare_session_socket(sfd);
  int nodelay = 0;
  socklen_t optlen = sizeof nodelay;
  ASSERT_EQ(::getsockopt(sfd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &optlen),
            0);
  EXPECT_EQ(nodelay, 1);
  EXPECT_NE(::fcntl(sfd, F_GETFL, 0) & O_NONBLOCK, 0);

  ::close(sfd);
  ::close(cfd);
  ::close(lfd);
}

TEST(Svc, SubmitWatchStreamsSnapshotsToDone) {
  const std::string dir = tmp_dir("submit");
  DaemonFixture daemon(quick_config(dir));
  TestClient client(daemon.port());
  ASSERT_TRUE(client.connected());

  client.send(MsgType::kSubmit, encode_kv(quick_spec(2)));
  Frame f;
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kAccepted) << f.text();
  const KvMap ack = parse_kv(f.text());
  EXPECT_EQ(kv_get(ack, "job"), "1");
  EXPECT_FALSE(kv_get(ack, "journal").empty());

  client.send(MsgType::kWatch, "job=1\n");
  std::vector<Frame> seen;
  ASSERT_TRUE(client.recv_until(MsgType::kDone, seen));

  int snapshots = 0;
  for (const Frame& fr : seen) {
    if (fr.type == MsgType::kSnapshot) ++snapshots;
  }
  EXPECT_GE(snapshots, 1) << "watch must stream at least one snapshot";

  const KvMap done = parse_kv(seen.back().text());
  EXPECT_EQ(kv_get(done, "job"), "1");
  EXPECT_EQ(kv_get(done, "state"), "done");
  const std::string prefix = kv_get(done, "csv");
  ASSERT_FALSE(prefix.empty());
  const std::string cells = slurp(prefix + "_cells.csv");
  EXPECT_NE(cells.find("cell,runs,"), std::string::npos)
      << "per-cell CSV must exist with its header";
}

TEST(Svc, StructuredErrorsLeaveTheSessionUsable) {
  const std::string dir = tmp_dir("errors");
  DaemonFixture daemon(quick_config(dir));
  TestClient client(daemon.port());
  ASSERT_TRUE(client.connected());
  Frame f;

  client.send(MsgType::kSubmit, "grid=no-such-grid\n");
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "unknown-grid");

  KvMap bad = quick_spec(1);
  bad["cc"] = "warp-drive";
  client.send(MsgType::kSubmit, encode_kv(bad));
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "invalid-scenario");

  KvMap invalid = quick_spec(1);
  invalid["duration_s"] = "-3";
  client.send(MsgType::kSubmit, encode_kv(invalid));
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "invalid-scenario");

  client.send(MsgType::kWatch, "job=42\n");
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "unknown-job");

  client.send(MsgType::kCancel, "job=42\n");
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "unknown-job");

  // After all that abuse the session still serves status.
  client.send(MsgType::kStatus, "");
  ASSERT_TRUE(client.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kReport);
}

TEST(Svc, MalformedBytesGetOneBadFrameErrorThenClose) {
  const std::string dir = tmp_dir("badframe");
  DaemonFixture daemon(quick_config(dir));
  TestClient client(daemon.port());
  ASSERT_TRUE(client.connected());

  const char junk[] = "GET / HTTP/1.1\r\n\r\n";  // a confused port scanner
  client.send_raw(junk, sizeof junk - 1);
  Frame f;
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "bad-frame");
  // Framing is lost: the daemon closes after the goodbye.
  EXPECT_FALSE(client.recv_frame(f, 10'000));

  // ...and a fresh, well-behaved session works fine.
  TestClient again(daemon.port());
  ASSERT_TRUE(again.connected());
  again.send(MsgType::kStatus, "");
  ASSERT_TRUE(again.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kReport);
}

TEST(Svc, SlowSubscriberNeverDelaysSweepCompletion) {
  const std::string dir = tmp_dir("slowsub");
  ServerConfig cfg = quick_config(dir);
  cfg.client_buffer_bytes = 512;  // tiny: force snapshot drops
  cfg.snapshot_ms = 1;            // and lots of snapshots to drop
  DaemonFixture daemon(cfg);

  TestClient stalled(daemon.port());
  ASSERT_TRUE(stalled.connected());
  stalled.send(MsgType::kSubmit, encode_kv(quick_spec(3)));
  Frame f;
  ASSERT_TRUE(stalled.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kAccepted);
  stalled.send(MsgType::kWatch, "job=1\n");
  // ...and then the stalled client never reads again.

  // A healthy client watches the same job to completion: the stalled
  // subscriber's full buffer must not slow the sweep or the daemon.
  TestClient healthy(daemon.port());
  ASSERT_TRUE(healthy.connected());
  healthy.send(MsgType::kWatch, "job=1\n");
  std::vector<Frame> seen;
  ASSERT_TRUE(healthy.recv_until(MsgType::kDone, seen));
  EXPECT_EQ(kv_get(parse_kv(seen.back().text()), "state"), "done");

  // The stalled session is still connected and, once it finally reads,
  // catches up to the terminal state (possibly marked lossy).
  std::vector<Frame> late;
  ASSERT_TRUE(stalled.recv_until(MsgType::kDone, late));
  EXPECT_EQ(kv_get(parse_kv(late.back().text()), "state"), "done");
}

TEST(Svc, WatchReconnectWithSeqSkipsOldSnapshots) {
  const std::string dir = tmp_dir("reconnect");
  DaemonFixture daemon(quick_config(dir));
  {
    TestClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    client.send(MsgType::kSubmit, encode_kv(quick_spec(2)));
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    ASSERT_EQ(f.type, MsgType::kAccepted);
    client.send(MsgType::kWatch, "job=1\n");
    std::vector<Frame> seen;
    ASSERT_TRUE(client.recv_until(MsgType::kDone, seen));
  }  // disconnect

  // Reconnect claiming a seq far past everything published: no stale
  // snapshot replays, just the terminal notification.
  TestClient back(daemon.port());
  ASSERT_TRUE(back.connected());
  back.send(MsgType::kWatch, "job=1\nseq=999999\n");
  Frame f;
  ASSERT_TRUE(back.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kDone) << f.text();

  // Reconnect from seq=0 replays the latest snapshot first.
  TestClient fresh(daemon.port());
  ASSERT_TRUE(fresh.connected());
  fresh.send(MsgType::kWatch, "job=1\n");
  ASSERT_TRUE(fresh.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kSnapshot);
  ASSERT_TRUE(fresh.recv_frame(f));
  EXPECT_EQ(f.type, MsgType::kDone);
}

TEST(Svc, DrainRequeuesInFlightJobAndRestartResumesByteIdentical) {
  const std::string dir = tmp_dir("resume");

  // Reference: the same cell run uninterrupted, straight on the engine.
  const KvMap spec = quick_spec(4);
  {
    core::SweepOptions opts;
    opts.runs = 4;
    core::SweepResult ref =
        core::run_sweep(inline_cells_from_spec(spec), opts);
    (void)core::write_sweep_csvs(dir + "/ref", ref);
  }

  // Incarnation 1: submit, wait for the first snapshot, then drain — the
  // in-flight job is interrupted, journaled and re-queued.
  {
    ServerConfig cfg = quick_config(dir);
    cfg.journal_sync = true;  // the crash-safety contract under test
    DaemonFixture daemon(cfg);
    TestClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    client.send(MsgType::kSubmit, encode_kv(spec));
    Frame f;
    ASSERT_TRUE(client.recv_frame(f));
    ASSERT_EQ(f.type, MsgType::kAccepted) << f.text();
    client.send(MsgType::kWatch, "job=1\n");
    ASSERT_TRUE(client.recv_frame(f));
    daemon.stop();  // graceful drain mid-sweep
    JobState state{};
    ASSERT_TRUE(daemon.server().store().snapshot(1, &state, nullptr, nullptr,
                                                 nullptr, nullptr));
    // Usually kQueued (interrupted + re-queued); kDone only if the sweep
    // outran the drain.  Either way the restart below must converge.
    EXPECT_TRUE(state == JobState::kQueued || state == JobState::kDone)
        << to_string(state);
  }

  // Incarnation 2: recovery re-admits the job, the journal resume path
  // replays finished runs and executes the rest.
  {
    ServerConfig cfg = quick_config(dir);
    cfg.journal_sync = true;
    DaemonFixture daemon(cfg);
    TestClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    client.send(MsgType::kWatch, "job=1\n");
    std::vector<Frame> seen;
    ASSERT_TRUE(client.recv_until(MsgType::kDone, seen));
    EXPECT_EQ(kv_get(parse_kv(seen.back().text()), "state"), "done");
  }

  // The whole point: the interrupted-and-resumed run's per-cell CSV is
  // byte-identical to the uninterrupted reference.
  const std::string resumed = slurp(dir + "/job-1_cells.csv");
  const std::string reference = slurp(dir + "/ref_cells.csv");
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed, reference);
}

TEST(Svc, SubmitDuringDrainIsRefusedStructurally) {
  const std::string dir = tmp_dir("draining");
  ServerConfig cfg = quick_config(dir);
  DaemonFixture daemon(cfg);
  TestClient client(daemon.port());
  ASSERT_TRUE(client.connected());

  // Keep the runner busy so the poll loop outlives the drain request long
  // enough to answer us.
  client.send(MsgType::kSubmit, encode_kv(quick_spec(4)));
  Frame f;
  ASSERT_TRUE(client.recv_frame(f));
  ASSERT_EQ(f.type, MsgType::kAccepted);

  daemon.server().request_drain();
  client.send(MsgType::kSubmit, encode_kv(quick_spec(1)));
  if (client.recv_frame(f, 30'000)) {
    ASSERT_EQ(f.type, MsgType::kError);
    EXPECT_EQ(kv_get(parse_kv(f.text()), "name"), "draining");
  }
  // (If the daemon won the race and closed first, the refusal is the
  // closed socket itself — equally structural, nothing hung.)
  daemon.stop();
}

}  // namespace
}  // namespace cgs::svc
