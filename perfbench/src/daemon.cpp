// sweepd_jobs: svc::Server on a loopback port chosen by binding port 0,
// with forked isolation and fsync journaling.  One client connection
// submits short inline cells (4 simulated seconds, 4 runs each) in a closed
// loop: submit, watch until done, then submit the next.  Afterwards the
// daemon is restarted over its state directory, and every submission's
// CSVs are compared byte for byte with in-process run_sweep on the same
// cells.
//
// Every daemon start-up (the set-up samples, the serving daemon and the
// restart) is one attempted operation.  A start-up whose first connection
// the daemon drops before answering counts as failed: its sample is lost
// and a fresh daemon is started in its place.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cgstream.hpp"
#include "pins.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace perfbench {

namespace {

using cgs::svc::Frame;
using cgs::svc::KvMap;
using cgs::svc::MsgType;

/// Set-up samples taken before the first round and before each later one,
/// so their median spans the whole window.
constexpr int kSetupFirst = 10;
constexpr int kSetupPerRound = 4;
/// Start-ups tried in a row before the workload gives up.
constexpr int kStartAttempts = 5;
constexpr int kRunsPerJob = 4;
constexpr double kSimPerRun = 4.0;
constexpr int kJobsPerRound = 20;
constexpr int kReplyTimeoutMs = 60'000;

/// The pinned inline specs: systems, algorithms, capacities and queues
/// vary across the set; each is 4 simulated seconds with the competing
/// flow over [1 s, 3 s).
KvMap job_spec(std::uint64_t index) {
  static const char* kSys[] = {"stadia", "geforce", "luna"};
  static const char* kCap[] = {"15", "25", "35"};
  static const char* kQueue[] = {"0.5", "2", "7"};
  KvMap kv;
  kv["system"] = kSys[index % 3];
  kv["cc"] = index % 2 == 0 ? "cubic" : "bbr";
  kv["cap_mbps"] = kCap[(index / 2) % 3];
  kv["queue"] = kQueue[(index / 3) % 3];
  kv["duration_s"] = "4";
  kv["tcp_start_s"] = "1";
  kv["tcp_stop_s"] = "3";
  kv["seed"] = std::to_string(101 + index);
  kv["runs"] = std::to_string(kRunsPerJob);
  return kv;
}

/// The daemon closed or reset a connection before sending any frame.
struct Dropped : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Blocking loopback client speaking the daemon's framed protocol.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(std::uint16_t(port));
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot reach the daemon on port " +
                               std::to_string(port));
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(MsgType type, const std::string& payload) {
    const auto bytes = cgs::svc::encode_frame(type, payload);
    if (!cgs::core::proc::write_exact(fd_, bytes.data(), bytes.size())) {
      throw std::runtime_error("daemon connection lost while sending");
    }
  }

  Frame recv() {
    Frame f;
    for (;;) {
      const auto st = parser_.next(f);
      if (st == cgs::svc::FrameParser::Status::kFrame) {
        ++frames_;
        return f;
      }
      if (st == cgs::svc::FrameParser::Status::kBad) {
        throw std::runtime_error("bad frame from daemon: " +
                                 parser_.bad_reason());
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kReplyTimeoutMs) <= 0) {
        throw std::runtime_error("daemon reply timed out");
      }
      unsigned char chunk[8192];
      const long r = cgs::core::proc::read_some(fd_, chunk, sizeof chunk);
      if (r <= 0) {
        const std::string what =
            std::string("daemon closed the connection (") +
            (r == 0 ? "EOF" : std::strerror(errno)) + ") after " +
            std::to_string(frames_) + " frames";
        if (frames_ == 0) throw Dropped(what);
        throw std::runtime_error(what);
      }
      parser_.feed(chunk, std::size_t(r));
    }
  }

 private:
  int fd_ = -1;
  cgs::svc::FrameParser parser_;
  std::size_t frames_ = 0;
};

/// A listening daemon with its serve loop on a thread; drained and joined
/// on destruction.
class Daemon {
 public:
  explicit Daemon(const std::filesystem::path& dir) : server_(config(dir)) {
    port_ = server_.listen();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: daemon stopped: %s\n", e.what());
      }
    });
  }
  ~Daemon() {
    server_.request_drain();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

 private:
  static cgs::svc::ServerConfig config(const std::filesystem::path& dir) {
    cgs::svc::ServerConfig c;
    c.dir = dir.string();
    c.port = 0;
    c.threads = 1;
    c.default_runs = kRunsPerJob;
    c.forked = true;
    c.journal_sync = true;
    c.job_wall_s = 60;
    return c;
  }

  cgs::svc::Server server_;
  int port_ = 0;
  std::thread thread_;
};

/// Listen, recover, connect and get the first reply: the daemon is ready.
/// Returns the time that took, or nothing when the daemon dropped the
/// connection first; that start-up is then counted as a failed operation
/// in `out`, with the reason on stderr.
std::optional<double> ready_time(const std::filesystem::path& dir,
                                 std::unique_ptr<Daemon>& daemon,
                                 std::unique_ptr<Client>& client,
                                 Outcome& out) {
  ++out.attempted;
  const auto t0 = Clock::now();
  daemon = std::make_unique<Daemon>(dir);
  try {
    client = std::make_unique<Client>(daemon->port());
    client->send(MsgType::kStatus, "");
    if (client->recv().type != MsgType::kReport) {
      throw std::runtime_error("daemon answered status with a non-report");
    }
  } catch (const Dropped& e) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: FAILED daemon start-up: %s\n", e.what());
    client.reset();
    daemon.reset();
    return std::nullopt;
  }
  return seconds_since(t0);
}

/// ready_time until a start-up succeeds, at most kStartAttempts times.
std::optional<double> start_daemon(const std::filesystem::path& dir,
                                   std::unique_ptr<Daemon>& daemon,
                                   std::unique_ptr<Client>& client,
                                   Outcome& out) {
  for (int i = 0; i < kStartAttempts; ++i) {
    if (auto t = ready_time(dir, daemon, client, out)) return t;
  }
  out.check(false, "sweepd_jobs: " + std::to_string(kStartAttempts) +
                       " daemon start-ups in a row dropped their first "
                       "connection");
  return std::nullopt;
}

struct Submission {
  std::uint64_t id = 0;
  std::uint64_t spec = 0;
  int round = 0;
  bool done = false;
  double ack_s = 0, first_snapshot_s = 0, latency_s = 0, child_cpu_s = 0;
  int snapshots = 0, lossy = 0, errors = 0, forks = 0, retries = 0;
  std::string problem;  // the unexpected reply, when there was one
};

/// "type=<n> <payload>" of a frame the client did not expect.
std::string describe(const Frame& f) {
  return "type=" + std::to_string(int(f.type)) + " " + f.text();
}

/// Submit one spec and watch it to its terminal state.
Submission submit_and_watch(Client& c, std::uint64_t spec_index, Tracer& tr) {
  Submission s;
  s.spec = spec_index;
  const double cpu0 = child_cpu_seconds();
  const auto t0 = Clock::now();
  Frame f;
  {
    Scoped sp(tr, "svc.submit", spec_index);
    c.send(MsgType::kSubmit, cgs::svc::encode_kv(job_spec(spec_index)));
    f = c.recv();
  }
  s.ack_s = seconds_since(t0);
  if (f.type != MsgType::kAccepted) {
    ++s.errors;
    s.problem = "submit answered with " + describe(f);
    return s;
  }
  s.id = std::stoull(cgs::svc::kv_get(cgs::svc::parse_kv(f.text()), "job"));
  Scoped sp(tr, "svc.watch", s.id);
  c.send(MsgType::kWatch, "job=" + std::to_string(s.id) + "\n");
  for (;;) {
    f = c.recv();
    const KvMap kv = cgs::svc::parse_kv(f.text());
    if (f.type == MsgType::kSnapshot) {
      if (s.snapshots++ == 0) s.first_snapshot_s = seconds_since(t0);
      if (cgs::svc::kv_get(kv, "lossy") == "1") ++s.lossy;
      s.retries = std::stoi(cgs::svc::kv_get(kv, "retries", "0"));
      s.forks = std::stoi(cgs::svc::kv_get(kv, "total", "0")) + s.retries;
    } else if (f.type == MsgType::kDone) {
      s.done = cgs::svc::kv_get(kv, "state") == "done";
      break;
    } else {
      ++s.errors;
      s.problem = "watch answered with " + describe(f);
      break;
    }
  }
  s.latency_s = seconds_since(t0);
  s.child_cpu_s = child_cpu_seconds() - cpu0;
  return s;
}

/// The in-process reference for one spec: run_sweep + write_sweep_csvs.
std::string reference_csv(std::uint64_t spec_index,
                          const std::filesystem::path& dir) {
  cgs::core::SweepOptions o;
  o.runs = kRunsPerJob;
  o.threads = 1;
  o.throw_on_failure = false;
  const auto r = cgs::core::run_sweep(
      cgs::svc::inline_cells_from_spec(job_spec(spec_index)), o);
  const auto files = cgs::core::write_sweep_csvs(
      (dir / ("ref-" + std::to_string(spec_index))).string(), r);
  return read_file(files.cells_path) + read_file(files.links_path);
}

std::string daemon_csv(const std::filesystem::path& dir, std::uint64_t id) {
  const std::string prefix = (dir / ("job-" + std::to_string(id))).string();
  return read_file(prefix + "_cells.csv") + read_file(prefix + "_links.csv");
}

}  // namespace

Outcome run_sweepd_jobs(const Args& a, Tracer& tr) {
  Outcome out;
  check_golden(out);
  out.check(std::size(kSweepdPins) == kSweepdSpecs,
            "sweepd_jobs: pin table does not cover its specs");
  if (!out.correct) return out;
  ScratchDir scratch(a.work_root / "scratch");

  // Set-up: server construction, listen, recover, connect, first reply.
  E2eSamples e;
  e.paced = true;
  const auto setup_samples = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      std::unique_ptr<Daemon> d;
      std::unique_ptr<Client> c;
      const auto t = ready_time(scratch.subdir("setup"), d, c, out);
      if (t) e.setup_s.push_back(*t);
    }
  };
  setup_samples(kSetupFirst);
  double gap_before = probe_host(e.probe_s);

  const std::filesystem::path dir = scratch.subdir("daemon");
  std::vector<Submission> subs;
  std::vector<Round> rounds;  // latencies are filled in after the checks
  E2eSamples et;  // traced rounds
  {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Client> client;
    if (!start_daemon(dir, daemon, client, out)) return out;
    const RoundPlan plan{a.seconds, 2, a.trace};
    std::uint64_t next = a.seed;
    const auto t_start = Clock::now();
    for (int round = 0; plan.more(round, t_start); ++round) {
      if (round > 0) setup_samples(kSetupPerRound);
      tr.set_active(plan.traced(round));
      Scoped rs(tr, "round", std::uint64_t(round));
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      for (int k = 0; k < kJobsPerRound; ++k) {
        Submission s = submit_and_watch(*client, next++ % kSweepdSpecs, tr);
        s.round = round;
        subs.push_back(s);
      }
      Round rd;
      rd.wall_s = seconds_since(t0);
      rd.cpu_s = cpu_seconds() - cpu0;
      const double gap_after = probe_host(e.probe_s);
      rd.scale = host_scale(gap_before, gap_after);
      gap_before = gap_after;
      rd.jobs = kJobsPerRound;
      rd.sim_s = kSimPerRun * kRunsPerJob * kJobsPerRound;
      rounds.push_back(std::move(rd));
    }
  }

  et = e;  // set-up, probes and pacing; the rounds are filled in below

  // Restart over the state directory: listen + recover + first reply.
  double restart_s = 0;
  tr.set_active(a.trace);
  {
    Scoped rs(tr, "svc.restart", 0);
    std::unique_ptr<Daemon> d;
    std::unique_ptr<Client> c;
    const auto t = start_daemon(dir, d, c, out);
    if (!t) return out;
    restart_s = *t;
  }

  // Cross-path and pin checks, outside every timed interval.
  const std::filesystem::path ref_dir = scratch.subdir("reference");
  std::map<std::uint64_t, std::string> refs;
  std::vector<double> latency, read_s, file_bytes, ser_s, hash_s;
  std::vector<double> ack, first_snap, child_cpu;
  double snapshots = 0, lossy = 0, errors = 0, forks = 0, retries = 0;
  TraceCounts first;
  double trace_bytes = 0, first_runs = 0;
  long failed_subs = 0;
  for (const Submission& s : subs) {
    ++out.attempted;
    const bool traced = a.trace && s.round % 2 == 0;
    bool ok = s.done && s.errors == 0;
    out.check(s.problem.empty(), "sweepd_jobs spec " +
                                     std::to_string(s.spec) + ": " +
                                     s.problem);
    if (ok) {
      if (!refs.count(s.spec)) {
        refs[s.spec] = reference_csv(s.spec, ref_dir);
        out.check(fnv_digest(refs[s.spec]) == kSweepdPins[s.spec].csv_digest,
                  "sweepd_jobs spec " + std::to_string(s.spec) +
                      ": in-process CSV digest differs from the pin");
      }
      ok = daemon_csv(dir, s.id) == refs[s.spec];
      out.check(ok, "sweepd_jobs job " + std::to_string(s.id) +
                        ": daemon CSVs differ from in-process run_sweep");
      const std::string journal =
          (dir / ("job-" + std::to_string(s.id) + ".jnl")).string();
      const auto t0 = Clock::now();
      const auto scan = cgs::core::read_journal(journal);
      read_s.push_back(seconds_since(t0));
      file_bytes.push_back(double(std::filesystem::file_size(journal)));
      const JournalDigest jd = scan ? digest_journal(*scan) : JournalDigest{};
      const GridPin& pin = kSweepdPins[s.spec];
      const bool pinned = jd.records == std::size_t(kRunsPerJob) && jd.all_ok &&
                          jd.trace_digest == pin.trace_digest &&
                          jd.trace_bytes == pin.trace_bytes;
      out.check(pinned, "sweepd_jobs job " + std::to_string(s.id) +
                            ": journal digest or bytes differ from the pin");
      ok = ok && pinned;
      if (traced && scan) {
        for (const auto& en : scan->entries) {
          const auto t = cgs::core::deserialize_trace(en.payload.data(),
                                                      en.payload.size());
          auto ts = Clock::now();
          (void)cgs::core::serialize_trace(t);
          ser_s.push_back(seconds_since(ts));
          ts = Clock::now();
          (void)cgs::core::trace_hash(t);
          hash_s.push_back(seconds_since(ts));
          if (s.round == 0) {
            const TraceCounts c = trace_counts(t);
            first.recv += c.recv;
            first.lost += c.lost;
            first.drops += c.drops;
            trace_bytes += double(en.payload.size());
            ++first_runs;
          }
        }
      }
    }
    if (!ok) ++failed_subs;
    errors += s.errors;
    // A failed submission misses every latency limit.
    const double lat = ok ? s.latency_s : 1e9;
    rounds[std::size_t(s.round)].job_latency_s.push_back(lat);
    rounds[std::size_t(s.round)].run_s.push_back(lat / kRunsPerJob);
    if (!traced) {
      latency.push_back(lat);
    } else {
      ack.push_back(s.ack_s);
      first_snap.push_back(s.first_snapshot_s);
      child_cpu.push_back(s.child_cpu_s);
      snapshots += s.snapshots;
      lossy += s.lossy;
      forks += s.forks;
      retries += s.retries;
    }
  }
  out.failed += failed_subs;
  out.check(failed_subs == 0, "sweepd_jobs: " + std::to_string(failed_subs) +
                                  " submissions failed");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const bool traced = a.trace && r % 2 == 0;
    (traced ? et : e).rounds.push_back(std::move(rounds[r]));
  }

  out.extra.push_back({"resume_s", restart_s, "s"});
  out.extra.push_back({"error_rate", double(out.failed) / double(out.attempted),
                       "failed/attempted"});
  out.extra.push_back({"job_latency_s_p90", percentile(latency, 90), "s"});
  out.extra.push_back({"latency_samples", double(latency.size()), "count"});

  std::map<std::string, double> l;
  const double traced_jobs = double(ack.size());
  if (traced_jobs > 0) {
    l["svc.submit_ack_s"] = median(ack);
    l["svc.first_snapshot_s"] = median(first_snap);
    l["svc.snapshots_per_job"] = snapshots / traced_jobs;
    l["svc.lossy_snapshots"] = lossy;
    l["core.proc.forks"] = forks / traced_jobs;
    l["core.proc.child_cpu_s"] = median(child_cpu);
    l["core.sweep.retries"] = retries;
  }
  if (first_runs > 0) {
    l["stream.pkts_received_per_run"] = first.recv / first_runs;
    l["stream.pkts_lost_per_run"] = first.lost / first_runs;
    l["net.drops_per_run"] = first.drops / first_runs;
    l["core.journal.trace_bytes"] = trace_bytes / first_runs;
  }
  l["svc.proto_errors"] = errors;
  l["svc.job_latency_s_p90"] = percentile(latency, 90);
  l["svc.latency_samples"] = double(latency.size());
  l["core.sweep.jobs"] = kRunsPerJob;
  l["core.journal.read_s"] = median(read_s);
  l["core.journal.file_bytes"] = median(file_bytes);
  l["core.journal.resume_s"] = restart_s;
  l["core.journal.serialize_s"] = median(ser_s);
  l["core.journal.hash_s"] = median(hash_s);
  finish_e2e(out, e, et, l, tr);
  return out;
}

void print_sweepd_pins(const Args& a) {
  std::printf("inline constexpr GridPin kSweepdPins[] = {\n");
  for (std::uint64_t i = 0; i < kSweepdSpecs; ++i) {
    ScratchDir scratch(a.work_root / "scratch");
    const std::string journal = (scratch.path() / "job.jnl").string();
    cgs::core::SweepOptions o;
    o.runs = kRunsPerJob;
    o.threads = 1;
    o.journal_path = journal;
    const auto r =
        cgs::core::run_sweep(cgs::svc::inline_cells_from_spec(job_spec(i)), o);
    const auto files =
        cgs::core::write_sweep_csvs((scratch.path() / "g").string(), r);
    const std::string csv =
        read_file(files.cells_path) + read_file(files.links_path);
    const JournalDigest jd = digest_journal(*cgs::core::read_journal(journal));
    std::printf("    {%llu, 0x%016llxULL, %llu, 0x%016llxULL},\n",
                (unsigned long long)i, (unsigned long long)jd.trace_digest,
                (unsigned long long)jd.trace_bytes,
                (unsigned long long)fnv_digest(csv));
  }
  std::printf("};\n");
}

}  // namespace perfbench
