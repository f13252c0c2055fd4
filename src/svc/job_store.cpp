#include "svc/job_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "core/journal.hpp"
#include "core/proc.hpp"
#include "stream/profiles.hpp"
#include "tcp/congestion_control.hpp"
#include "util/crc32.hpp"

namespace cgs::svc {
namespace {

// State-log layout: the 8-byte tag | u32 version, then records, each
// u32 body_len | body | u32 crc(body_len + body), where body = u8 kind
// | u64 id | u8 state | u32 err_len | err, and a kJobRecord body goes on
// with u32 spec_len | spec.  Same native-endian, machine-local conventions
// as the run journal.
constexpr char kStateTag[8] = {'C', 'G', 'S', 'V', 'S', 'T', '0', '1'};
constexpr std::uint32_t kStateVersion = 2;
constexpr std::size_t kStateHeader = sizeof kStateTag + 4;
constexpr std::uint8_t kJobRecord = 1;    // a whole job: submit, compaction
constexpr std::uint8_t kStateRecord = 2;  // a later transition

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof v);
  std::memcpy(out.data() + off, &v, sizeof v);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof v);
  std::memcpy(out.data() + off, &v, sizeof v);
}

void put_str(std::vector<unsigned char>& out, const std::string& s) {
  put_u32(out, std::uint32_t(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked cursor over the state log bytes; any overrun flags `bad`
/// and reads return zero/empty (replay stops at that record).
struct Cursor {
  const unsigned char* p;
  std::size_t left;
  bool bad = false;

  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (left < sizeof v) {
      bad = true;
      return 0;
    }
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    left -= sizeof v;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (left < sizeof v) {
      bad = true;
      return 0;
    }
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    left -= sizeof v;
    return v;
  }
  std::uint8_t u8() {
    if (left < 1) {
      bad = true;
      return 0;
    }
    const std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (bad || left < n) {
      bad = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

/// Append one framed record for `job`; `with_spec` makes it a kJobRecord.
void put_record(std::vector<unsigned char>& out, const Job& job,
                bool with_spec) {
  const std::size_t start = out.size();
  put_u32(out, 0);  // body_len, patched below
  out.push_back(with_spec ? kJobRecord : kStateRecord);
  put_u64(out, job.id);
  out.push_back(std::uint8_t(job.state));
  put_str(out, job.error);
  if (with_spec) put_str(out, encode_kv(job.spec));
  const auto body_len = std::uint32_t(out.size() - start - 4);
  std::memcpy(out.data() + start, &body_len, sizeof body_len);
  put_u32(out, util::crc32(out.data() + start, out.size() - start));
}

JobState job_state_from_byte(std::uint8_t b) {
  switch (b) {
    case std::uint8_t(JobState::kQueued): return JobState::kQueued;
    case std::uint8_t(JobState::kRunning): return JobState::kRunning;
    case std::uint8_t(JobState::kDone): return JobState::kDone;
    case std::uint8_t(JobState::kFailed): return JobState::kFailed;
    case std::uint8_t(JobState::kCancelled): return JobState::kCancelled;
    default: return JobState::kFailed;  // don't trust on-disk bytes
  }
}

double parse_double(const KvMap& spec, const std::string& key, double fb) {
  const auto it = spec.find(key);
  if (it == spec.end()) return fb;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw std::invalid_argument("spec: bad " + key + " '" + it->second + "'");
  }
  return v;
}

std::uint64_t parse_u64(const KvMap& spec, const std::string& key,
                        std::uint64_t fb) {
  const auto it = spec.find(key);
  if (it == spec.end()) return fb;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("spec: bad " + key + " '" + it->second + "'");
  }
  return v;
}

Time seconds_to_time(double s) {
  return std::chrono::microseconds(std::llround(s * 1e6));
}

/// "job-<id>.jnl" -> id, or 0 when the name is not a job journal.
std::uint64_t job_id_from_journal_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() <= 8 || name.compare(0, 4, "job-") != 0 ||
      name.compare(name.size() - 4, 4, ".jnl") != 0) {
    return 0;
  }
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

}  // namespace

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::vector<core::SweepCell> inline_cells_from_spec(const KvMap& spec) {
  core::Scenario sc;

  const std::string sys = kv_get(spec, "system", "stadia");
  if (sys == "stadia") {
    sc.system = stream::GameSystem::kStadia;
  } else if (sys == "geforce") {
    sc.system = stream::GameSystem::kGeForce;
  } else if (sys == "luna") {
    sc.system = stream::GameSystem::kLuna;
  } else {
    throw std::invalid_argument("spec: bad system '" + sys +
                                "' (stadia|geforce|luna)");
  }

  const std::string cc = kv_get(spec, "cc", "cubic");
  if (cc == "cubic") {
    sc.tcp_algo = tcp::CcAlgo::kCubic;
  } else if (cc == "bbr") {
    sc.tcp_algo = tcp::CcAlgo::kBbr;
  } else if (cc == "reno") {
    sc.tcp_algo = tcp::CcAlgo::kReno;
  } else if (cc == "vegas") {
    sc.tcp_algo = tcp::CcAlgo::kVegas;
  } else if (cc == "none") {
    sc.tcp_algo.reset();
  } else {
    throw std::invalid_argument("spec: bad cc '" + cc +
                                "' (cubic|bbr|reno|vegas|none)");
  }

  const double cap = parse_double(spec, "cap_mbps", 25.0);
  sc.capacity = Bandwidth::mbps(cap);
  sc.queue_bdp_mult = parse_double(spec, "queue", 2.0);
  if (spec.count("base_rtt_ms") != 0) {
    sc.base_rtt = seconds_to_time(parse_double(spec, "base_rtt_ms", 0) / 1e3);
  }
  if (spec.count("duration_s") != 0) {
    sc.duration = seconds_to_time(parse_double(spec, "duration_s", 0));
  }
  if (spec.count("tcp_start_s") != 0) {
    sc.tcp_start = seconds_to_time(parse_double(spec, "tcp_start_s", 0));
  }
  if (spec.count("tcp_stop_s") != 0) {
    sc.tcp_stop = seconds_to_time(parse_double(spec, "tcp_stop_s", 0));
  }
  sc.seed = parse_u64(spec, "seed", 1);

  std::ostringstream label;
  label << to_string(sc.system) << ' ' << cap << "Mb/s " << sc.queue_bdp_mult
        << "xBDP " << (sc.tcp_algo ? to_string(*sc.tcp_algo) : "solo");
  return {{label.str(), sc}};
}

JobStore::JobStore(std::string dir, std::size_t max_queue)
    : dir_(std::move(dir)), max_queue_(max_queue) {}

JobStore::~JobStore() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

std::string JobStore::journal_path(std::uint64_t id) const {
  return dir_ + "/job-" + std::to_string(id) + ".jnl";
}

std::string JobStore::csv_prefix(std::uint64_t id) const {
  return dir_ + "/job-" + std::to_string(id);
}

std::string JobStore::state_path() const { return dir_ + "/sweepd.state"; }

JobStore::Admission JobStore::submit(KvMap spec) {
  std::lock_guard lk(mu_);
  if (queue_.size() >= max_queue_) {
    Admission a;
    a.err = core::ProtoError::kQueueFull;
    // Advisory only: scale the hint with the backlog so a thundering herd
    // spreads out instead of re-colliding.
    a.retry_after_s = 2.0 * double(queue_.size());
    a.message = "admission queue is full (" + std::to_string(queue_.size()) +
                " jobs queued)";
    return a;
  }
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->spec = std::move(spec);
  job->state = JobState::kQueued;
  const std::uint64_t id = job->id;
  const Job& admitted = *jobs_.emplace(id, std::move(job)).first->second;
  queue_.push_back(id);
  append_locked(admitted, true);
  Admission a;
  a.id = id;
  return a;
}

std::uint64_t JobStore::claim_next() {
  std::lock_guard lk(mu_);
  while (!queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state != JobState::kQueued) continue;
    it->second->state = JobState::kRunning;
    append_locked(*it->second, false);
    return id;
  }
  return 0;
}

void JobStore::finish(std::uint64_t id, JobState final_state,
                      std::string error) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->state = final_state;
  it->second->error = std::move(error);
  append_locked(*it->second, false);
}

void JobStore::requeue_front(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->state = JobState::kQueued;
  it->second->stop.store(false);
  queue_.push_front(id);
  append_locked(*it->second, false);
}

core::ProtoError JobStore::cancel(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return core::ProtoError::kUnknownJob;
  Job& job = *it->second;
  if (is_terminal(job.state)) return core::ProtoError::kNone;  // idempotent
  job.cancel_requested = true;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    job.error = "cancelled while queued";
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    append_locked(job, false);
  } else {
    // Running: flip the engine's graceful-drain flag; the runner observes
    // the interruption and finishes the job as cancelled.
    job.stop.store(true);
  }
  return core::ProtoError::kNone;
}

Job* JobStore::find(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobStore::update_progress(std::uint64_t id,
                               const core::ProgressSnapshot& s) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second->progress = s;
  it->second->have_progress = true;
}

bool JobStore::snapshot(std::uint64_t id, JobState* state, KvMap* spec,
                        std::string* error, core::ProgressSnapshot* progress,
                        bool* have_progress) const {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const Job& job = *it->second;
  if (state != nullptr) *state = job.state;
  if (spec != nullptr) *spec = job.spec;
  if (error != nullptr) *error = job.error;
  if (progress != nullptr) *progress = job.progress;
  if (have_progress != nullptr) *have_progress = job.have_progress;
  return true;
}

std::string JobStore::status_text() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << jobs_.size() << " job" << (jobs_.size() == 1 ? "" : "s") << ", "
     << queue_.size() << " queued\n";
  for (const auto& [id, job] : jobs_) {
    os << "job " << id << "  " << to_string(job->state);
    if (job->have_progress) {
      os << "  " << job->progress.finished << "/" << job->progress.total
         << " runs";
      if (job->progress.failed > 0) {
        os << " (" << job->progress.failed << " failed)";
      }
    }
    const std::string grid = kv_get(job->spec, "grid");
    if (!grid.empty()) os << "  grid=" << grid;
    if (!job->error.empty()) os << "  [" << job->error << "]";
    os << "\n";
  }
  return os.str();
}

std::size_t JobStore::queued_count() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

void JobStore::append_locked(const Job& job, bool with_spec) {
  if (log_fd_ >= 0) {
    std::vector<unsigned char> rec;
    put_record(rec, job, with_spec);
    if (core::proc::write_exact(log_fd_, rec.data(), rec.size()) &&
        ::fdatasync(log_fd_) == 0) {
      return;
    }
  }
  // No log open yet (this store has neither recovered nor written), or the
  // append failed and a partial record would hide every later one behind a
  // torn tail: write the whole table, `job` included, to a fresh log.
  rewrite_log_locked();
}

void JobStore::rewrite_log_locked() {
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  std::vector<unsigned char> buf(kStateTag, kStateTag + sizeof kStateTag);
  put_u32(buf, kStateVersion);
  for (const auto& [id, job] : jobs_) put_record(buf, *job, true);

  // tmp + rename: readers (the next incarnation) see the old log or the
  // new one, never a torn header.  The descriptor stays open as the log
  // later transitions append to.  Failures are swallowed — persistence is
  // best-effort on top of the journals, which carry the real results.
  const std::string tmp = state_path() + ".tmp";
  constexpr int kFlags = O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC;
  const int fd = ::open(tmp.c_str(), kFlags, 0644);
  if (fd < 0) return;
  if (core::proc::write_exact(fd, buf.data(), buf.size()) &&
      ::fsync(fd) == 0 && ::rename(tmp.c_str(), state_path().c_str()) == 0) {
    log_fd_ = fd;
    return;
  }
  ::close(fd);
  (void)::unlink(tmp.c_str());
}

std::vector<std::uint64_t> JobStore::recover() {
  std::lock_guard lk(mu_);

  // 1. Replay the state log; the last record for an id wins.  A missing
  // file or a bad tag/version discards the whole log (a v1 snapshot file
  // included); the journal rescan below rebuilds what matters.  Replay
  // stops at the first torn or corrupt record, keeping every record before
  // it — the run journal's torn-tail rule.
  do {
    const int fd = ::open(state_path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    std::vector<unsigned char> buf;
    unsigned char chunk[4096];
    for (;;) {
      const long r = core::proc::read_some(fd, chunk, sizeof chunk);
      if (r <= 0) break;
      buf.insert(buf.end(), chunk, chunk + r);
    }
    ::close(fd);
    if (buf.size() < kStateHeader) break;
    if (std::memcmp(buf.data(), kStateTag, sizeof kStateTag) != 0) break;
    Cursor c{buf.data() + sizeof kStateTag, buf.size() - sizeof kStateTag};
    if (c.u32() != kStateVersion) break;

    std::map<std::uint64_t, std::unique_ptr<Job>> loaded;
    for (;;) {
      const unsigned char* rec = c.p;
      const std::uint32_t body_len = c.u32();
      if (c.bad || c.left < std::size_t(body_len) + 4) break;  // torn
      Cursor body{c.p, body_len};
      c.p += body_len;
      c.left -= body_len;
      if (c.u32() != util::crc32(rec, 4 + std::size_t(body_len))) break;

      const std::uint8_t kind = body.u8();
      const std::uint64_t id = body.u64();
      const JobState state = job_state_from_byte(body.u8());
      std::string error = body.str();
      if (kind == kJobRecord) {
        auto job = std::make_unique<Job>();
        job->id = id;
        job->state = state;
        job->error = std::move(error);
        job->spec = parse_kv(body.str());
        if (body.bad || body.left != 0 || id == 0) break;
        loaded[id] = std::move(job);
        continue;
      }
      const auto it = loaded.find(id);
      if (kind != kStateRecord || body.bad || body.left != 0 ||
          it == loaded.end()) {
        break;
      }
      it->second->state = state;
      it->second->error = std::move(error);
    }
    jobs_ = std::move(loaded);
  } while (false);

  // 2. Journal rescan: journals are the ground truth, so any job-<id>.jnl
  // the state log does not know about (log lost, or the crash beat the
  // append) is re-admitted with the spec recovered from its provenance
  // note.  Only those journals are opened, and only their headers read, so
  // a restart costs the same however long the journals grew.  A file
  // without a complete, intact header is skipped: a directory that
  // accumulated junk must still recover.  An unreadable directory leaves
  // nothing to rescan; the state log (if any) already replayed.
  const std::unique_ptr<DIR, int (*)(DIR*)> d(::opendir(dir_.c_str()),
                                               ::closedir);
  if (d != nullptr) {
    while (const dirent* ent = ::readdir(d.get())) {
      const std::string path = dir_ + "/" + ent->d_name;
      const std::uint64_t id = job_id_from_journal_path(path);
      if (id == 0 || jobs_.count(id) != 0) continue;
      std::optional<core::JournalReader> journal;
      try {
        journal = core::JournalReader::open(path);
      } catch (const core::JournalError&) {
        continue;  // foreign or corrupt header
      }
      if (!journal) continue;  // died mid-creation
      auto job = std::make_unique<Job>();
      job->id = id;
      job->spec = parse_kv(journal->meta().note);
      job->state = JobState::kQueued;
      jobs_.emplace(id, std::move(job));
    }
  }

  // 3. Re-queue every non-terminal job oldest-first: an interrupted
  // running job resumes from its journal exactly like a queued one.
  queue_.clear();
  std::vector<std::uint64_t> resumed;
  for (auto& [id, job] : jobs_) {
    next_id_ = std::max(next_id_, id + 1);
    if (is_terminal(job->state)) continue;
    if (job->state == JobState::kRunning) resumed.push_back(id);
    job->state = JobState::kQueued;
    job->stop.store(false);
    job->cancel_requested = false;
    queue_.push_back(id);  // jobs_ is id-ordered: oldest first
  }
  // The one full rewrite: drops superseded records and any torn tail.
  rewrite_log_locked();
  return resumed;
}

}  // namespace cgs::svc
