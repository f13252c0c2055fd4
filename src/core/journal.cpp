#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32.hpp"

namespace cgs::core {
namespace {

constexpr char kMagic[8] = {'C', 'G', 'S', 'J', 'N', 'L', '0', '1'};
// v2: RunTrace payloads grew a per-link series section (topology layer).
// v3: RunTrace payloads grew a fleet digest tail (hybrid-fidelity layer).
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kRecordMagic = 0x4C4E5247u;  // "GRNL"
// magic + cell + run + seed + ok + class + trace_hash + payload_len.
constexpr std::size_t kRecordFixed = 4 + 4 + 4 + 8 + 1 + 1 + 8 + 4;
// Anything larger than this is a corrupt length field, not a real payload
// (the biggest payload is a serialized RunTrace, a few MB at most).
constexpr std::uint32_t kMaxPayload = 1u << 30;

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  const int err = errno;
  throw JournalError("journal: " + op + " '" + path + "': " +
                     std::strerror(err) + " (errno " + std::to_string(err) +
                     ")");
}

/// fsync with EINTR retry; throws naming the path and errno.  This is
/// where ENOSPC/EIO from deferred writeback most often surface.
void fsync_or_throw(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    throw_errno("fsync", path);
  }
}

// -- little binary buffer helpers -----------------------------------------

void put_bytes(std::vector<unsigned char>& out, const void* p, std::size_t n) {
  if (n == 0) return;
  const std::size_t off = out.size();
  out.resize(off + n);
  std::memcpy(out.data() + off, p, n);
}

void put_u8(std::vector<unsigned char>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof v);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof v);
}

void put_i64(std::vector<unsigned char>& out, std::int64_t v) {
  put_bytes(out, &v, sizeof v);
}

void put_time(std::vector<unsigned char>& out, Time t) {
  put_i64(out, t.count());
}

void put_f64(std::vector<unsigned char>& out, double v) {
  put_bytes(out, &v, sizeof v);
}

void put_string(std::vector<unsigned char>& out, const std::string& s) {
  put_u32(out, std::uint32_t(s.size()));
  put_bytes(out, s.data(), s.size());
}

template <class T>
void put_pod_vec(std::vector<unsigned char>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_u32(out, std::uint32_t(v.size()));
  put_bytes(out, v.data(), v.size() * sizeof(T));
}

/// Bounds-checked sequential reader over a serialized payload.
class Cursor {
 public:
  Cursor(const unsigned char* data, std::size_t size)
      : p_(data), end_(data + size) {}

  void take(void* out, std::size_t n) {
    if (std::size_t(end_ - p_) < n) {
      throw JournalError("journal: truncated trace payload");
    }
    std::memcpy(out, p_, n);
    p_ += n;
  }

  std::uint8_t u8() {
    std::uint8_t v;
    take(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    take(&v, sizeof v);
    return v;
  }
  Time time() { return Time(i64()); }
  double f64() {
    double v;
    take(&v, sizeof v);
    return v;
  }

  std::string string() {
    const std::uint32_t n = u32();
    check_count(n, 1);
    std::string s(n, '\0');
    take(s.data(), n);
    return s;
  }

  template <class T>
  std::vector<T> pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint32_t n = u32();
    check_count(n, sizeof(T));
    std::vector<T> v(n);
    take(v.data(), n * sizeof(T));
    return v;
  }

  [[nodiscard]] bool done() const { return p_ == end_; }

 private:
  void check_count(std::uint64_t n, std::size_t elem) const {
    if (n * elem > std::size_t(end_ - p_)) {
      throw JournalError("journal: trace payload count exceeds payload size");
    }
  }

  const unsigned char* p_;
  const unsigned char* end_;
};

// -- low-level file I/O ----------------------------------------------------

void write_all(int fd, const void* data, std::size_t n,
               const std::string& path) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    p += w;
    n -= std::size_t(w);
  }
}

std::vector<unsigned char> header_bytes(const JournalMeta& meta) {
  std::vector<unsigned char> out;
  put_bytes(out, kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u64(out, meta.fingerprint);
  put_u32(out, meta.runs);
  put_u32(out, meta.cells);
  put_string(out, meta.note);
  put_u32(out, util::crc32(out.data(), out.size()));
  return out;
}

std::vector<unsigned char> record_bytes(const JournalEntry& e) {
  std::vector<unsigned char> out;
  out.reserve(kRecordFixed + e.payload.size() + 4);
  put_u32(out, kRecordMagic);
  put_u32(out, e.cell);
  put_u32(out, e.run);
  put_u64(out, e.seed);
  put_u8(out, e.ok ? 1 : 0);
  put_u8(out, std::uint8_t(e.cls));
  put_u64(out, e.trace_hash);
  put_u32(out, std::uint32_t(e.payload.size()));
  put_bytes(out, e.payload.data(), e.payload.size());
  put_u32(out, util::crc32(out.data(), out.size()));
  return out;
}

}  // namespace

// -- reading ---------------------------------------------------------------

namespace {

// Header: magic + version + fingerprint + runs + cells + note_len.
constexpr std::size_t kHeaderFixed = 8 + 4 + 8 + 4 + 4 + 4;

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// pread until `n` bytes or end of file; returns the bytes read (short
/// only at end of file, e.g. after a concurrent truncation).
std::size_t pread_full(int fd, void* data, std::size_t n, std::uint64_t off,
                       const std::string& path) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, p + got, n - got, off_t(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path);
    }
    if (r == 0) break;
    got += std::size_t(r);
  }
  return got;
}

}  // namespace

std::optional<JournalReader> JournalReader::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw_errno("open", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("stat", path);
  }
  JournalReader r(fd, path, std::uint64_t(st.st_size));

  std::vector<unsigned char> hdr(kHeaderFixed);
  if (pread_full(fd, hdr.data(), hdr.size(), 0, path) < kHeaderFixed) {
    return std::nullopt;  // died mid-creation
  }
  if (std::memcmp(hdr.data(), kMagic, sizeof kMagic) != 0) {
    throw JournalError("journal: '" + path + "' is not a CGS journal");
  }
  const std::uint32_t version = get_u32(hdr.data() + 8);
  if (version != kVersion) {
    throw JournalError("journal: '" + path + "' has unsupported version " +
                       std::to_string(version));
  }
  const std::uint32_t note_len = get_u32(hdr.data() + 28);
  const std::size_t header_total = kHeaderFixed + note_len + 4;
  if (note_len > kMaxPayload || r.size_ < header_total) {
    return std::nullopt;  // died while writing the header
  }
  hdr.resize(header_total);
  if (pread_full(fd, hdr.data() + kHeaderFixed, note_len + 4, kHeaderFixed,
                 path) < note_len + 4) {
    return std::nullopt;
  }
  if (get_u32(hdr.data() + kHeaderFixed + note_len) !=
      util::crc32(hdr.data(), kHeaderFixed + note_len)) {
    throw JournalError("journal: '" + path + "' header CRC mismatch");
  }
  r.meta_.fingerprint = get_u64(hdr.data() + 12);
  r.meta_.runs = get_u32(hdr.data() + 20);
  r.meta_.cells = get_u32(hdr.data() + 24);
  r.meta_.note.assign(reinterpret_cast<const char*>(hdr.data()) + kHeaderFixed,
                      note_len);
  r.off_ = header_total;
  return r;
}

JournalReader::JournalReader(JournalReader&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      path_(std::move(o.path_)),
      size_(o.size_),
      meta_(std::move(o.meta_)),
      off_(o.off_),
      record_off_(o.record_off_),
      torn_(o.torn_) {}

JournalReader& JournalReader::operator=(JournalReader&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    size_ = o.size_;
    meta_ = std::move(o.meta_);
    off_ = o.off_;
    record_off_ = o.record_off_;
    torn_ = o.torn_;
  }
  return *this;
}

JournalReader::~JournalReader() {
  if (fd_ >= 0) ::close(fd_);
}

JournalReader::Read JournalReader::read_record(std::uint64_t off,
                                               JournalEntry& e,
                                               std::uint64_t& total) const {
  // Not even the fixed part fits, the magic is wrong, or the length field
  // is garbage: torn.
  const std::uint64_t avail = size_ > off ? size_ - off : 0;
  unsigned char fixed[kRecordFixed];
  if (avail < kRecordFixed ||
      pread_full(fd_, fixed, kRecordFixed, off, path_) < kRecordFixed ||
      get_u32(fixed) != kRecordMagic) {
    return Read::kTorn;
  }
  const std::uint32_t payload_len = get_u32(fixed + kRecordFixed - 4);
  if (payload_len > kMaxPayload) return Read::kTorn;
  total = kRecordFixed + std::uint64_t(payload_len) + 4;
  if (avail < total) return Read::kTorn;

  // Payload and CRC in one read, into the entry's own buffer.
  e.payload.resize(std::size_t(payload_len) + 4);
  if (pread_full(fd_, e.payload.data(), e.payload.size(), off + kRecordFixed,
                 path_) < e.payload.size()) {
    return Read::kTorn;
  }
  const std::uint32_t stored_crc = get_u32(e.payload.data() + payload_len);
  e.payload.resize(payload_len);
  if (stored_crc != util::crc32(e.payload.data(), payload_len,
                                util::crc32(fixed, kRecordFixed))) {
    return Read::kBadCrc;
  }
  e.cell = get_u32(fixed + 4);
  e.run = get_u32(fixed + 8);
  e.seed = get_u64(fixed + 12);
  e.ok = fixed[20] != 0;
  e.cls = error_class_from_byte(fixed[21]);
  e.trace_hash = get_u64(fixed + 22);
  return Read::kOk;
}

bool JournalReader::next(JournalEntry& e) {
  if (torn_ || off_ >= size_) return false;
  std::uint64_t total = 0;
  switch (read_record(off_, e, total)) {
    case Read::kOk:
      record_off_ = off_;
      off_ += total;
      return true;
    case Read::kBadCrc:
      // A complete-looking record with a bad CRC: torn only at end-of-file
      // (a crash mid-write); anywhere else the file is corrupt.
      if (off_ + total != size_) {
        throw JournalError("journal: '" + path_ +
                           "' corrupt record at offset " +
                           std::to_string(off_));
      }
      [[fallthrough]];
    case Read::kTorn:
      torn_ = true;
      return false;
  }
  return false;
}

void JournalReader::read_at(std::uint64_t offset, JournalEntry& e) const {
  std::uint64_t total = 0;
  if (read_record(offset, e, total) != Read::kOk) {
    throw JournalError("journal: '" + path_ + "' record at offset " +
                       std::to_string(offset) + " is no longer intact");
  }
}

std::optional<JournalScan> read_journal(const std::string& path) {
  std::optional<JournalReader> r = JournalReader::open(path);
  if (!r) return std::nullopt;
  JournalScan scan;
  scan.meta = r->meta();
  for (JournalEntry e; r->next(e);) scan.entries.push_back(std::move(e));
  scan.valid_bytes = r->valid_bytes();
  scan.torn_tail = r->torn_tail();
  return scan;
}

// -- writing ---------------------------------------------------------------

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalMeta& meta, bool sync) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("create", path);
  JournalWriter w(fd, sync, path);
  const auto hdr = header_bytes(meta);
  write_all(fd, hdr.data(), hdr.size(), path);
  if (sync) fsync_or_throw(fd, path);
  return w;
}

JournalWriter JournalWriter::append_to(const std::string& path,
                                       std::uint64_t valid_bytes, bool sync) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) throw_errno("open", path);
  JournalWriter w(fd, sync, path);
  // Drop any torn tail before appending over it.
  if (::ftruncate(fd, off_t(valid_bytes)) != 0) throw_errno("truncate", path);
  if (::lseek(fd, off_t(valid_bytes), SEEK_SET) < 0) throw_errno("seek", path);
  return w;
}

JournalWriter::JournalWriter(JournalWriter&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      sync_(o.sync_),
      path_(std::move(o.path_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    sync_ = o.sync_;
    path_ = std::move(o.path_);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  // Silent close: a destructor cannot throw.  Callers that must learn
  // about deferred ENOSPC/EIO call close() explicitly first.
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalEntry& e) {
  if (fd_ < 0) throw JournalError("journal: append on a moved-from writer");
  const auto rec = record_bytes(e);
  write_all(fd_, rec.data(), rec.size(), path_);
  if (sync_) fsync_or_throw(fd_, path_);
}

void JournalWriter::close() {
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);
  // Without per-record fsync, buffered records may not have hit the disk
  // yet — flush now so a full filesystem fails the sweep loudly instead
  // of quietly truncating the journal.
  if (!sync_) {
    try {
      fsync_or_throw(fd, path_);
    } catch (...) {
      ::close(fd);
      throw;
    }
  }
  if (::close(fd) != 0) throw_errno("close", path_);
}

// -- RunTrace round-trip ---------------------------------------------------

std::vector<unsigned char> serialize_trace(const RunTrace& t) {
  std::vector<unsigned char> out;
  std::size_t est = 64;
  for (const FlowTrace& f : t.flows) {
    est += 64 + f.name.size() + f.mbps.size() * sizeof(double) +
           (f.pkts_recv.size() + f.pkts_lost.size()) * sizeof(std::uint64_t);
  }
  est += (t.game_mbps.size() + t.tcp_mbps.size()) * sizeof(double) +
         (t.game_pkts_recv.size() + t.game_pkts_lost.size() +
          t.queue_drops.size()) *
             sizeof(std::uint64_t) +
         t.rtt.size() * sizeof(PingClient::Sample) +
         t.frame_times.size() * sizeof(Time);
  out.reserve(est);
  put_time(out, t.sample_interval);
  put_time(out, t.duration);
  put_u32(out, std::uint32_t(t.flows.size()));
  for (const FlowTrace& f : t.flows) {
    put_u64(out, std::uint64_t(f.id));
    put_string(out, f.name);
    put_u8(out, std::uint8_t(f.kind));
    put_pod_vec(out, f.mbps);
    put_pod_vec(out, f.pkts_recv);
    put_pod_vec(out, f.pkts_lost);
  }
  put_pod_vec(out, t.game_mbps);
  put_pod_vec(out, t.tcp_mbps);
  put_pod_vec(out, t.rtt);
  put_pod_vec(out, t.game_pkts_recv);
  put_pod_vec(out, t.game_pkts_lost);
  put_pod_vec(out, t.queue_drops);
  put_pod_vec(out, t.frame_times);
  put_u32(out, std::uint32_t(t.links.size()));
  for (const LinkTrace& l : t.links) {
    put_string(out, l.name);
    put_pod_vec(out, l.util_mbps);
    put_pod_vec(out, l.depth_bytes);
    put_pod_vec(out, l.drops);
  }
  // Fleet digest tail (outside trace_hash, which covers only the legacy
  // views): one flag byte for fleet-free runs.
  put_u8(out, t.fleet.active ? 1 : 0);
  if (t.fleet.active) {
    const net::FleetResult& fl = t.fleet;
    put_u64(out, fl.ticks);
    put_u64(out, fl.session_ticks);
    put_u64(out, fl.stall_ticks);
    put_u64(out, fl.arrivals);
    put_u64(out, fl.departures);
    put_u32(out, fl.peak_sessions);
    put_u32(out, fl.final_sessions);
    put_f64(out, fl.mean_mbps);
    put_f64(out, fl.p50_mbps);
    put_f64(out, fl.p95_mbps);
    put_f64(out, fl.p99_mbps);
    put_f64(out, fl.stall_rate);
    put_f64(out, fl.jain);
    put_u32(out, std::uint32_t(fl.links.size()));
    for (const net::FleetLinkLoad& ll : fl.links) {
      put_string(out, ll.link);
      put_f64(out, ll.offered_mbps_mean);
      put_f64(out, ll.served_mbps_mean);
    }
  }
  return out;
}

RunTrace deserialize_trace(const unsigned char* data, std::size_t size) {
  Cursor c(data, size);
  RunTrace t;
  t.sample_interval = c.time();
  t.duration = c.time();
  const std::uint32_t n_flows = c.u32();
  t.flows.reserve(n_flows);
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    FlowTrace f;
    f.id = net::FlowId(c.u64());
    f.name = c.string();
    f.kind = FlowKind(c.u8());
    f.mbps = c.pod_vec<double>();
    f.pkts_recv = c.pod_vec<std::uint64_t>();
    f.pkts_lost = c.pod_vec<std::uint64_t>();
    t.flows.push_back(std::move(f));
  }
  t.game_mbps = c.pod_vec<double>();
  t.tcp_mbps = c.pod_vec<double>();
  t.rtt = c.pod_vec<PingClient::Sample>();
  t.game_pkts_recv = c.pod_vec<std::uint64_t>();
  t.game_pkts_lost = c.pod_vec<std::uint64_t>();
  t.queue_drops = c.pod_vec<std::uint64_t>();
  t.frame_times = c.pod_vec<Time>();
  const std::uint32_t n_links = c.u32();
  t.links.reserve(n_links);
  for (std::uint32_t i = 0; i < n_links; ++i) {
    LinkTrace l;
    l.name = c.string();
    l.util_mbps = c.pod_vec<double>();
    l.depth_bytes = c.pod_vec<std::uint64_t>();
    l.drops = c.pod_vec<std::uint64_t>();
    t.links.push_back(std::move(l));
  }
  if (c.u8() != 0) {
    net::FleetResult& fl = t.fleet;
    fl.active = true;
    fl.ticks = c.u64();
    fl.session_ticks = c.u64();
    fl.stall_ticks = c.u64();
    fl.arrivals = c.u64();
    fl.departures = c.u64();
    fl.peak_sessions = c.u32();
    fl.final_sessions = c.u32();
    fl.mean_mbps = c.f64();
    fl.p50_mbps = c.f64();
    fl.p95_mbps = c.f64();
    fl.p99_mbps = c.f64();
    fl.stall_rate = c.f64();
    fl.jain = c.f64();
    const std::uint32_t n_loads = c.u32();
    fl.links.reserve(n_loads);
    for (std::uint32_t i = 0; i < n_loads; ++i) {
      net::FleetLinkLoad ll;
      ll.link = c.string();
      ll.offered_mbps_mean = c.f64();
      ll.served_mbps_mean = c.f64();
      fl.links.push_back(std::move(ll));
    }
  }
  if (!c.done()) {
    throw JournalError("journal: trailing bytes after trace payload");
  }
  return t;
}

// -- hashing ---------------------------------------------------------------

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const RunTrace& t) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a_bytes(h, t.game_mbps.data(), t.game_mbps.size() * sizeof(double));
  h = fnv1a_bytes(h, t.tcp_mbps.data(), t.tcp_mbps.size() * sizeof(double));
  h = fnv1a_bytes(h, t.game_pkts_recv.data(),
                  t.game_pkts_recv.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.game_pkts_lost.data(),
                  t.game_pkts_lost.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.queue_drops.data(),
                  t.queue_drops.size() * sizeof(std::uint64_t));
  h = fnv1a_bytes(h, t.frame_times.data(),
                  t.frame_times.size() * sizeof(Time));
  h = fnv1a_bytes(h, t.rtt.data(), t.rtt.size() * sizeof(PingClient::Sample));
  return h;
}

std::uint64_t sweep_fingerprint(const std::vector<SweepCell>& cells,
                                int runs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_u64 = [&](std::uint64_t v) { h = fnv1a_bytes(h, &v, sizeof v); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    h = fnv1a_bytes(h, s.data(), s.size());
  };

  mix_u64(std::uint64_t(runs));
  mix_u64(cells.size());
  for (const SweepCell& c : cells) {
    mix_str(c.label);
    const Scenario& sc = c.scenario;
    mix_str(sc.label());  // system/capacity/queue/algo in one line
    mix_u64(sc.seed);
    mix_u64(std::uint64_t(sc.duration.count()));
    mix_u64(std::uint64_t(sc.base_rtt.count()));
    mix_u64(std::uint64_t(sc.tcp_start.count()));
    mix_u64(std::uint64_t(sc.tcp_stop.count()));
    mix_u64(std::uint64_t(sc.queue_kind));
    mix_u64(sc.watchdog_event_budget);
    // Fault injection changes what the grid *is*, so an active fault must
    // fail fingerprint matching against a clean journal.  Mixed only when
    // armed so every pre-existing clean-grid fingerprint stays stable.
    // (The wall budget is deliberately absent: it is environmental and
    // never alters a healthy run's trace.)
    if (sc.fault.kind != Scenario::FaultKind::kNone) {
      mix_u64(std::uint64_t(sc.fault.kind));
      mix_u64(sc.fault.seed);
    }
    const auto flows = sc.effective_flows();
    mix_u64(flows.size());
    for (const FlowSpec& f : flows) {
      mix_u64(std::uint64_t(f.kind));
      mix_u64(std::uint64_t(f.id));
      mix_str(f.name);
      mix_u64(std::uint64_t(f.algo));
      mix_u64(std::uint64_t(f.start.count()));
      mix_u64(f.stop ? std::uint64_t(f.stop->count()) : ~std::uint64_t{0});
      mix_u64(std::uint64_t(f.extra_owd.count()));
    }
    // Explicit topologies change what the grid *is*; mixed only when
    // non-empty so every legacy single-bottleneck fingerprint stays stable.
    if (!sc.topology.empty()) {
      const net::TopologySpec topo = sc.topology.resolved();
      mix_str(topo.name);
      mix_u64(topo.links.size());
      for (const net::LinkSpec& l : topo.links) {
        mix_str(l.name);
        mix_u64(std::uint64_t(l.rate.bits_per_sec()));
        mix_u64(std::uint64_t(l.prop_delay.count()));
        mix_u64(l.queue ? std::uint64_t(*l.queue) + 1 : 0);
        if (l.queue_bdp_mult) {
          std::uint64_t bits;
          std::memcpy(&bits, &*l.queue_bdp_mult, sizeof bits);
          mix_u64(bits + 1);
        } else {
          mix_u64(0);
        }
        mix_u64(l.queue_bytes ? std::uint64_t(l.queue_bytes->bytes()) + 1 : 0);
        mix_u64(l.impair && l.impair->any() ? 1 : 0);
        mix_u64(l.rate_schedule.size());
        for (const net::RateChange& rc : l.rate_schedule) {
          mix_u64(std::uint64_t(rc.at.count()));
          mix_u64(std::uint64_t(rc.rate.bits_per_sec()));
        }
      }
      const auto mix_names = [&](const std::vector<std::string>& names) {
        mix_u64(names.size());
        for (const std::string& n : names) mix_str(n);
      };
      mix_names(topo.default_down);
      mix_names(topo.default_up);
      mix_u64(topo.paths.size());
      for (const net::PathSpec& p : topo.paths) {
        mix_u64(std::uint64_t(p.flow));
        mix_names(p.down);
        mix_names(p.up);
      }
    }
    // The fleet spec changes what the grid *is*; mixed only when non-empty
    // (same conditional pattern as fault/topology) so every fleet-free
    // fingerprint stays stable.
    if (!sc.fleet.empty()) {
      const auto mix_f64 = [&](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u64(bits);
      };
      mix_u64(std::uint64_t(sc.fleet.tick.count()));
      mix_f64(sc.fleet.stall_threshold);
      mix_u64(sc.fleet.sources.size());
      for (const net::FluidSourceSpec& src : sc.fleet.sources) {
        mix_u64(std::uint64_t(src.cls));
        mix_str(src.link);
        mix_u64(src.sessions);
        mix_f64(src.rate_mbps);
        mix_f64(src.rate_jitter);
        mix_f64(src.arrival_per_min);
        mix_f64(src.mean_holding_s);
        mix_u64(src.diurnal.size());
        for (double d : src.diurnal) mix_f64(d);
        mix_u64(src.max_sessions);
      }
    }
    // Non-default trace policies thin the series a journal stores, so they
    // also distinguish grids (mixed only when non-default).
    if (sc.trace_stride != 1 || sc.trace_max_flow_series != 0) {
      mix_u64(sc.trace_stride);
      mix_u64(sc.trace_max_flow_series);
    }
  }
  return h;
}

}  // namespace cgs::core
