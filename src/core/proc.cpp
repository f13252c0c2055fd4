#include "core/proc.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace cgs::core::proc {
namespace {

// One result frame crosses the pipe, child -> supervisor:
//   u32 magic | u8 status (0 ok, 1 classified failure) | u8 class
//   | u32 payload_len | payload | u32 crc(everything before crc)
// A frame that is torn (child killed mid-write) or absent fails the CRC /
// length check and the supervisor falls back to exit-status classification.
constexpr std::uint32_t kFrameMagic = 0x50534743u;  // "CGSP"
constexpr std::size_t kFrameFixed = 4 + 1 + 1 + 4;

// Child exit codes for supervisor-protocol failures (never from the job).
constexpr int kExitWriteFailed = 121;

[[noreturn]] void supervisor_error(const char* op) {
  throw std::runtime_error(std::string("proc: ") + op + ": " +
                           std::strerror(errno));
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof v);
  std::memcpy(out.data() + off, &v, sizeof v);
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Build the wire frame for one child verdict.
std::vector<unsigned char> frame_bytes(bool ok, ErrorClass cls,
                                       const unsigned char* payload,
                                       std::size_t payload_len) {
  std::vector<unsigned char> out;
  out.reserve(kFrameFixed + payload_len + 4);
  put_u32(out, kFrameMagic);
  out.push_back(ok ? 0 : 1);
  out.push_back(std::uint8_t(cls));
  put_u32(out, std::uint32_t(payload_len));
  if (payload_len > 0) {
    const std::size_t off = out.size();
    out.resize(off + payload_len);
    std::memcpy(out.data() + off, payload, payload_len);
  }
  put_u32(out, util::crc32(out.data(), out.size()));
  return out;
}

/// The child's result frame as it arrives over the pipe: the fixed part
/// first, then payload and CRC straight into one buffer sized from the
/// header, which becomes the result's payload without another copy.  A
/// bad magic, an implausible length or bytes past the frame break it; the
/// rest is drained unread.
class FrameReader {
 public:
  /// Where the next bytes from the pipe go, and how many.
  [[nodiscard]] std::pair<unsigned char*, std::size_t> space() {
    if (got_ < kFrameFixed) return {head_ + got_, kFrameFixed - got_};
    const std::size_t body_got = got_ - kFrameFixed;
    if (!broken_ && body_got < body_.size()) {
      return {body_.data() + body_got, body_.size() - body_got};
    }
    return {drain_, sizeof drain_};
  }

  /// Account for `n` bytes just read into space().
  void advance(std::size_t n) {
    if (got_ >= kFrameFixed + body_.size()) broken_ = true;  // past the end
    got_ += n;
    if (got_ == kFrameFixed && !broken_) {
      const std::uint32_t payload_len = get_u32(head_ + 6);
      if (get_u32(head_) != kFrameMagic || payload_len > kMaxFramePayload) {
        broken_ = true;
      } else {
        body_.resize(std::size_t(payload_len) + 4);
      }
    }
  }

  /// Fill `out` from a complete, intact frame.  False when the frame is
  /// absent, torn, or corrupt — the caller then classifies from the exit
  /// status instead.
  bool parse(ChildResult& out) {
    if (broken_ || got_ != kFrameFixed + body_.size()) return false;
    const std::size_t payload_len = body_.size() - 4;
    if (get_u32(body_.data() + payload_len) !=
        util::crc32(body_.data(), payload_len,
                    util::crc32(head_, kFrameFixed))) {
      return false;
    }
    const bool ok = head_[4] == 0;
    out.ok = ok;
    out.cls = ok ? ErrorClass::kUnclassified : error_class_from_byte(head_[5]);
    body_.resize(payload_len);
    if (ok) {
      out.payload = std::move(body_);
    } else {
      out.message.assign(reinterpret_cast<const char*>(body_.data()),
                         payload_len);
    }
    return true;
  }

 private:
  // A length beyond this is a broken frame, not a payload to allocate.
  static constexpr std::uint32_t kMaxFramePayload = 1u << 30;

  unsigned char head_[kFrameFixed] = {};
  std::vector<unsigned char> body_;  // payload | crc, once the head is in
  std::size_t got_ = 0;              // frame bytes received
  bool broken_ = false;
  unsigned char drain_[4096] = {};
};

/// Apply the per-job caps inside the child.  Failures are ignored — a cap
/// that cannot be applied degrades to "uncapped", never to a dead child.
void apply_limits(const ResourceLimits& limits) {
  // Crash-heavy workloads must not litter (or stall on) core dumps.
  rlimit core{0, 0};
  (void)::setrlimit(RLIMIT_CORE, &core);
  if (limits.address_space_bytes > 0) {
    rlimit as{rlim_t(limits.address_space_bytes),
              rlim_t(limits.address_space_bytes)};
    (void)::setrlimit(RLIMIT_AS, &as);
  }
  if (limits.cpu_seconds > 0) {
    // Soft cap delivers SIGXCPU (classified kResource); the hard cap two
    // seconds later SIGKILLs a child that somehow survives it.
    rlimit cpu{rlim_t(limits.cpu_seconds), rlim_t(limits.cpu_seconds) + 2};
    (void)::setrlimit(RLIMIT_CPU, &cpu);
  }
}

[[noreturn]] void child_main(int write_fd, const ChildJob& job,
                             const ResourceLimits& limits) {
  apply_limits(limits);
  std::vector<unsigned char> frame;
  try {
    const std::vector<unsigned char> payload = job();
    frame = frame_bytes(true, ErrorClass::kUnclassified, payload.data(),
                        payload.size());
  } catch (const std::exception& e) {
    const char* what = e.what();
    frame = frame_bytes(false, classify(e),
                        reinterpret_cast<const unsigned char*>(what),
                        std::strlen(what));
  } catch (...) {
    static constexpr char kMsg[] = "unknown exception";
    frame = frame_bytes(false, ErrorClass::kUnclassified,
                        reinterpret_cast<const unsigned char*>(kMsg),
                        sizeof kMsg - 1);
  }
  if (!write_exact(write_fd, frame.data(), frame.size())) {
    ::_exit(kExitWriteFailed);
  }
  ::_exit(0);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTRAP: return "SIGTRAP";
    case SIGSYS: return "SIGSYS";
    case SIGKILL: return "SIGKILL";
    case SIGXCPU: return "SIGXCPU";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

/// Classify a child that died without delivering an intact result frame.
void classify_exit(int status, bool timed_out, const ResourceLimits& limits,
                   ChildResult& out) {
  out.ok = false;
  std::ostringstream os;
  if (timed_out) {
    // The supervisor's own SIGKILL: the deadline verdict wins regardless
    // of how the wait status reads.
    out.cls = ErrorClass::kTimeout;
    os << "job exceeded its " << limits.wall_seconds
       << " s wall-clock deadline and was killed";
    out.message = os.str();
    return;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    out.term_signal = sig;
    out.exit_status = -1;
    if (sig == SIGXCPU) {
      out.cls = ErrorClass::kResource;
      os << "child hit its " << limits.cpu_seconds
         << " s CPU rlimit (SIGXCPU)";
    } else if (sig == SIGKILL) {
      // Not our deadline kill, so the kernel's: the OOM killer (or an
      // operator) SIGKILLed the child.
      out.cls = ErrorClass::kResource;
      os << "child was SIGKILLed outside the supervisor "
         << "(kernel OOM killer or operator)";
    } else {
      out.cls = ErrorClass::kCrash;
      os << "child died on fatal signal " << sig << " (" << signal_name(sig)
         << ")";
    }
    out.message = os.str();
    return;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.exit_status = code;
  out.cls = ErrorClass::kCrash;
  os << "child exited with status " << code
     << " without reporting a result";
  out.message = os.str();
}

}  // namespace

bool write_exact(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= std::size_t(w);
  }
  return true;
}

long read_some(int fd, void* data, std::size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, data, n);
    if (r >= 0) return long(r);
    if (errno != EINTR) return -1;
  }
}

bool read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const long r = read_some(fd, p, n);
    if (r <= 0) return false;  // EOF short of n, or a real error
    p += r;
    n -= std::size_t(r);
  }
  return true;
}

ChildResult run_forked(const ChildJob& job, const ResourceLimits& limits) {
  int fds[2];
  if (::pipe(fds) != 0) supervisor_error("pipe");

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    supervisor_error("fork");
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], job, limits);  // never returns
  }
  ::close(fds[1]);

  using Clock = std::chrono::steady_clock;
  const bool has_deadline = limits.wall_seconds > 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limits.wall_seconds));

  ChildResult result;
  FrameReader frame;
  for (;;) {
    int timeout_ms = -1;
    if (has_deadline && !result.timed_out) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      timeout_ms = int(std::max<std::int64_t>(remaining.count(), 0));
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      ::kill(pid, SIGKILL);
      ::close(fds[0]);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {}
      supervisor_error("poll");
    }
    if (pr == 0) {
      // Deadline expired with the child still holding the pipe open:
      // SIGKILL it and drain whatever it managed to write (EOF follows).
      result.timed_out = true;
      ::kill(pid, SIGKILL);
      continue;
    }
    // read_some retries EINTR internally; short reads accumulate in the
    // frame, so a signal storm during a multi-MB frame costs retries, not
    // bytes.
    const auto [dst, room] = frame.space();
    const long r = read_some(fds[0], dst, room);
    if (r < 0) break;   // real error: classify from the exit status
    if (r == 0) break;  // EOF: the child exited (or died)
    frame.advance(std::size_t(r));
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) supervisor_error("waitpid");
  }

  // An intact frame is authoritative: the job finished and reported before
  // anything killed the process.
  if (frame.parse(result)) return result;
  classify_exit(status, result.timed_out, limits, result);
  return result;
}

std::uint32_t backoff_ms(std::uint32_t base_ms, std::uint32_t max_ms,
                         int attempt, std::uint64_t jitter_key) {
  if (base_ms == 0 || attempt <= 0) return 0;
  const int shift = std::min(attempt - 1, 20);
  const std::uint64_t raw = std::uint64_t(base_ms) << shift;
  const std::uint64_t capped = std::min<std::uint64_t>(raw, max_ms);
  // Deterministic jitter into [50%, 100%]: same key, same schedule.
  const std::uint64_t h =
      splitmix64(jitter_key ^ (0x9e3779b97f4a7c15ULL * std::uint64_t(attempt)));
  return std::uint32_t(capped / 2 + (h % (capped / 2 + 1)));
}

}  // namespace cgs::core::proc
