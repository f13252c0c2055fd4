// Supervisor contract: every way a forked child can die maps to the right
// ErrorClass, intact result frames round-trip byte-exact, and the backoff
// schedule is deterministic.  These are the properties the sweep engine's
// forked-isolation mode is built on.
#include "core/proc.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace cgs::core::proc {
namespace {

// Sanitizer runtimes reserve huge address-space shadows and install their
// own death handlers, which breaks RLIMIT_AS semantics (and turns a clean
// bad_alloc into an allocator abort) — gate those cases off.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(Proc, OkPayloadRoundTripsByteExact) {
  std::vector<unsigned char> want(10'000);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = (unsigned char)(i * 131 + 7);
  }
  const ChildResult r = run_forked([&want] { return want; }, {});
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.payload, want);
  EXPECT_EQ(r.term_signal, 0);
  EXPECT_FALSE(r.timed_out);
}

TEST(Proc, EmptyAndMultiMegabytePayloadsArriveWhole) {
  // The frame is read into one buffer sized from its header: the empty
  // payload is header + CRC only, the large one spans many pipe reads.
  for (const std::size_t size : {std::size_t(0), std::size_t(3) << 20}) {
    std::vector<unsigned char> want(size);
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] = (unsigned char)(i * 17 + 3);
    }
    const ChildResult r = run_forked([&want] { return want; }, {});
    ASSERT_TRUE(r.ok) << "size " << size << ": " << r.message;
    EXPECT_EQ(r.payload, want) << "size " << size;
  }
}

TEST(Proc, ChildExceptionComesBackClassified) {
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        throw sim::WatchdogError("event budget exceeded",
                                 std::chrono::seconds(3), 42);
      },
      {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cls, ErrorClass::kWatchdog);
  EXPECT_NE(r.message.find("event budget"), std::string::npos) << r.message;

  const ChildResult s = run_forked(
      []() -> std::vector<unsigned char> {
        throw std::invalid_argument("bad knob");
      },
      {});
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.cls, ErrorClass::kScenario);
}

TEST(Proc, FatalSignalIsCrash) {
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        // Sanitizer runtimes install a SEGV handler that turns the signal
        // into an exit status; the default action is what a crash does.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
        return {};
      },
      {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cls, ErrorClass::kCrash);
  EXPECT_EQ(r.term_signal, SIGSEGV);
  EXPECT_NE(r.message.find("SIGSEGV"), std::string::npos) << r.message;
}

TEST(Proc, SilentExitIsCrashWithStatus) {
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        std::_Exit(7);  // dies without writing a result frame
      },
      {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cls, ErrorClass::kCrash);
  EXPECT_EQ(r.exit_status, 7);
  EXPECT_NE(r.message.find("status 7"), std::string::npos) << r.message;
}

TEST(Proc, WallDeadlineKillsAndClassifiesTimeout) {
  ResourceLimits limits;
  limits.wall_seconds = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        for (;;) ::pause();  // wedged and idle: only a wall deadline sees it
      },
      limits);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.cls, ErrorClass::kTimeout);
  EXPECT_NE(r.message.find("wall-clock"), std::string::npos) << r.message;
  EXPECT_LT(wall, 5.0) << "deadline must kill promptly, not hang the worker";
}

TEST(Proc, CpuRlimitKillIsResource) {
  ResourceLimits limits;
  limits.cpu_seconds = 1;
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        volatile std::uint64_t sink = 0;
        for (;;) sink = sink + 1;  // burns CPU until SIGXCPU
      },
      limits);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cls, ErrorClass::kResource);
  EXPECT_EQ(r.term_signal, SIGXCPU);
}

TEST(Proc, AddressSpaceLimitSurfacesAsResource) {
  if (kSanitized) {
    GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadows";
  }
  ResourceLimits limits;
  limits.address_space_bytes = 512ull << 20;
  limits.wall_seconds = 30;  // backstop: never hang the suite
  const ChildResult r = run_forked(
      []() -> std::vector<unsigned char> {
        std::vector<std::unique_ptr<char[]>> hog;
        for (;;) {
          constexpr std::size_t kChunk = 16ull << 20;
          hog.push_back(std::make_unique<char[]>(kChunk));
          std::memset(hog.back().get(), 0x5a, kChunk);
        }
      },
      limits);
  EXPECT_FALSE(r.ok);
  // Orderly path: the allocation fails, the child reports bad_alloc as a
  // clean kResource failure (no signal at all).
  EXPECT_EQ(r.cls, ErrorClass::kResource) << r.message;
}

// Counts deliveries so the storm test can prove signals actually landed.
std::atomic<int> g_storm_signals{0};
void storm_handler(int) { g_storm_signals.fetch_add(1); }

// Regression: a signal storm (SIGCHLD-adjacent, as sibling workers reap
// their children, plus operator signals) interrupting the supervisor while
// a multi-megabyte result frame crosses the pipe must cost retries, not
// bytes.  The handler is installed WITHOUT SA_RESTART so every landed
// signal turns an in-flight read/write into EINTR or a short transfer —
// exactly the case the EINTR-hardened I/O helpers exist for.
TEST(Proc, FrameSurvivesSignalStormDuringTransfer) {
  if (kSanitized) {
    GTEST_SKIP() << "signal-storm timing is unreliable under sanitizers";
  }
  struct sigaction sa{};
  struct sigaction old{};
  sa.sa_handler = storm_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: force EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  g_storm_signals.store(0);

  // A payload far beyond the pipe buffer, so the transfer spans many
  // syscalls on both sides and the storm has real windows to hit.
  std::vector<unsigned char> want(4u << 20);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = (unsigned char)(i * 167 + 13);
  }

  const pthread_t target = pthread_self();
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    while (storming.load(std::memory_order_relaxed)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (int i = 0; i < 8; ++i) {
    const ChildResult r = run_forked([&want] { return want; }, {});
    ASSERT_TRUE(r.ok) << "iteration " << i << ": " << r.message;
    ASSERT_EQ(r.payload, want) << "iteration " << i;
  }

  storming.store(false, std::memory_order_relaxed);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_GT(g_storm_signals.load(), 0)
      << "storm never landed a signal — the test exercised nothing";
}

// The exact-I/O helpers on a plain pipe: short transfers accumulate and
// EOF-before-n is an orderly false, not garbage.
TEST(Proc, ExactIoHelpersAccumulateAndDetectEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::vector<unsigned char> want(100'000);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = (unsigned char)(i * 31 + 5);
  }
  std::thread writer([&] {
    ASSERT_TRUE(write_exact(fds[1], want.data(), want.size()));
    close(fds[1]);
  });
  std::vector<unsigned char> got(want.size());
  EXPECT_TRUE(read_exact(fds[0], got.data(), got.size()));
  EXPECT_EQ(got, want);
  unsigned char extra = 0;
  EXPECT_FALSE(read_exact(fds[0], &extra, 1)) << "EOF must read false";
  writer.join();
  close(fds[0]);
}

TEST(Proc, BackoffGrowsCapsAndJittersDeterministically) {
  // Same key -> identical schedule.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(backoff_ms(100, 2000, attempt, 77),
              backoff_ms(100, 2000, attempt, 77));
  }
  // Jitter stays within [cap/2, cap]; the cap binds from attempt 6 on.
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const std::uint32_t cap =
        std::min<std::uint32_t>(100u << (attempt - 1), 2000u);
    const std::uint32_t d = backoff_ms(100, 2000, attempt, 12345);
    EXPECT_GE(d, cap / 2) << "attempt " << attempt;
    EXPECT_LE(d, cap) << "attempt " << attempt;
  }
  // Different keys decorrelate.
  bool any_different = false;
  for (std::uint64_t key = 0; key < 8; ++key) {
    any_different = any_different ||
                    backoff_ms(100, 2000, 3, key) != backoff_ms(100, 2000, 3,
                                                                key + 100);
  }
  EXPECT_TRUE(any_different);
  EXPECT_EQ(backoff_ms(0, 2000, 3, 1), 0u) << "base 0 disables backoff";
}

}  // namespace
}  // namespace cgs::core::proc
