// JobStore tests: bounded admission with retry-after backpressure, the
// job state machine (claim/finish/cancel/requeue), inline-spec parsing,
// and crash-tolerant persistence — state-log round trips, constant-size
// appends, torn and corrupt logs cut at the first bad record, and
// journal-directory rescan re-admitting jobs the log never heard of.
#include "svc/job_store.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "stream/profiles.hpp"
#include "tcp/congestion_control.hpp"

namespace cgs::svc {
namespace {

/// Fresh scratch directory under gtest's temp dir.
std::string tmp_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_job_store_" + name;
  (void)::mkdir(path.c_str(), 0755);
  // Reruns start clean: drop anything a previous run left behind.
  for (const char* f : {"/sweepd.state", "/job-1.jnl", "/job-2.jnl",
                        "/job-3.jnl", "/job-7.jnl"}) {
    std::remove((path + f).c_str());
  }
  return path;
}

/// Size of the file at `path` in bytes, or -1 when it does not exist.
std::int64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? std::int64_t(st.st_size) : -1;
}

KvMap smoke_spec(const std::string& seed = "1") {
  KvMap spec;
  spec["system"] = "stadia";
  spec["cc"] = "cubic";
  spec["duration_s"] = "2";
  spec["seed"] = seed;
  return spec;
}

TEST(Svc, AdmissionAssignsMonotonicIdsAndPersists) {
  const std::string dir = tmp_dir("admit");
  JobStore store(dir, 8);
  const auto a = store.submit(smoke_spec("1"));
  const auto b = store.submit(smoke_spec("2"));
  EXPECT_EQ(a.err, core::ProtoError::kNone);
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(store.queued_count(), 2u);

  std::ifstream state(store.state_path(), std::ios::binary);
  EXPECT_TRUE(state.good()) << "submit must persist the state file";
}

TEST(Svc, FullQueueRejectsWithRetryAfter) {
  JobStore store(tmp_dir("full"), 2);
  ASSERT_EQ(store.submit(smoke_spec("1")).err, core::ProtoError::kNone);
  ASSERT_EQ(store.submit(smoke_spec("2")).err, core::ProtoError::kNone);
  const auto rejected = store.submit(smoke_spec("3"));
  EXPECT_EQ(rejected.err, core::ProtoError::kQueueFull);
  EXPECT_GT(rejected.retry_after_s, 0.0);
  EXPECT_EQ(store.queued_count(), 2u);
  // Claiming one frees a slot.
  EXPECT_EQ(store.claim_next(), 1u);
  EXPECT_EQ(store.submit(smoke_spec("3")).err, core::ProtoError::kNone);
}

TEST(Svc, ClaimFinishLifecycle) {
  JobStore store(tmp_dir("life"), 8);
  const auto adm = store.submit(smoke_spec());
  EXPECT_EQ(store.claim_next(), adm.id);
  JobState state{};
  ASSERT_TRUE(store.snapshot(adm.id, &state, nullptr, nullptr, nullptr,
                             nullptr));
  EXPECT_EQ(state, JobState::kRunning);
  EXPECT_EQ(store.claim_next(), 0u) << "queue is empty while job runs";

  store.finish(adm.id, JobState::kDone, "");
  ASSERT_TRUE(store.snapshot(adm.id, &state, nullptr, nullptr, nullptr,
                             nullptr));
  EXPECT_EQ(state, JobState::kDone);
}

TEST(Svc, CancelQueuedIsImmediateRunningIsFlagged) {
  JobStore store(tmp_dir("cancel"), 8);
  const auto a = store.submit(smoke_spec("1"));
  const auto b = store.submit(smoke_spec("2"));

  EXPECT_EQ(store.cancel(999), core::ProtoError::kUnknownJob);

  // Queued: terminal immediately, and out of the queue.
  EXPECT_EQ(store.cancel(b.id), core::ProtoError::kNone);
  JobState state{};
  ASSERT_TRUE(store.snapshot(b.id, &state, nullptr, nullptr, nullptr,
                             nullptr));
  EXPECT_EQ(state, JobState::kCancelled);
  EXPECT_EQ(store.queued_count(), 1u);
  EXPECT_EQ(store.cancel(b.id), core::ProtoError::kNone) << "idempotent";

  // Running: the stop flag flips; state stays running until the runner
  // observes the interruption.
  ASSERT_EQ(store.claim_next(), a.id);
  EXPECT_EQ(store.cancel(a.id), core::ProtoError::kNone);
  Job* job = store.find(a.id);
  ASSERT_NE(job, nullptr);
  EXPECT_TRUE(job->stop.load());
  EXPECT_TRUE(job->cancel_requested);
}

TEST(Svc, RequeueFrontPutsDrainedJobFirst) {
  JobStore store(tmp_dir("requeue"), 8);
  const auto a = store.submit(smoke_spec("1"));
  (void)store.submit(smoke_spec("2"));
  ASSERT_EQ(store.claim_next(), a.id);
  store.find(a.id)->stop.store(true);
  store.requeue_front(a.id);
  EXPECT_EQ(store.queued_count(), 2u);
  EXPECT_EQ(store.claim_next(), a.id) << "drained job resumes first";
  EXPECT_FALSE(store.find(a.id)->stop.load()) << "stop flag reset";
}

TEST(Svc, RecoverRoundTripsStateAndRequeuesNonTerminal) {
  const std::string dir = tmp_dir("recover");
  std::uint64_t running_id = 0;
  {
    JobStore store(dir, 8);
    (void)store.submit(smoke_spec("1"));       // stays queued
    const auto b = store.submit(smoke_spec("2"));
    running_id = store.claim_next();           // id 1 claimed first
    EXPECT_EQ(running_id, 1u);
    store.finish(b.id, JobState::kDone, "");   // terminal: must NOT requeue
  }
  JobStore store(dir, 8);
  const auto resumed = store.recover();
  // Job 1 was running at "crash" time: reported as resumed, re-queued.
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0], 1u);
  EXPECT_EQ(store.queued_count(), 1u);
  JobState state{};
  KvMap spec;
  ASSERT_TRUE(store.snapshot(1, &state, &spec, nullptr, nullptr, nullptr));
  EXPECT_EQ(state, JobState::kQueued);
  EXPECT_EQ(kv_get(spec, "seed"), "1") << "spec survives the round trip";
  ASSERT_TRUE(store.snapshot(2, &state, nullptr, nullptr, nullptr, nullptr));
  EXPECT_EQ(state, JobState::kDone);
  // New ids continue past everything recovered.
  EXPECT_EQ(store.submit(smoke_spec("9")).id, 3u);
}

TEST(Svc, CorruptStateFileIsDiscardedNotFatal) {
  const std::string dir = tmp_dir("corrupt");
  {
    JobStore store(dir, 8);
    (void)store.submit(smoke_spec("1"));
  }
  {
    std::fstream fs(dir + "/sweepd.state",
                    std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(12);
    const char x = 0x5a;
    fs.write(&x, 1);
  }
  JobStore store(dir, 8);
  EXPECT_TRUE(store.recover().empty());
  EXPECT_EQ(store.queued_count(), 0u) << "corrupt state yields empty store";
  EXPECT_EQ(store.submit(smoke_spec()).id, 1u) << "ids restart cleanly";
}

TEST(Svc, StateLogAppendIsConstantPerTransition) {
  const std::string dir = tmp_dir("append");
  JobStore store(dir, 256);
  (void)store.recover();
  // Bytes each transition of one job adds to the log: submit, claim,
  // finish.
  const auto one_job = [&] {
    std::vector<std::int64_t> added;
    std::int64_t before = file_size(store.state_path());
    const auto step = [&] {
      const std::int64_t now = file_size(store.state_path());
      added.push_back(now - before);
      before = now;
    };
    const auto adm = store.submit(smoke_spec());
    step();
    EXPECT_EQ(store.claim_next(), adm.id);
    step();
    store.finish(adm.id, JobState::kDone, "");
    step();
    return added;
  };
  const std::vector<std::int64_t> first = one_job();
  for (int i = 2; i < 200; ++i) (void)one_job();
  const std::vector<std::int64_t> last = one_job();
  EXPECT_EQ(first, last) << "job 200's transitions cost what job 1's did";
  EXPECT_GT(first[1], 0);
  EXPECT_GT(first[0], first[1]) << "only the admission record has the spec";

  JobStore reopened(dir, 256);
  EXPECT_TRUE(reopened.recover().empty());
  EXPECT_EQ(reopened.queued_count(), 0u);
  JobState state{};
  ASSERT_TRUE(reopened.snapshot(200, &state, nullptr, nullptr, nullptr,
                                nullptr));
  EXPECT_EQ(state, JobState::kDone);
}

TEST(Svc, TornStateTailKeepsCompleteRecords) {
  const std::string dir = tmp_dir("torn");
  std::int64_t before_finish = 0;
  std::int64_t after_finish = 0;
  {
    JobStore store(dir, 8);
    const auto a = store.submit(smoke_spec("1"));
    const auto b = store.submit(smoke_spec("2"));
    const auto c = store.submit(smoke_spec("3"));
    ASSERT_EQ(store.claim_next(), a.id);
    store.finish(a.id, JobState::kDone, "");
    ASSERT_EQ(store.cancel(c.id), core::ProtoError::kNone);
    ASSERT_EQ(store.claim_next(), b.id);
    before_finish = file_size(store.state_path());
    store.finish(b.id, JobState::kDone, "");
    after_finish = file_size(store.state_path());
  }
  // A crash midway through appending job 2's finish record.
  ASSERT_GT(after_finish, before_finish + 1);
  const std::int64_t cut = before_finish + (after_finish - before_finish) / 2;
  ASSERT_EQ(::truncate((dir + "/sweepd.state").c_str(), cut), 0);

  {
    JobStore store(dir, 8);
    // Job 2 is still running as far as the log knows: it is re-queued to
    // resume from its journal.
    EXPECT_EQ(store.recover(), std::vector<std::uint64_t>{2});
    JobState state{};
    KvMap spec;
    std::string error;
    ASSERT_TRUE(store.snapshot(1, &state, nullptr, nullptr, nullptr,
                               nullptr));
    EXPECT_EQ(state, JobState::kDone);
    ASSERT_TRUE(store.snapshot(3, &state, nullptr, &error, nullptr, nullptr));
    EXPECT_EQ(state, JobState::kCancelled);
    EXPECT_EQ(error, "cancelled while queued");
    ASSERT_TRUE(store.snapshot(2, &state, &spec, nullptr, nullptr, nullptr));
    EXPECT_EQ(state, JobState::kQueued);
    EXPECT_EQ(kv_get(spec, "seed"), "2");
    EXPECT_EQ(store.queued_count(), 1u);
    EXPECT_EQ(store.journal_path(2), dir + "/job-2.jnl");
  }
  // Recovery rewrote the log without the torn tail: the next incarnation
  // reads it cleanly, with job 2 queued and ids continuing past job 3.
  JobStore store(dir, 8);
  EXPECT_TRUE(store.recover().empty());
  EXPECT_EQ(store.claim_next(), 2u);
  EXPECT_EQ(store.submit(smoke_spec("4")).id, 4u);
}

TEST(Svc, JournalRescanReadmitsJobsTheStateFileMissed) {
  // Simulate the worst crash: no state file at all, only a job journal
  // whose provenance note carries the submission spec.
  const std::string dir = tmp_dir("rescan");
  const KvMap spec = smoke_spec("42");
  core::JournalMeta meta;
  meta.fingerprint = 0x1234ULL;
  meta.runs = 3;
  meta.cells = 1;
  meta.note = encode_kv(spec);
  { auto w = core::JournalWriter::create(dir + "/job-7.jnl", meta, true); }

  JobStore store(dir, 8);
  (void)store.recover();
  EXPECT_EQ(store.queued_count(), 1u);
  EXPECT_EQ(store.claim_next(), 7u);
  KvMap got;
  ASSERT_TRUE(store.snapshot(7, nullptr, &got, nullptr, nullptr, nullptr));
  EXPECT_EQ(got, spec) << "spec re-derived from the journal note";
  // next_id advanced past the rescanned id.
  EXPECT_EQ(store.submit(smoke_spec()).id, 8u);
}

TEST(Svc, JournalRescanSkipsFilesWithoutAnIntactHeader) {
  // The rescan reads headers only: a foreign file and one cut inside its
  // header are skipped, a journal with an intact header is re-admitted.
  const std::string dir = tmp_dir("rescan_junk");
  core::JournalMeta meta;
  meta.runs = 1;
  meta.cells = 1;
  meta.note = encode_kv(smoke_spec("5"));
  { auto w = core::JournalWriter::create(dir + "/job-7.jnl", meta, true); }
  {
    std::ofstream junk(dir + "/job-2.jnl", std::ios::binary);
    junk << "this file is not a sweep journal, whatever its name says";
  }
  {
    std::ofstream cut(dir + "/job-3.jnl", std::ios::binary);
    cut << "CGSJ";
  }

  JobStore store(dir, 8);
  (void)store.recover();
  EXPECT_EQ(store.queued_count(), 1u);
  EXPECT_EQ(store.claim_next(), 7u);
}

TEST(Svc, InlineSpecBuildsOneValidatedCell) {
  KvMap spec;
  spec["system"] = "luna";
  spec["cc"] = "bbr";
  spec["cap_mbps"] = "15";
  spec["queue"] = "0.5";
  spec["duration_s"] = "2";
  spec["tcp_start_s"] = "0.5";
  spec["tcp_stop_s"] = "1.5";
  spec["seed"] = "77";
  const auto cells = inline_cells_from_spec(spec);
  ASSERT_EQ(cells.size(), 1u);
  const core::Scenario& sc = cells[0].scenario;
  EXPECT_EQ(sc.system, stream::GameSystem::kLuna);
  ASSERT_TRUE(sc.tcp_algo.has_value());
  EXPECT_EQ(*sc.tcp_algo, tcp::CcAlgo::kBbr);
  EXPECT_DOUBLE_EQ(sc.capacity.megabits_per_sec(), 15.0);
  EXPECT_DOUBLE_EQ(sc.queue_bdp_mult, 0.5);
  EXPECT_EQ(sc.seed, 77u);
  EXPECT_NO_THROW(sc.validate());
}

TEST(Svc, InlineSpecRejectsMalformedValuesNamingTheKey) {
  KvMap bad_system = smoke_spec();
  bad_system["system"] = "shadow";
  EXPECT_THROW((void)inline_cells_from_spec(bad_system),
               std::invalid_argument);

  KvMap bad_cap = smoke_spec();
  bad_cap["cap_mbps"] = "fast";
  try {
    (void)inline_cells_from_spec(bad_cap);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cap_mbps"), std::string::npos)
        << "error must name the offending key: " << e.what();
  }

  KvMap bad_cc = smoke_spec();
  bad_cc["cc"] = "hybla";
  EXPECT_THROW((void)inline_cells_from_spec(bad_cc), std::invalid_argument);
}

}  // namespace
}  // namespace cgs::svc
