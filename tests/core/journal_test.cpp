// Run-journal format tests: header/record round trips, the torn-tail
// truncation contract (a crash mid-append must cost exactly one record),
// corruption detection, and bit-exact RunTrace serialization.
#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "sweep_test_util.hpp"

namespace cgs::core {
namespace {

/// Unique scratch path under gtest's temp dir; removed up front so reruns
/// start clean.
std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgs_journal_test_" + name;
  std::remove(path.c_str());
  return path;
}

JournalMeta test_meta() {
  JournalMeta meta;
  meta.fingerprint = 0xfeedface12345678ULL;
  meta.runs = 3;
  meta.cells = 2;
  meta.note = "grid=smoke seed=42 runs=3";
  return meta;
}

JournalEntry ok_entry() {
  JournalEntry e;
  e.cell = 1;
  e.run = 2;
  e.seed = 44;
  e.ok = true;
  e.cls = ErrorClass::kUnclassified;
  e.trace_hash = 0x0123456789abcdefULL;
  e.payload = {1, 2, 3, 4, 5};
  return e;
}

JournalEntry failed_entry() {
  JournalEntry e;
  e.cell = 0;
  e.run = 0;
  e.seed = 42;
  e.ok = false;
  e.cls = ErrorClass::kWatchdog;
  e.trace_hash = 0;
  const std::string what = "[watchdog] cell 'sick' seed 42: budget";
  e.payload.assign(what.begin(), what.end());
  return e;
}

void append_raw(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(bytes.data(), std::streamsize(bytes.size()));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekg(std::streamoff(offset));
  char b = 0;
  fs.read(&b, 1);
  b = char(b ^ 0x5a);
  fs.seekp(std::streamoff(offset));
  fs.write(&b, 1);
}

TEST(Journal, HeaderAndRecordsRoundTrip) {
  const std::string path = tmp_journal("roundtrip.jnl");
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), /*sync=*/true);
    w.append(ok_entry());
    w.append(failed_entry());
  }
  const auto scan = read_journal(path);
  ASSERT_TRUE(scan.has_value());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->meta.fingerprint, test_meta().fingerprint);
  EXPECT_EQ(scan->meta.runs, 3u);
  EXPECT_EQ(scan->meta.cells, 2u);
  EXPECT_EQ(scan->meta.note, "grid=smoke seed=42 runs=3");
  ASSERT_EQ(scan->entries.size(), 2u);

  const JournalEntry& a = scan->entries[0];
  EXPECT_EQ(a.cell, 1u);
  EXPECT_EQ(a.run, 2u);
  EXPECT_EQ(a.seed, 44u);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.trace_hash, 0x0123456789abcdefULL);
  EXPECT_EQ(a.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));

  const JournalEntry& b = scan->entries[1];
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(b.cls, ErrorClass::kWatchdog);
  EXPECT_EQ(b.seed, 42u);
  std::remove(path.c_str());
}

TEST(Journal, MissingOrTruncatedHeaderMeansNoJournal) {
  // Absent file and a header too short to validate both report "no
  // journal" (the caller recreates it) rather than throwing.
  EXPECT_FALSE(read_journal(tmp_journal("missing.jnl")).has_value());
  const std::string path = tmp_journal("stub.jnl");
  append_raw(path, {'C', 'G', 'S', 'J'});
  EXPECT_FALSE(read_journal(path).has_value());
  std::remove(path.c_str());
}

TEST(Journal, CorruptHeaderThrows) {
  const std::string path = tmp_journal("badheader.jnl");
  { JournalWriter w = JournalWriter::create(path, test_meta(), true); }
  flip_byte(path, 14);  // inside the fingerprint field -> header CRC fails
  EXPECT_THROW((void)read_journal(path), JournalError);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedAndRecoverable) {
  const std::string path = tmp_journal("torn.jnl");
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), true);
    w.append(ok_entry());
  }
  const auto clean = read_journal(path);
  ASSERT_TRUE(clean.has_value());
  const std::uint64_t v1 = clean->valid_bytes;

  // Crash mid-append: a few bytes of a half-written record.
  append_raw(path, {0x47, 0x52, 0x4e, 0x4c, 0x01, 0x00, 0x00});
  const auto torn = read_journal(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->valid_bytes, v1);
  ASSERT_EQ(torn->entries.size(), 1u);  // the complete record survives

  // append_to truncates the torn tail and continues the sequence.
  {
    JournalWriter w = JournalWriter::append_to(path, v1, true);
    w.append(failed_entry());
  }
  const auto healed = read_journal(path);
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->torn_tail);
  ASSERT_EQ(healed->entries.size(), 2u);
  EXPECT_EQ(healed->entries[1].seed, 42u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptLastRecordIsTornButMidFileThrows) {
  const std::string path = tmp_journal("corrupt.jnl");
  std::uint64_t v1 = 0;
  {
    JournalWriter w = JournalWriter::create(path, test_meta(), true);
    w.append(ok_entry());
  }
  v1 = read_journal(path)->valid_bytes;
  {
    JournalWriter w = JournalWriter::append_to(path, v1, true);
    w.append(failed_entry());
  }
  const std::uint64_t v2 = read_journal(path)->valid_bytes;

  // Bit rot in the *last* record: indistinguishable from a torn write, so
  // it is dropped, not fatal.
  flip_byte(path, v2 - 6);
  const auto torn = read_journal(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->entries.size(), 1u);
  flip_byte(path, v2 - 6);  // restore

  // Bit rot *mid-file* (a later record follows) cannot be a torn write —
  // that is data corruption and must refuse, not silently drop.
  flip_byte(path, v1 - 6);
  EXPECT_THROW((void)read_journal(path), JournalError);
  std::remove(path.c_str());
}

/// `src` cut to its first `bytes` bytes, as a crash would leave it.
std::string truncated_copy(const std::string& src, std::uint64_t bytes) {
  const std::string dst = src + ".cut";
  std::filesystem::copy_file(src, dst,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(dst, bytes);
  return dst;
}

/// A journal of `k` ok records with distinct payload sizes; `starts`
/// receives each record's file offset and the end of file, from the
/// documented layout (header 36 bytes + note, record 38 bytes + payload).
std::string journal_of(const std::string& name, int k,
                       std::vector<std::uint64_t>& starts) {
  const std::string path = tmp_journal(name);
  JournalWriter w = JournalWriter::create(path, test_meta(), true);
  starts = {36 + test_meta().note.size()};
  for (int i = 0; i < k; ++i) {
    JournalEntry e = ok_entry();
    e.run = std::uint32_t(i);
    e.payload.assign(std::size_t(20 + 7 * i), std::uint8_t(i + 1));
    w.append(e);
    starts.push_back(starts.back() + 38 + e.payload.size());
  }
  w.close();
  EXPECT_EQ(std::filesystem::file_size(path), starts.back());
  return path;
}

TEST(Journal, LastRecordCutAtEveryByteIsATornTail) {
  constexpr int kRecords = 4;
  std::vector<std::uint64_t> starts;
  const std::string path = journal_of("cut_record.jnl", kRecords, starts);
  const std::uint64_t last = starts[kRecords - 1];
  for (std::uint64_t cut = last + 1; cut < starts[kRecords]; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string cut_path = truncated_copy(path, cut);
    const auto scan = read_journal(cut_path);
    ASSERT_TRUE(scan.has_value());
    EXPECT_TRUE(scan->torn_tail);
    EXPECT_EQ(scan->valid_bytes, last);
    ASSERT_EQ(scan->entries.size(), std::size_t(kRecords - 1));
    for (int i = 0; i < kRecords - 1; ++i) {
      EXPECT_EQ(scan->entries[std::size_t(i)].run, std::uint32_t(i));
      EXPECT_EQ(scan->entries[std::size_t(i)].payload.size(),
                std::size_t(20 + 7 * i));
    }
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(Journal, CorruptMiddleRecordThrows) {
  std::vector<std::uint64_t> starts;
  const std::string path = journal_of("corrupt_middle.jnl", 3, starts);
  flip_byte(path, starts[1] + 40);  // inside the second record's payload
  EXPECT_THROW((void)read_journal(path), JournalError);
  std::optional<JournalReader> r = JournalReader::open(path);
  ASSERT_TRUE(r.has_value());
  JournalEntry e;
  EXPECT_TRUE(r->next(e));
  EXPECT_THROW((void)r->next(e), JournalError);
  std::remove(path.c_str());
}

TEST(Journal, HeaderCutAtEveryByteMeansNoJournal) {
  std::vector<std::uint64_t> starts;
  const std::string path = journal_of("cut_header.jnl", 1, starts);
  for (std::uint64_t cut = 0; cut < starts[0]; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string cut_path = truncated_copy(path, cut);
    EXPECT_FALSE(read_journal(cut_path).has_value());
    EXPECT_FALSE(JournalReader::open(cut_path).has_value());
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(Journal, ReaderReReadsARecordByOffsetAndRechecksItsCrc) {
  std::vector<std::uint64_t> starts;
  const std::string path = journal_of("reread.jnl", 3, starts);
  std::optional<JournalReader> r = JournalReader::open(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->meta().note, test_meta().note);
  JournalEntry e;
  std::vector<JournalEntry> seen;
  for (std::size_t i = 0; r->next(e); ++i) {
    EXPECT_EQ(r->record_offset(), starts[i]);
    seen.push_back(e);
  }
  EXPECT_FALSE(r->torn_tail());
  EXPECT_EQ(r->valid_bytes(), starts.back());
  ASSERT_EQ(seen.size(), 3u);

  JournalEntry again;
  r->read_at(starts[1], again);
  EXPECT_EQ(again.run, seen[1].run);
  EXPECT_EQ(again.payload, seen[1].payload);
  flip_byte(path, starts[1] + 40);
  EXPECT_THROW(r->read_at(starts[1], again), JournalError);
  std::remove(path.c_str());
}

TEST(Journal, TraceSerializationIsBitExact) {
  Scenario sc = quick_scenario(77);
  Testbed bed(sc);
  const RunTrace t = bed.run();

  const std::vector<std::uint8_t> bytes = serialize_trace(t);
  const RunTrace rt = deserialize_trace(bytes.data(), bytes.size());

  // Same digest, same re-serialization: the round trip loses nothing.
  EXPECT_EQ(trace_hash(rt), trace_hash(t));
  EXPECT_EQ(serialize_trace(rt), bytes);

  ASSERT_EQ(rt.flows.size(), t.flows.size());
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    EXPECT_EQ(rt.flows[i].id, t.flows[i].id);
    EXPECT_EQ(rt.flows[i].name, t.flows[i].name);
    EXPECT_EQ(rt.flows[i].kind, t.flows[i].kind);
    EXPECT_EQ(rt.flows[i].mbps, t.flows[i].mbps);
  }
  EXPECT_EQ(rt.game_mbps, t.game_mbps);
  EXPECT_EQ(rt.tcp_mbps, t.tcp_mbps);
  EXPECT_EQ(rt.game_pkts_recv, t.game_pkts_recv);
  EXPECT_EQ(rt.queue_drops, t.queue_drops);
  EXPECT_EQ(rt.frame_times, t.frame_times);
  EXPECT_EQ(rt.rtt.size(), t.rtt.size());
  EXPECT_EQ(rt.sample_interval, t.sample_interval);
  EXPECT_EQ(rt.duration, t.duration);

  // Truncated payloads never produce a half-parsed trace.
  EXPECT_THROW((void)deserialize_trace(bytes.data(), bytes.size() / 2),
               JournalError);
}

TEST(Journal, FingerprintPinsGridShape) {
  std::vector<SweepCell> cells = {{"a", quick_scenario(1)},
                                  {"b", quick_scenario(2)}};
  const std::uint64_t base = sweep_fingerprint(cells, 3);
  EXPECT_EQ(sweep_fingerprint(cells, 3), base);  // deterministic

  EXPECT_NE(sweep_fingerprint(cells, 4), base);  // runs count matters
  std::vector<SweepCell> renamed = cells;
  renamed[1].label = "b2";
  EXPECT_NE(sweep_fingerprint(renamed, 3), base);  // labels matter
  std::vector<SweepCell> reseeded = cells;
  reseeded[0].scenario.seed = 99;
  EXPECT_NE(sweep_fingerprint(reseeded, 3), base);  // seeds matter
  std::vector<SweepCell> requeued = cells;
  requeued[0].scenario.queue_bdp_mult = 7.0;
  EXPECT_NE(sweep_fingerprint(requeued, 3), base);  // scenario shape matters
}

TEST(Journal, ActiveFaultInjectionChangesTheFingerprint) {
  std::vector<SweepCell> cells = {{"a", quick_scenario(1)}};
  const std::uint64_t base = sweep_fingerprint(cells, 3);

  std::vector<SweepCell> poisoned = cells;
  poisoned[0].scenario.fault.kind = Scenario::FaultKind::kCrash;
  EXPECT_NE(sweep_fingerprint(poisoned, 3), base)
      << "a poisoned grid must not resume a clean journal";
  std::vector<SweepCell> targeted = poisoned;
  targeted[0].scenario.fault.seed = 2;
  EXPECT_NE(sweep_fingerprint(targeted, 3), sweep_fingerprint(poisoned, 3));

  // Environmental knobs must NOT move it: same experiment, slower host.
  std::vector<SweepCell> budgeted = cells;
  budgeted[0].scenario.watchdog_wall_budget_s = 5.0;
  EXPECT_EQ(sweep_fingerprint(budgeted, 3), base);
}

TEST(Journal, WriteFailureNamesThePathAndErrno) {
  // /dev/full accepts the open and fails every write with ENOSPC — the
  // exact failure mode of a journal on a filled-up disk.
  if (::std::ifstream("/dev/full").fail()) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  try {
    JournalWriter w =
        JournalWriter::create("/dev/full", test_meta(), /*sync=*/false);
    w.append(ok_entry());
    w.close();
    FAIL() << "writing a journal to /dev/full must throw";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    EXPECT_NE(what.find("errno"), std::string::npos) << what;
    EXPECT_NE(what.find("No space left"), std::string::npos) << what;
  }
}

TEST(Journal, CloseSurfacesDeferredErrorsAndIsIdempotent) {
  const std::string path = tmp_journal("close.jnl");
  JournalWriter w = JournalWriter::create(path, test_meta(), /*sync=*/false);
  w.append(ok_entry());
  EXPECT_NO_THROW(w.close());
  EXPECT_NO_THROW(w.close());  // second close is a no-op
  EXPECT_THROW(w.append(ok_entry()), JournalError);  // closed writer
  const auto scan = read_journal(path);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->entries.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cgs::core
