// fig3_grid: the paper's 54-cell competing grid (1 run per cell, full
// 555-s schedule) through run_sweep on a thread pool, journaled with fsync
// into a fresh directory, CSVs written through core/report; then the same
// sweep resumed against its completed journal, so every job is preloaded.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "cgstream.hpp"
#include "grids.hpp"
#include "pins.hpp"

namespace perfbench {

namespace {

using cgs::core::SweepCell;
using cgs::core::SweepOptions;
using cgs::core::SweepResult;

/// Set-up samples taken before the first round and before each later one,
/// so their median spans the whole window.
constexpr int kSetupFirst = 10;
constexpr int kSetupPerRound = 8;
constexpr double kSimPerRun = 555.0;

/// The bytes of every CSV the sweep wrote, in a fixed order.
std::string csv_bytes(const cgs::core::SweepCsvFiles& f) {
  std::string bytes = read_file(f.cells_path) + read_file(f.links_path);
  if (!f.fleet_path.empty()) bytes += read_file(f.fleet_path);
  return bytes;
}

SweepOptions grid_options(const std::string& journal, int threads,
                          std::uint64_t grid_seed) {
  SweepOptions o;
  o.runs = 1;
  o.threads = threads;
  o.journal_path = journal;
  o.journal_sync = true;
  o.journal_note = "grid=fig3 seed=" + std::to_string(grid_seed) + " runs=1";
  o.throw_on_failure = false;
  return o;
}

/// One completion seen by the progress callback: when, and on which
/// worker (the callback runs on the worker that finished the job).
struct Stamp {
  double t = 0;
  std::thread::id worker;
};

}  // namespace

Outcome run_fig3_grid(const Args& a, Tracer& tr) {
  Outcome out;
  check_golden(out);
  out.check(std::size(kFig3Pins) == kFig3Seeds,
            "fig3_grid: pin table does not cover its seeds");
  if (!out.correct) return out;
  ScratchDir scratch(a.work_root / "scratch");
  const int threads = a.threads;

  // Set-up: grid build plus run_sweep with the stop flag already raised —
  // validation, fingerprint and the fsync'd journal header, but no job.
  E2eSamples e;
  const auto setup_samples = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const std::filesystem::path dir = scratch.subdir("setup");
      const std::atomic<bool> stop{true};
      const auto t0 = Clock::now();
      std::vector<SweepCell> cells =
          cgs::tools::competing_grid(kFig3Pins[0].seed);
      SweepOptions o = grid_options((dir / "grid.jnl").string(), threads,
                                    kFig3Pins[0].seed);
      o.stop = &stop;
      const SweepResult r = cgs::core::run_sweep(std::move(cells), o);
      e.setup_s.push_back(seconds_since(t0));
      out.check(r.report.finished == 0, "fig3_grid: set-up probe ran jobs");
    }
  };
  setup_samples(kSetupFirst);

  const RoundPlan plan{a.seconds, 2, a.trace};
  E2eSamples et;  // traced rounds
  std::vector<double> resume_s, read_s, csv_s;
  std::vector<double> busy, tail, ser_s, hash_s, add_s, file_bytes;
  std::map<std::string, double> first;  // exact counts of the first round
  int retries = 0, jobs = 0;

  const auto t_start = Clock::now();
  for (int round = 0; plan.more(round, t_start); ++round) {
    if (round > 0) setup_samples(kSetupPerRound);
    const bool traced = plan.traced(round);
    tr.set_active(traced);
    Round rd;
    const GridPin& pin =
        kFig3Pins[(a.seed + std::uint64_t(round)) % kFig3Seeds];
    const std::filesystem::path dir = scratch.subdir("grid");
    const std::string journal = (dir / "grid.jnl").string();
    Scoped rs(tr, "round", pin.seed);

    std::mutex stamps_mu;
    std::vector<Stamp> stamps;
    SweepOptions o = grid_options(journal, threads, pin.seed);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    o.progress = [&](int, int) {
      std::lock_guard lk(stamps_mu);
      stamps.push_back({seconds_since(t0), std::this_thread::get_id()});
    };
    const AllocCounts a0 = alloc_counts();
    if (traced) set_alloc_counting(true);
    const double sweep_open = tr.now();
    const int sweep_span =
        tr.enabled() ? tr.open("core.sweep.run_sweep", pin.seed) : -1;
    SweepResult fresh =
        cgs::core::run_sweep(cgs::tools::competing_grid(pin.seed), o);
    if (sweep_span >= 0) tr.close(sweep_span);
    set_alloc_counting(false);
    const AllocCounts a1 = alloc_counts();
    const double sweep_s = seconds_since(t0);
    const auto tc = Clock::now();
    cgs::core::SweepCsvFiles fresh_csv;
    {
      Scoped s(tr, "core.report.write_sweep_csvs", pin.seed);
      fresh_csv = cgs::core::write_sweep_csvs((dir / "fresh").string(), fresh);
    }
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    csv_s.push_back(seconds_since(tc));

    const int total = fresh.report.total;
    jobs = total;
    out.attempted += total;
    out.failed += long(fresh.report.failed());
    out.check(fresh.report.failed() == 0 && fresh.report.finished == total,
              "fig3_grid: fresh sweep left failed or unfinished jobs");
    retries += fresh.report.retries;

    // Per-job wall from each worker's consecutive completions; latency from
    // sweep start to the job's result.
    std::map<std::thread::id, double> last;
    for (std::size_t k = 0; k < stamps.size(); ++k) {
      const Stamp& s = stamps[k];
      const double start = last.count(s.worker) ? last[s.worker] : 0.0;
      rd.run_s.push_back(s.t - start);
      rd.job_latency_s.push_back(s.t);
      last[s.worker] = s.t;
      tr.add("job", k, sweep_open + start, sweep_open + s.t, sweep_span);
    }
    const std::size_t idle_from =
        stamps.size() > std::size_t(threads) ? stamps.size() - threads : 0;
    tail.push_back(sweep_s - (stamps.empty() ? 0 : stamps[idle_from].t));
    busy.push_back(cpu / (threads * wall));

    // Resume against the completed journal: every job preloaded.
    SweepOptions ro = grid_options(journal, threads, pin.seed);
    const auto t3 = Clock::now();
    SweepResult resumed;
    cgs::core::SweepCsvFiles resumed_csv;
    {
      Scoped s(tr, "core.sweep.resume", pin.seed);
      resumed = cgs::core::run_sweep(cgs::tools::competing_grid(pin.seed), ro);
      resumed_csv =
          cgs::core::write_sweep_csvs((dir / "resumed").string(), resumed);
    }
    resume_s.push_back(seconds_since(t3));
    out.check(resumed.report.skipped == total,
              "fig3_grid: resume re-ran jobs instead of preloading them");
    const std::string fresh_bytes = csv_bytes(fresh_csv);
    out.check(fresh_bytes == csv_bytes(resumed_csv),
              "fig3_grid: resumed CSVs differ from the fresh sweep's");
    out.check(fnv_digest(fresh_bytes) == pin.csv_digest,
              "fig3_grid seed " + std::to_string(pin.seed) +
                  ": CSV digest differs from the pin");

    const auto t5 = Clock::now();
    std::optional<cgs::core::JournalScan> scan;
    {
      Scoped s(tr, "core.journal.read_journal", pin.seed);
      scan = cgs::core::read_journal(journal);
    }
    read_s.push_back(seconds_since(t5));
    file_bytes.push_back(double(std::filesystem::file_size(journal)));
    const JournalDigest jd = scan ? digest_journal(*scan) : JournalDigest{};
    out.check(jd.records == std::size_t(total) && jd.all_ok &&
                  jd.trace_digest == pin.trace_digest &&
                  jd.trace_bytes == pin.trace_bytes,
              "fig3_grid seed " + std::to_string(pin.seed) +
                  ": journal digest or bytes differ from the pin");

    if (traced && scan) {
      // Time the journal and aggregate calls the sweep made, on its traces.
      TraceCounts sum;
      std::vector<cgs::core::ConditionAccumulator> accs;
      const std::vector<SweepCell> cells = cgs::tools::competing_grid(pin.seed);
      for (const SweepCell& c : cells) accs.emplace_back(c.scenario);
      for (const auto& en : scan->entries) {
        const cgs::core::RunTrace t =
            cgs::core::deserialize_trace(en.payload.data(), en.payload.size());
        auto ts = Clock::now();
        (void)cgs::core::serialize_trace(t);
        ser_s.push_back(seconds_since(ts));
        ts = Clock::now();
        out.check(cgs::core::trace_hash(t) == en.trace_hash,
                  "fig3_grid: journaled trace hash does not match its payload");
        hash_s.push_back(seconds_since(ts));
        ts = Clock::now();
        accs[en.cell].add(t);
        add_s.push_back(seconds_since(ts));
        const TraceCounts c = trace_counts(t);
        sum.recv += c.recv;
        sum.lost += c.lost;
        sum.drops += c.drops;
      }
      if (first.empty()) {
        first["stream.pkts_received_per_run"] = sum.recv / total;
        first["stream.pkts_lost_per_run"] = sum.lost / total;
        first["net.drops_per_run"] = sum.drops / total;
        first["core.journal.trace_bytes"] = double(jd.trace_bytes) / total;
        first["alloc.count_per_run"] = double(a1.count - a0.count) / total;
        first["alloc.bytes_per_run"] = double(a1.bytes - a0.bytes) / total;
      }
    }

    rd.wall_s = wall;
    rd.cpu_s = cpu;
    rd.jobs = total;
    rd.sim_s = kSimPerRun * total;
    (traced ? et : e).rounds.push_back(std::move(rd));
  }
  tr.set_active(false);
  et.setup_s = e.setup_s;

  out.extra.push_back({"resume_s", median(resume_s), "s"});
  out.extra.push_back({"error_rate", double(out.failed) / double(out.attempted),
                       "failed/attempted"});
  out.extra.push_back({"threads", double(threads), "count"});

  std::map<std::string, double> l = first;
  l["core.journal.resume_s"] = median(resume_s);
  l["core.journal.read_s"] = median(read_s);
  l["core.journal.file_bytes"] = median(file_bytes);
  l["core.report.csv_s"] = median(csv_s);
  l["core.sweep.jobs"] = jobs;
  l["core.sweep.retries"] = retries;
  l["core.sweep.busy_ratio"] = median(busy);
  l["core.sweep.tail_s"] = median(tail);
  l["core.journal.serialize_s"] = median(ser_s);
  l["core.journal.hash_s"] = median(hash_s);
  l["core.aggregate.add_s"] = median(add_s);
  finish_e2e(out, e, et, l, tr);
  return out;
}

void print_fig3_pins(const Args& a) {
  const int threads = a.threads;
  std::printf("inline constexpr GridPin kFig3Pins[] = {\n");
  for (std::uint64_t seed = 1; seed <= kFig3Seeds; ++seed) {
    ScratchDir scratch(a.work_root / "scratch");
    const std::string journal = (scratch.path() / "grid.jnl").string();
    const SweepResult r = cgs::core::run_sweep(
        cgs::tools::competing_grid(seed), grid_options(journal, threads, seed));
    const auto files =
        cgs::core::write_sweep_csvs((scratch.path() / "g").string(), r);
    const JournalDigest jd = digest_journal(*cgs::core::read_journal(journal));
    std::printf("    {%llu, 0x%016llxULL, %llu, 0x%016llxULL},\n",
                (unsigned long long)seed, (unsigned long long)jd.trace_digest,
                (unsigned long long)jd.trace_bytes,
                (unsigned long long)fnv_digest(csv_bytes(files)));
    std::fflush(stdout);
  }
  std::printf("};\n\n");
}

}  // namespace perfbench
