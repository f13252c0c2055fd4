#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/journal.hpp"
#include "core/testbed.hpp"
#include "util/arena.hpp"

namespace cgs::core {
namespace {

/// A completion waiting for its turn: a fresh trace, a preloaded run whose
/// trace is not loaded yet, or neither (a failed run).
struct Parked {
  std::optional<RunTrace> trace;
  const PreloadedRun* preloaded = nullptr;
};

/// Per-cell delivery state: completions park here until every lower seed
/// has drained, keeping consume() calls in seed order.  A failed run parks
/// empty so the order still advances past it.  Jobs are claimed in
/// increasing order, so a run parks only when a lower seed of its cell is
/// still executing on another worker.
struct CellState {
  std::mutex mu;
  int next_run = 0;
  std::map<int, Parked> pending;
};

}  // namespace

SweepSpec& SweepSpec::axis(std::string name, std::vector<AxisValue> values) {
  axes.push_back({std::move(name), std::move(values)});
  return *this;
}

std::vector<SweepCell> SweepSpec::cells() const {
  std::vector<SweepCell> out;
  out.push_back({"", base});
  for (const SweepAxis& ax : axes) {
    std::vector<SweepCell> next;
    next.reserve(out.size() * ax.values.size());
    for (const SweepCell& cell : out) {
      for (const AxisValue& v : ax.values) {
        SweepCell c = cell;
        if (!c.label.empty()) c.label += ' ';
        c.label += ax.name;
        c.label += '=';
        c.label += v.label;
        if (v.apply) v.apply(c.scenario);
        next.push_back(std::move(c));
      }
    }
    out = std::move(next);
  }
  return out;
}

SweepReport sweep_jobs(
    const std::vector<SweepCell>& cells, const SweepOptions& opts,
    const std::function<void(std::size_t, int, RunTrace&&)>& consume,
    const std::vector<PreloadedRun>& preloaded) {
  if (opts.runs <= 0) {
    throw std::invalid_argument("SweepOptions: runs must be > 0 (got " +
                                std::to_string(opts.runs) + ")");
  }
  SweepReport report;
  if (cells.empty()) {
    if (opts.on_snapshot) {
      ProgressSnapshot s;
      s.final = true;
      try {
        opts.on_snapshot(s);
      } catch (...) {
        ++report.progress_errors;
      }
    }
    return report;
  }
  // Fail nonsensical configs on the calling thread, before spawning workers.
  for (const SweepCell& c : cells) c.scenario.validate();

  const int runs = opts.runs;
  const int total = int(cells.size()) * runs;
  report.total = total;
  report.cell_failures.assign(cells.size(), 0);

  // Validate the preloaded slots up front, same as the scenarios.
  std::vector<char> is_preloaded(std::size_t(total), 0);
  for (const PreloadedRun& p : preloaded) {
    if (p.cell >= cells.size() || p.run < 0 || p.run >= runs) {
      throw std::invalid_argument(
          "sweep_jobs: preloaded job (cell " + std::to_string(p.cell) +
          ", run " + std::to_string(p.run) + ") is outside the grid");
    }
    char& mark = is_preloaded[p.cell * std::size_t(runs) + std::size_t(p.run)];
    if (mark != 0) {
      throw std::invalid_argument(
          "sweep_jobs: duplicate preloaded job (cell " +
          std::to_string(p.cell) + ", run " + std::to_string(p.run) + ")");
    }
    mark = 1;
  }

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  const int remaining_jobs = total - int(preloaded.size());
  const int threads = std::max(
      1, std::min(opts.threads > 0 ? opts.threads : int(hw),
                  std::max(remaining_jobs, 1)));

  std::vector<CellState> states(cells.size());
  std::mutex failures_mu;  // guards report.failures/cell_failures/counters

  std::atomic<int> done{0};
  std::mutex progress_mu;
  int reported = 0;  // guarded by progress_mu: keeps calls strictly 1..total

  // Snapshot machinery: cells_finished counts cells whose last seed has
  // been delivered, and the failure-side counters are read under
  // failures_mu so a snapshot is one consistent cut of the sweep, not a
  // smeared mix of counters.
  std::atomic<std::size_t> cells_finished{0};
  using SnapClock = std::chrono::steady_clock;
  SnapClock::time_point last_snapshot{};  // guarded by progress_mu

  auto make_snapshot = [&](bool final_snapshot) {
    ProgressSnapshot s;
    s.total = total;
    s.cells = cells.size();
    s.finished = done.load(std::memory_order_acquire);
    s.cells_finished = cells_finished.load(std::memory_order_acquire);
    {
      std::lock_guard lk(failures_mu);
      s.succeeded = report.succeeded;
      s.failed = int(report.failed());
      s.skipped = report.skipped;
      s.retries = report.retries;
      s.quarantined = report.quarantined;
    }
    s.final = final_snapshot;
    return s;
  };

  auto report_one = [&] {
    done.fetch_add(1, std::memory_order_release);
    if (!opts.progress && !opts.on_snapshot) return;
    std::lock_guard lk(progress_mu);
    ++reported;
    if (opts.progress) {
      try {
        opts.progress(reported, total);
      } catch (...) {
        // A throwing progress callback must not kill a worker thread; the
        // swallow is counted so the caller still learns reporting is broken.
        ++report.progress_errors;
      }
    }
    if (opts.on_snapshot) {
      const auto now = SnapClock::now();
      if (opts.snapshot_interval_ms == 0 ||
          last_snapshot == SnapClock::time_point{} ||
          now - last_snapshot >=
              std::chrono::milliseconds(opts.snapshot_interval_ms)) {
        last_snapshot = now;
        try {
          opts.on_snapshot(make_snapshot(false));
        } catch (...) {
          ++report.progress_errors;
        }
      }
    }
  };

  // Record one final failure, respecting the per-cell message cap.  The
  // observer runs under the same lock, which serializes its calls across
  // workers as SweepOptions::on_failure promises.
  auto record_failure = [&](SweepFailure&& f) {
    std::lock_guard lk(failures_mu);
    std::size_t& count = report.cell_failures[f.cell];
    ++count;
    if (count <= opts.max_failures_per_cell) {
      report.failures.push_back(f);
    } else {
      ++report.failures_suppressed;
    }
    if (opts.on_failure) {
      try {
        opts.on_failure(f);
      } catch (...) {
        // Failure observers (e.g. the journal hook) must not take down a
        // worker; the failure itself is already recorded above.
      }
    }
  };

  // A preloaded run's trace is loaded only when its turn comes; a load
  // that throws (the record changed on disk) is that job's failure.
  auto load_preloaded = [&](const PreloadedRun& p) -> std::optional<RunTrace> {
    try {
      return p.load();
    } catch (const std::exception& e) {
      SweepFailure f;
      f.cell = p.cell;
      f.cell_label = cells[p.cell].label;
      f.seed = cells[p.cell].scenario.seed + std::uint64_t(p.run);
      f.what = e.what();
      f.cls = classify(e);
      record_failure(std::move(f));
      return std::nullopt;
    }
  };

  auto deliver = [&](int job, Parked&& parked) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    CellState& st = states[cell];
    {
      std::lock_guard lk(st.mu);
      st.pending.emplace(job % runs, std::move(parked));
      for (auto it = st.pending.find(st.next_run); it != st.pending.end();
           it = st.pending.find(st.next_run)) {
        Parked& p = it->second;
        if (p.preloaded != nullptr && p.preloaded->load) {
          p.trace = load_preloaded(*p.preloaded);
        }
        if (p.trace.has_value()) {
          consume(cell, st.next_run, std::move(*p.trace));
        }
        st.pending.erase(it);  // the trace dies here — nothing accumulates
        if (++st.next_run == runs) {
          cells_finished.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    }
    report_one();
  };

  // Feed the preloaded results through the same seed-order delivery path,
  // on the calling thread, before any worker spawns: the fold order a
  // resumed sweep sees is exactly the order an uninterrupted sweep saw.
  for (const PreloadedRun& p : preloaded) {
    if (p.failure) {
      SweepFailure f = *p.failure;
      f.cell = p.cell;
      f.cell_label = cells[p.cell].label;
      record_failure(std::move(f));
    }
    deliver(int(p.cell) * runs + p.run, Parked{std::nullopt, &p});
    ++report.skipped;
  }

  auto stopped = [&] {
    return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
  };

  // Backoff between quarantine strikes: deterministic jitter keyed by the
  // job, sliced so a stop request is honored mid-sleep.
  auto backoff_sleep = [&](int attempt, std::size_t cell, std::uint64_t seed) {
    const std::uint64_t key = (std::uint64_t(cell) << 32) ^ seed;
    std::uint32_t left_ms =
        proc::backoff_ms(opts.backoff_base_ms, opts.backoff_max_ms, attempt,
                         key);
    while (left_ms > 0 && !stopped()) {
      const std::uint32_t slice = std::min<std::uint32_t>(left_ms, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left_ms -= slice;
    }
  };

  auto execute = [&](int job, util::Arena& arena) {
    const auto cell = std::size_t(job) / std::size_t(runs);
    const int run = job % runs;
    const std::uint64_t seed = cells[cell].scenario.seed + std::uint64_t(run);
    const bool forked = opts.isolation == Isolation::kForked;
    std::optional<RunTrace> trace;
    for (int attempt = 1;; ++attempt) {
      SweepFailure f;
      f.cell = cell;
      f.cell_label = cells[cell].label;
      f.seed = seed;
      f.attempts = attempt;
      if (forked) {
        // Run the job in its own process: the child executes the same
        // Testbed code path against a fresh arena and ships the bit-exact
        // serialized trace back over the pipe.  The supervisor classifies
        // every way the child can die (core/proc.hpp).
        Scenario sc = cells[cell].scenario;
        sc.seed = seed;
        const proc::ChildResult cr = proc::run_forked(
            [&sc]() {
              util::Arena child_arena;
              Testbed bed(sc, &child_arena);
              return serialize_trace(bed.run());
            },
            opts.limits);
        if (cr.ok) {
          try {
            trace = deserialize_trace(cr.payload.data(), cr.payload.size());
            break;
          } catch (const std::exception& e) {
            f.what = std::string("result frame did not deserialize: ") +
                     e.what();
            f.cls = ErrorClass::kUnclassified;
          }
        } else {
          f.what = cr.message;
          f.cls = cr.cls;
          // Child-side context (sim-time, flow) is unavailable for process
          // deaths; classified simulation failures embed it in what().
        }
      } else {
        try {
          Scenario sc = cells[cell].scenario;
          sc.seed = seed;
          // Recycle the worker's arena blocks; the previous job's Testbed
          // is already destroyed, so its slabs are dead storage by now.
          arena.reset();
          Testbed bed(sc, &arena);
          trace = bed.run();
          break;
        } catch (const std::exception& e) {
          f.what = e.what();
          f.cls = classify(e);
          const ErrorContext ctx = context_of(e);
          f.sim_time = ctx.sim_time;
          f.flow = ctx.flow;
        } catch (...) {
          f.what = "unknown exception";
          f.cls = ErrorClass::kUnclassified;
        }
      }
      // Deterministic failures reproduce identically — only possibly-
      // environmental (unclassified) ones earn another attempt.
      if (is_transient(f.cls) && attempt <= opts.max_retries && !stopped()) {
        std::lock_guard lk(failures_mu);
        ++report.retries;
        continue;
      }
      // Process deaths (forked mode) get their strikes: they too can be
      // environmental (co-tenant OOM, loaded host missing a deadline), but
      // a job that keeps killing its child is poison — quarantine it.
      if (forked && is_process_failure(f.cls)) {
        if (attempt < opts.quarantine_strikes && !stopped()) {
          {
            std::lock_guard lk(failures_mu);
            ++report.retries;
          }
          backoff_sleep(attempt, cell, seed);
          continue;
        }
        if (attempt >= opts.quarantine_strikes) {
          f.quarantined = true;
          std::lock_guard lk(failures_mu);
          ++report.quarantined;
        }
      }
      record_failure(std::move(f));
      break;
    }
    if (trace.has_value()) {
      std::lock_guard lk(failures_mu);
      ++report.succeeded;
    }
    deliver(job, Parked{std::move(trace), nullptr});
  };

  // One shared cursor over the flat cell-major list of jobs still to run:
  // every job lasts milliseconds to seconds and never spawns another, so
  // handing out indices in order is all the scheduling the grid needs, and
  // claiming seeds in increasing order keeps each cell's reorder buffer
  // short.  The calling thread works as worker 0.
  std::vector<int> jobs;
  jobs.reserve(std::size_t(remaining_jobs));
  for (int job = 0; job < total; ++job) {
    if (!is_preloaded[std::size_t(job)]) jobs.push_back(job);
  }
  std::atomic<std::size_t> cursor{0};

  auto worker = [&] {
    // One arena per worker, reused across every job it executes: steady-
    // state job turnover stops touching the allocator for slab storage.
    util::Arena arena;
    // Graceful drain: claim nothing new once the stop flag flips; jobs
    // already executing elsewhere complete and get journaled.
    while (!stopped()) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= jobs.size()) return;
      execute(jobs[i], arena);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(std::size_t(threads - 1));
  for (int w = 1; w < threads && !stopped(); ++w) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  report.finished = done.load(std::memory_order_acquire);
  report.interrupted = report.finished < total;

  // The one guaranteed snapshot: emitted after the pool drains — complete
  // or interrupted — regardless of the throttle, so a subscriber always
  // sees the end state.
  if (opts.on_snapshot) {
    try {
      opts.on_snapshot(make_snapshot(true));
    } catch (...) {
      ++report.progress_errors;
    }
  }

  std::sort(report.failures.begin(), report.failures.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.seed < b.seed;
            });
  return report;
}

namespace {

/// Pass 1 of a resume: walk the journal once through one reused record
/// buffer (next() checks each CRC) and index the first record of each
/// (cell, run) slot — duplicates can only come from a hand-edited file.  A
/// successful run keeps only its record's offset; pass 2, the seed-order
/// delivery, re-reads the record (CRC checked again), decodes, folds and
/// drops it, so resume memory does not grow with the journal.
std::vector<PreloadedRun> index_journal(JournalReader& reader,
                                        const std::vector<SweepCell>& cells,
                                        int runs) {
  std::vector<PreloadedRun> out;
  std::vector<char> seen(cells.size() * std::size_t(runs), 0);
  JournalEntry e;
  while (reader.next(e)) {
    if (e.cell >= cells.size() || int(e.run) >= runs) continue;
    char& mark = seen[e.cell * std::size_t(runs) + e.run];
    if (mark != 0) continue;
    mark = 1;

    PreloadedRun p;
    p.cell = e.cell;
    p.run = int(e.run);
    if (e.ok) {
      p.load = [&reader, at = reader.record_offset()] {
        JournalEntry r;
        reader.read_at(at, r);
        return deserialize_trace(r.payload.data(), r.payload.size());
      };
    } else {
      SweepFailure f;
      f.seed = e.seed;
      f.what.assign(reinterpret_cast<const char*>(e.payload.data()),
                    e.payload.size());
      f.cls = e.cls;
      p.failure = std::move(f);
    }
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const PreloadedRun& a, const PreloadedRun& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.run < b.run;
            });
  return out;
}

}  // namespace

SweepResult run_sweep(std::vector<SweepCell> cells, const SweepOptions& opts) {
  std::vector<ConditionAccumulator> accs;
  accs.reserve(cells.size());
  for (const SweepCell& c : cells) accs.emplace_back(c.scenario);

  // --- crash-safe journaling ----------------------------------------------
  std::optional<JournalWriter> writer;
  std::mutex journal_mu;
  // Stays open for the whole sweep: preloaded runs read their record back
  // from it when delivery reaches them.
  std::optional<JournalReader> reader;
  std::vector<PreloadedRun> preloaded;
  std::vector<char> is_preloaded;
  if (!opts.journal_path.empty()) {
    const std::uint64_t fp = sweep_fingerprint(cells, opts.runs);
    reader = JournalReader::open(opts.journal_path);
    if (reader) {
      if (reader->meta().fingerprint != fp) {
        throw JournalMismatchError(
            "journal '" + opts.journal_path +
            "' was written for a different grid (fingerprint mismatch); "
            "refusing to resume — delete it or pass the original grid");
      }
      preloaded = index_journal(*reader, cells, opts.runs);
      writer = JournalWriter::append_to(opts.journal_path,
                                        reader->valid_bytes(),
                                        opts.journal_sync);
    } else {
      JournalMeta meta;
      meta.fingerprint = fp;
      meta.runs = std::uint32_t(opts.runs);
      meta.cells = std::uint32_t(cells.size());
      meta.note = opts.journal_note;
      writer = JournalWriter::create(opts.journal_path, meta,
                                     opts.journal_sync);
    }
    is_preloaded.assign(cells.size() * std::size_t(opts.runs), 0);
    for (const PreloadedRun& p : preloaded) {
      is_preloaded[p.cell * std::size_t(opts.runs) + std::size_t(p.run)] = 1;
    }
  }

  SweepOptions jopts = opts;
  if (writer) {
    // Journal every fresh failure the moment it is final.
    jopts.on_failure = [&](const SweepFailure& f) {
      if (is_preloaded[f.cell * std::size_t(opts.runs) +
                       std::size_t(f.seed - cells[f.cell].scenario.seed)]) {
        return;  // re-reported preloaded failure, already on disk
      }
      JournalEntry e;
      e.cell = std::uint32_t(f.cell);
      e.run = std::uint32_t(f.seed - cells[f.cell].scenario.seed);
      e.seed = f.seed;
      e.ok = false;
      e.cls = f.cls;
      e.payload.assign(f.what.begin(), f.what.end());
      std::lock_guard lk(journal_mu);
      writer->append(e);
      if (opts.on_failure) opts.on_failure(f);
    };
  }

  const auto consume = [&](std::size_t cell, int run, RunTrace&& t) {
    if (writer &&
        !is_preloaded[cell * std::size_t(opts.runs) + std::size_t(run)]) {
      JournalEntry e;
      e.cell = std::uint32_t(cell);
      e.run = std::uint32_t(run);
      e.seed = cells[cell].scenario.seed + std::uint64_t(run);
      e.ok = true;
      e.trace_hash = trace_hash(t);
      e.payload = serialize_trace(t);
      std::lock_guard lk(journal_mu);
      writer->append(e);
    }
    accs[cell].add(t);
  };

  SweepResult res;
  res.report = sweep_jobs(cells, jopts, consume, preloaded);

  // Surface deferred write errors (ENOSPC/EIO under journal_sync=false)
  // now, while the caller can still react — not in a silent destructor.
  if (writer) writer->close();

  if (res.report.failed() != 0 && !res.report.interrupted &&
      opts.throw_on_failure) {
    std::ostringstream os;
    os << "run_sweep: " << res.report.failed() << " of "
       << cells.size() * std::size_t(opts.runs) << " jobs failed:";
    for (const SweepFailure& f : res.report.failures) {
      os << "\n  cell '" << f.cell_label << "' seed " << f.seed << ": "
         << f.what;
    }
    if (res.report.failures_suppressed > 0) {
      os << "\n  ... and " << res.report.failures_suppressed
         << " more (per-cell cap " << opts.max_failures_per_cell << ")";
    }
    throw std::runtime_error(os.str());
  }

  res.results.reserve(accs.size());
  for (ConditionAccumulator& a : accs) res.results.push_back(a.finalize());
  res.cells = std::move(cells);
  return res;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  return run_sweep(spec.cells(), opts);
}

}  // namespace cgs::core
