// google-benchmark microbenchmarks of the simulation core: event queue
// throughput, link forwarding, TCP and full-testbed event rates.  These
// guard the "a 9-minute condition simulates in seconds" property the
// table/figure harnesses depend on.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "cgstream.hpp"

namespace {

using namespace cgs::literals;

void BM_EventQueuePushPop(benchmark::State& state) {
  for (auto _ : state) {
    cgs::sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.push(cgs::Time(i * 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // RTO-style workload: every event is rescheduled several times and most
  // are cancelled before firing, so the lazy-deletion + compaction path and
  // O(1) generation-tagged cancel dominate.
  for (auto _ : state) {
    cgs::sim::EventQueue q;
    cgs::sim::EventId ids[64] = {};
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 64; ++i) {
        if (ids[i] != cgs::sim::kInvalidEventId) q.cancel(ids[i]);
        ids[i] = q.push(cgs::Time((round * 64 + i) * 1000), [] {});
      }
      for (int i = 0; i < 64; i += 2) {
        ids[i] = q.reschedule(ids[i], cgs::Time((round * 64 + i) * 2000));
      }
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 100 * (64 + 32));
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_PacketChurn(benchmark::State& state) {
  // Steady-state make/free cycling through the factory pool: after the
  // first lap every acquire is a recycled packet, no allocator traffic.
  cgs::net::PacketFactory f;
  for (auto _ : state) {
    cgs::net::PacketPtr window[32];
    for (int lap = 0; lap < 32; ++lap) {
      for (int i = 0; i < 32; ++i) {
        window[std::size_t(i)] =
            f.make(1, cgs::net::TrafficClass::kTcpData, 1500,
                   cgs::Time(lap * 32 + i), cgs::net::TcpHeader{});
      }
      for (auto& p : window) p.reset();
    }
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_PacketChurn);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  // One periodic timer: the pending set has depth ~1, the regime where a
  // plain binary/4-ary heap is already near-optimal.  This measures the
  // engine's fixed per-event overhead, not data-structure asymptotics —
  // see BM_SimulatorTimerChurnLoaded for the loaded regime.
  for (auto _ : state) {
    cgs::sim::Simulator sim;
    int fired = 0;
    cgs::sim::PeriodicTimer t(sim, 1_ms, [&] { ++fired; });
    t.start();
    sim.run_until(1_sec);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_SimulatorTimerChurnLoaded(benchmark::State& state) {
  // N concurrent periodic timers with staggered periods (~1 ms, co-prime
  // offsets so deadlines interleave instead of phase-locking): the pending
  // set stays ~N deep, so per-tick cost is dominated by insert/extract at
  // depth N.  This is where the timer wheel's O(1) bucket routing beats a
  // heap's O(log N) sifts — a testbed run sits between the two regimes
  // (tens of live events), a sweep worker fans out far wider.
  const int n = int(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    cgs::sim::Simulator sim;
    std::vector<std::unique_ptr<cgs::sim::PeriodicTimer>> timers;
    timers.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
      timers.push_back(std::make_unique<cgs::sim::PeriodicTimer>(
          sim, 1_ms + cgs::Time(i * 7919), [&] { ++fired; }));
      timers.back()->start();
    }
    sim.run_until(1_sec);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(std::int64_t(fired));
}
BENCHMARK(BM_SimulatorTimerChurnLoaded)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_LinkForwarding(benchmark::State& state) {
  struct NullSink final : cgs::net::PacketSink {
    void handle_packet(cgs::net::PacketPtr) override {}
  };
  for (auto _ : state) {
    cgs::sim::Simulator sim;
    cgs::net::PacketFactory f;
    NullSink sink;
    cgs::net::Link link(sim, "l", 1_gbps, 1_ms,
                        std::make_unique<cgs::net::DropTailQueue>(10_MB),
                        &sink);
    for (int i = 0; i < 1000; ++i) {
      link.handle_packet(
          f.make(1, cgs::net::TrafficClass::kTcpData, 1500, sim.now(), {}));
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkForwarding);

void BM_TcpSecond(benchmark::State& state) {
  // One simulated second of a saturating Cubic flow at 25 Mb/s.
  for (auto _ : state) {
    cgs::sim::Simulator sim;
    cgs::net::PacketFactory factory;
    cgs::net::BottleneckRouter router(
        sim, 25_mbps, 1_ms,
        std::make_unique<cgs::net::DropTailQueue>(
            bdp(25_mbps, cgs::Time(16500_us)) * 2));
    cgs::net::DelayLine access(sim, 7_ms, &router.downstream_in());
    cgs::tcp::BulkTcpFlow flow(sim, factory, 1, cgs::tcp::CcAlgo::kCubic);
    router.register_client(1, &flow.receiver());
    flow.attach(&access, &router.make_upstream(8_ms, &flow.sender()));
    flow.sender().start();
    sim.run_until(1_sec);
    benchmark::DoNotOptimize(flow.receiver().bytes_delivered());
  }
}
BENCHMARK(BM_TcpSecond)->Unit(benchmark::kMillisecond);

void BM_TestbedSecond(benchmark::State& state) {
  // One simulated second of the full paper testbed (game + TCP + ping).
  for (auto _ : state) {
    cgs::core::Scenario sc;
    sc.duration = 1_sec;
    sc.tcp_start = 100_ms;
    sc.tcp_stop = 900_ms;
    cgs::core::Testbed bed(sc);
    benchmark::DoNotOptimize(bed.run());
  }
}
BENCHMARK(BM_TestbedSecond)->Unit(benchmark::kMillisecond);

// -- sweep engine vs per-cell fork/join ------------------------------------
//
// A 6-cell x 5-seed grid of 1-second testbed runs at 4 threads.  The
// engine runs all 30 jobs on one shared worker pool; the baseline drives
// each cell through run_condition (which forks and joins a fresh pool per
// cell, idling 3 of 4 workers on every cell's 5th run).  Acceptance:
// engine >= 1.3x faster on multicore hardware.

constexpr int kSweepRuns = 5;
constexpr int kSweepThreads = 4;

std::vector<cgs::core::SweepCell> sweep_grid() {
  std::vector<cgs::core::SweepCell> cells;
  for (double cap : {15.0, 25.0, 35.0}) {
    for (double q : {0.5, 2.0}) {
      cgs::core::Scenario sc;
      sc.capacity = cgs::Bandwidth::mbps(cap);
      sc.queue_bdp_mult = q;
      sc.duration = 1_sec;
      sc.tcp_start = 100_ms;
      sc.tcp_stop = 900_ms;
      cells.push_back({sc.label(), sc});
    }
  }
  return cells;
}

void BM_Sweep(benchmark::State& state) {
  for (auto _ : state) {
    cgs::core::SweepOptions opts;
    opts.runs = kSweepRuns;
    opts.threads = kSweepThreads;
    auto res = cgs::core::run_sweep(sweep_grid(), opts);
    benchmark::DoNotOptimize(res.results.data());
  }
  state.SetItemsProcessed(state.iterations() * 6 * kSweepRuns);
}
BENCHMARK(BM_Sweep)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepPerCellLoop(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& cell : sweep_grid()) {
      cgs::core::SweepOptions opts;
      opts.runs = kSweepRuns;
      opts.threads = kSweepThreads;
      auto res = cgs::core::run_condition(cell.scenario, opts);
      benchmark::DoNotOptimize(res.runs);
    }
  }
  state.SetItemsProcessed(state.iterations() * 6 * kSweepRuns);
}
BENCHMARK(BM_SweepPerCellLoop)->Unit(benchmark::kMillisecond)->UseRealTime();

// -- hybrid-fidelity fleet --------------------------------------------------
//
// BM_FleetSecond: one simulated second of a game-stream testbed plus N
// fluid background sessions (no churn, so every iteration ticks the same
// population).  items processed = fleet session-seconds, so the reported
// items/s is directly comparable against packet-path flow-seconds
// (BM_TestbedSecond runs 3 packet flows per iteration).  Acceptance
// (ISSUE): the 1000-session point must come in >= 50x cheaper per
// session-second than the packet path's per-flow-second cost.

cgs::core::Scenario fleet_scenario(int sessions) {
  cgs::core::Scenario sc;
  sc.duration = 1_sec;
  sc.capacity = 1_gbps;  // headroom: measure fleet cost, not contention
  sc.tcp_algo = std::nullopt;
  const auto place = [&](cgs::net::FluidClass cls, std::uint32_t n) {
    cgs::net::FluidSourceSpec src;
    src.cls = cls;
    src.sessions = n;
    src.rate_jitter = 0.0;
    sc.fleet.sources.push_back(src);
  };
  place(cgs::net::FluidClass::kGameStream, std::uint32_t(sessions / 2));
  place(cgs::net::FluidClass::kBulkCubic, std::uint32_t(sessions / 4));
  place(cgs::net::FluidClass::kBulkBbr,
        std::uint32_t(sessions - sessions / 2 - sessions / 4));
  return sc;
}

void BM_FleetSecond(benchmark::State& state) {
  const int sessions = int(state.range(0));
  const cgs::core::Scenario sc = fleet_scenario(sessions);
  for (auto _ : state) {
    cgs::core::Testbed bed(sc);
    benchmark::DoNotOptimize(bed.run());
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["sessions"] = double(sessions);
}
BENCHMARK(BM_FleetSecond)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FluidTick(benchmark::State& state) {
  // The fleet layer's inner loop in isolation: one churn + demand +
  // capacity-sharing + digest pass over 1000 static sessions, no packet
  // traffic.  This is the O(sessions) arithmetic a 100 ms tick costs.
  cgs::sim::Simulator sim;
  cgs::net::PacketFactory factory;
  cgs::net::TopologyGraph graph(
      sim, factory, cgs::net::TopologySpec::single_bottleneck(1_gbps, 1_ms),
      {});
  cgs::net::FleetSpec spec;
  cgs::net::FluidSourceSpec src;
  src.cls = cgs::net::FluidClass::kGameStream;
  src.sessions = 1000;
  src.rate_jitter = 0.0;
  spec.sources.push_back(src);
  cgs::net::FluidAggregate fleet(sim, graph, spec, 1_sec, /*seed=*/1);
  for (auto _ : state) {
    fleet.tick();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FluidTick);

const cgs::core::RunTrace& bench_trace() {
  // One 1-second full-mix run, shared across iterations (the serializer
  // under test never mutates it).
  static const cgs::core::RunTrace trace = [] {
    cgs::core::Scenario sc;
    sc.duration = 1_sec;
    sc.tcp_start = 100_ms;
    sc.tcp_stop = 900_ms;
    cgs::core::Testbed bed(sc);
    return bed.run();
  }();
  return trace;
}

void BM_TraceSerialize(benchmark::State& state) {
  // The journal's per-job overhead floor: RunTrace -> bytes -> RunTrace.
  const cgs::core::RunTrace& t = bench_trace();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buf = cgs::core::serialize_trace(t);
    bytes = buf.size();
    auto rt = cgs::core::deserialize_trace(buf.data(), buf.size());
    benchmark::DoNotOptimize(rt.game_mbps.data());
  }
  state.SetBytesProcessed(state.iterations() * std::int64_t(bytes) * 2);
}
BENCHMARK(BM_TraceSerialize);

void BM_JournalAppend(benchmark::State& state) {
  // Record append with fsync off — isolates the format/CRC cost from disk
  // latency (the sync path is a durability guarantee, not a hot path).
  const std::string path = "bench_journal_scratch.jnl";
  cgs::core::JournalEntry e;
  e.cell = 1;
  e.run = 2;
  e.seed = 44;
  e.ok = true;
  e.payload = cgs::core::serialize_trace(bench_trace());
  e.trace_hash = cgs::core::trace_hash(bench_trace());
  cgs::core::JournalMeta meta;
  meta.note = "bench";
  auto w = cgs::core::JournalWriter::create(path, meta, /*sync=*/false);
  for (auto _ : state) {
    w.append(e);
  }
  state.SetBytesProcessed(state.iterations() *
                          std::int64_t(e.payload.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend);

}  // namespace

#ifndef CGS_BUILD_TYPE
#define CGS_BUILD_TYPE "unknown"
#endif

// Custom main instead of BENCHMARK_MAIN(): it embeds this binary's build
// type in the JSON context (tools/bench_simcore_json.py refuses to record
// a baseline from a debug build) while passing every standard
// google-benchmark flag straight through.  The ones this repo's workflows
// lean on (all composable):
//
//   --benchmark_filter=REGEX        run a subset (e.g. 'BM_TestbedSecond')
//   --benchmark_repetitions=N       N repetitions + min/median/mean/stddev
//   --benchmark_report_aggregates_only=true   hide per-repetition lines
//   --benchmark_out=F --benchmark_out_format=json   machine-readable dump
//   --benchmark_min_time=Ns         lengthen runs on noisy machines
//
// Unrecognized arguments are a hard error (exit 1), so a typo'd flag can
// never silently benchmark the wrong thing.
int main(int argc, char** argv) {
  // Record THIS binary's build type (the library_build_type google-benchmark
  // reports is libbenchmark's own, which poisoned an earlier baseline).
  benchmark::AddCustomContext("cgs_build_type", CGS_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
