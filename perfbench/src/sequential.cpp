// paper_run and parkinglot: full 555-s runs, one after another on one
// thread, in process, with no journal.  Each run is built, executed,
// serialized, hashed and folded into a ConditionAccumulator; its trace hash
// and its simulated counts are compared with the pins for its seed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>

#include "bench.hpp"
#include "cgstream.hpp"
#include "pins.hpp"

namespace perfbench {

namespace {

using namespace std::chrono;
using cgs::core::ConditionAccumulator;
using cgs::core::RunTrace;
using cgs::core::Scenario;
using cgs::core::Testbed;

/// The paper's centre cell: Stadia vs Cubic, 25 Mb/s, 2xBDP, §3.4 schedule.
Scenario paper_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.seed = seed;
  return sc;
}

/// The 3-hop parking-lot melee on the full §3.4 schedule: game stream,
/// 2 BBR + 2 Cubic end to end, one Cubic cross flow per hop, ping.
Scenario parkinglot_scenario(std::uint64_t seed) {
  cgs::core::ParkingLotParams p;
  p.hops = 3;
  p.bbr_flows = 2;
  p.cubic_flows = 2;
  p.cross_per_hop = 1;
  p.tcp_start = seconds(185);
  p.tcp_stop = seconds(370);
  p.duration = seconds(555);
  p.seed = seed;
  return cgs::core::parking_lot_scenario(p);
}

/// One run's simulated counts, read from public counters after run().
RunPin read_counts(Testbed& bed) {
  RunPin c;
  c.seed = bed.scenario().seed;
  c.events = bed.simulator().processed_events();
  for (std::size_t i = 0; i < bed.topology().link_count(); ++i) {
    const cgs::net::Link& l = bed.topology().link_at(i);
    c.link_pkts += l.packets_delivered();
    c.drops += l.queue().drops_total();
  }
  for (const auto& f : bed.tcp_flows()) {
    c.retransmits += f.flow->sender().retransmits_total();
    c.rtos += f.flow->sender().rto_total();
    c.acks += f.flow->receiver().acks_sent();
  }
  for (const auto& g : bed.game_flows()) {
    c.recv += g.receiver->packets_received();
    c.lost += g.receiver->packets_lost();
    c.concealed += g.receiver->frames_concealed();
  }
  return c;
}

struct RunTimes {
  double construct = 0, run = 0, serialize = 0, hash = 0, add = 0, total = 0;
};

/// Build, run, serialize, hash and fold one run.  Allocations are counted
/// over construction + run when `count_alloc` is set.
RunPin one_run(const Scenario& sc, ConditionAccumulator& acc, Tracer& tr,
               bool count_alloc, RunTimes& t) {
  Scoped job(tr, "job", sc.seed);
  const auto t0 = Clock::now();
  const AllocCounts a0 = alloc_counts();
  if (count_alloc) set_alloc_counting(true);
  std::optional<Testbed> bed;
  {
    Scoped s(tr, "core.testbed.construct", sc.seed);
    bed.emplace(sc);
  }
  const auto t1 = Clock::now();
  RunTrace trace;
  {
    Scoped s(tr, "core.testbed.run", sc.seed);
    trace = bed->run();
  }
  set_alloc_counting(false);
  const auto t2 = Clock::now();
  const AllocCounts a1 = alloc_counts();
  RunPin c = read_counts(*bed);
  if (count_alloc) {
    c.alloc_count = a1.count - a0.count;
    c.alloc_bytes = a1.bytes - a0.bytes;
  }
  {
    Scoped s(tr, "core.journal.serialize", sc.seed);
    c.trace_bytes = cgs::core::serialize_trace(trace).size();
  }
  const auto t3 = Clock::now();
  {
    Scoped s(tr, "core.journal.hash", sc.seed);
    c.hash = cgs::core::trace_hash(trace);
  }
  const auto t4 = Clock::now();
  {
    Scoped s(tr, "core.aggregate.add", sc.seed);
    acc.add(trace);
  }
  const auto t5 = Clock::now();
  bed.reset();
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return duration<double>(b - a).count();
  };
  t.construct = secs(t0, t1);
  t.run = secs(t1, t2);
  t.serialize = secs(t2, t3);
  t.hash = secs(t3, t4);
  t.add = secs(t4, t5);
  t.total = seconds_since(t0);
  return c;
}

/// Exact comparison with the pin; `with_alloc` adds the allocation counts.
std::string pin_mismatch(const RunPin& got, const RunPin& pin,
                         bool with_alloc) {
  std::string bad;
  const auto cmp = [&](const char* what, std::uint64_t g, std::uint64_t p) {
    if (g != p) {
      bad += std::string(" ") + what + "=" + std::to_string(g) +
             " (pinned " + std::to_string(p) + ")";
    }
  };
  cmp("trace_hash", got.hash, pin.hash);
  cmp("events", got.events, pin.events);
  cmp("link_pkts", got.link_pkts, pin.link_pkts);
  cmp("drops", got.drops, pin.drops);
  cmp("retransmits", got.retransmits, pin.retransmits);
  cmp("rtos", got.rtos, pin.rtos);
  cmp("acks", got.acks, pin.acks);
  cmp("recv", got.recv, pin.recv);
  cmp("lost", got.lost, pin.lost);
  cmp("concealed", got.concealed, pin.concealed);
  cmp("trace_bytes", got.trace_bytes, pin.trace_bytes);
  if (with_alloc) {
    cmp("alloc_count", got.alloc_count, pin.alloc_count);
    cmp("alloc_bytes", got.alloc_bytes, pin.alloc_bytes);
  }
  return bad;
}

struct SeqWorkload {
  const char* name;
  Scenario (*make)(std::uint64_t seed);
  std::span<const RunPin> pins;  // pinned seeds 1..pinned_seeds, in order
  std::uint64_t pinned_seeds;
};

/// Consecutive seeds run per round.  One, so that every run has a probe
/// gap just before and just after it (see host_scale).
constexpr std::size_t kRunsPerRound = 1;

/// Set-up constructions timed together as one sample: a single one takes
/// microseconds, too short to time steadily on its own.
constexpr int kSetupBatch = 100;
/// Samples before the first round and before each later one, so their
/// median spans the whole window.
constexpr int kSetupFirst = 5;
constexpr int kSetupPerRound = 3;

/// Mean set-up time over one batch: scenario, accumulator and Testbed
/// construction — everything before the first run() call.
double setup_sample(const SeqWorkload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  for (int i = 0; i < kSetupBatch; ++i) {
    const Scenario sc = w.make(seed);
    ConditionAccumulator acc(sc);
    std::optional<Testbed> bed(std::in_place, sc);
  }
  return seconds_since(t0) / kSetupBatch;
}

Outcome run_sequential(const SeqWorkload& w, const Args& a, Tracer& tr) {
  Outcome out;
  check_golden(out);
  out.check(w.pins.size() == w.pinned_seeds,
            std::string(w.name) + ": pin table does not cover its seeds");
  if (!out.correct) return out;

  // Every round runs the same seeds, picked by --seed, so rounds are
  // identical work and their median is taken over the same inputs.
  const std::size_t n = w.pins.size();
  std::vector<const RunPin*> seeds;
  for (std::size_t j = 0; j < kRunsPerRound; ++j) {
    seeds.push_back(&w.pins[(a.seed + j) % n]);
  }

  E2eSamples e;
  const auto setup_samples = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      e.setup_s.push_back(setup_sample(w, seeds[0]->seed));
    }
  };
  setup_samples(kSetupFirst);
  double gap_before = probe_host(e.probe_s);

  const RoundPlan plan{a.seconds, 2, a.trace};
  const double sim_per_run =
      duration<double>(w.make(seeds[0]->seed).duration).count();

  E2eSamples et;  // traced rounds
  std::vector<double> construct_s, run_s, ser_s, hash_s, add_s;
  double traced_run_total = 0, traced_events = 0, traced_pkts = 0;
  std::vector<RunPin> exact;  // the first traced round's runs

  ConditionAccumulator acc(w.make(seeds[0]->seed));
  const auto t_start = Clock::now();
  for (int round = 0; plan.more(round, t_start); ++round) {
    if (round > 0) setup_samples(kSetupPerRound);
    const bool traced = plan.traced(round);
    tr.set_active(traced);
    Scoped rs(tr, "round", std::uint64_t(round));
    Round rd;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    for (const RunPin* pin : seeds) {
      RunTimes t;
      const RunPin got = one_run(w.make(pin->seed), acc, tr, traced, t);
      rd.run_s.push_back(t.total);
      ++out.attempted;
      const std::string bad = pin_mismatch(got, *pin, traced);
      out.check(bad.empty(), std::string(w.name) + " seed " +
                                 std::to_string(pin->seed) + ":" + bad);
      if (traced) {
        construct_s.push_back(t.construct);
        run_s.push_back(t.run);
        ser_s.push_back(t.serialize);
        hash_s.push_back(t.hash);
        add_s.push_back(t.add);
        traced_run_total += t.run;
        traced_events += double(got.events);
        traced_pkts += double(got.link_pkts);
        if (exact.size() < seeds.size()) exact.push_back(got);
      }
    }
    rd.wall_s = seconds_since(t0);
    rd.cpu_s = cpu_seconds() - cpu0;
    const double gap_after = probe_host(e.probe_s);
    rd.scale = host_scale(gap_before, gap_after);
    gap_before = gap_after;
    rd.job_latency_s = rd.run_s;
    rd.jobs = double(seeds.size());
    rd.sim_s = sim_per_run * double(seeds.size());
    (traced ? et : e).rounds.push_back(std::move(rd));
  }
  tr.set_active(false);
  (void)acc.finalize();
  et.setup_s = e.setup_s;
  et.probe_s = e.probe_s;

  out.extra.push_back({"error_rate", double(out.failed) / double(out.attempted),
                       "failed/attempted"});

  std::map<std::string, double> l;
  if (!exact.empty()) {
    const double k = double(exact.size());
    const auto avg = [&](std::uint64_t RunPin::*f) {
      double s = 0;
      for (const RunPin& c : exact) s += double(c.*f);
      return s / k;
    };
    l["sim.events_per_run"] = avg(&RunPin::events);
    l["sim.events_per_sim_s"] = avg(&RunPin::events) / sim_per_run;
    l["net.link_pkts_per_run"] = avg(&RunPin::link_pkts);
    l["net.pkts_per_sim_s"] = avg(&RunPin::link_pkts) / sim_per_run;
    l["net.drops_per_run"] = avg(&RunPin::drops);
    l["tcp.retransmits_per_run"] = avg(&RunPin::retransmits);
    l["tcp.rto_per_run"] = avg(&RunPin::rtos);
    l["tcp.acks_per_run"] = avg(&RunPin::acks);
    l["stream.pkts_received_per_run"] = avg(&RunPin::recv);
    l["stream.pkts_lost_per_run"] = avg(&RunPin::lost);
    l["stream.frames_concealed_per_run"] = avg(&RunPin::concealed);
    l["alloc.count_per_run"] = avg(&RunPin::alloc_count);
    l["alloc.bytes_per_run"] = avg(&RunPin::alloc_bytes);
    l["core.journal.trace_bytes"] = avg(&RunPin::trace_bytes);
    l["sim.ns_per_event"] = traced_run_total / traced_events * 1e9;
    l["net.ns_per_link_pkt"] = traced_run_total / traced_pkts * 1e9;
    l["core.testbed.construct_s"] = median(construct_s);
    l["core.testbed.run_s"] = median(run_s);
    l["core.journal.serialize_s"] = median(ser_s);
    l["core.journal.hash_s"] = median(hash_s);
    l["core.aggregate.add_s"] = median(add_s);
  }
  finish_e2e(out, e, et, l, tr);
  return out;
}

const SeqWorkload kPaper{"paper_run", paper_scenario, kPaperPins,
                         kPaperSeeds};
const SeqWorkload kParking{"parkinglot", parkinglot_scenario, kParkingPins,
                           kParkingSeeds};

void print_run_pins(const SeqWorkload& w, const char* table) {
  std::printf("inline constexpr RunPin %s[] = {\n", table);
  Tracer off(false);
  for (std::uint64_t seed = 1; seed <= w.pinned_seeds; ++seed) {
    ConditionAccumulator acc(w.make(seed));
    RunTimes t;
    const RunPin c = one_run(w.make(seed), acc, off, true, t);
    std::printf(
        "    {%llu, 0x%016llxULL, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
        "%llu, %llu, %llu, %llu, %llu},\n",
        (unsigned long long)c.seed, (unsigned long long)c.hash,
        (unsigned long long)c.events, (unsigned long long)c.link_pkts,
        (unsigned long long)c.drops, (unsigned long long)c.retransmits,
        (unsigned long long)c.rtos, (unsigned long long)c.acks,
        (unsigned long long)c.recv, (unsigned long long)c.lost,
        (unsigned long long)c.concealed, (unsigned long long)c.trace_bytes,
        (unsigned long long)c.alloc_count, (unsigned long long)c.alloc_bytes);
    std::fflush(stdout);
  }
  std::printf("};\n\n");
}

}  // namespace

Outcome run_paper_run(const Args& a, Tracer& tr) {
  return run_sequential(kPaper, a, tr);
}

Outcome run_parkinglot(const Args& a, Tracer& tr) {
  return run_sequential(kParking, a, tr);
}

void check_golden(Outcome& out) {
  for (const GoldenCell& g : kGolden) {
    Scenario sc;
    sc.system = g.system;
    sc.tcp_algo = g.cc;
    sc.duration = seconds(90);
    sc.tcp_start = seconds(30);
    sc.tcp_stop = seconds(60);
    sc.seed = g.seed;
    const std::uint64_t h = cgs::core::trace_hash(Testbed(sc).run());
    out.check(h == g.hash, std::string("golden cell ") + g.name +
                               " hashes to " + std::to_string(h));
  }
}

void print_sequential_pins() {
  print_run_pins(kPaper, "kPaperPins");
  print_run_pins(kParking, "kParkingPins");
}

}  // namespace perfbench
