// Hybrid-fidelity fleet layer: fluid background sessions sharing the
// packet topology (net/fluid.hpp).
//
// Covers the four contracts DESIGN.md "Hybrid fidelity & fleet modeling"
// pins down: (1) an empty fleet spec is a strict no-op — the three golden
// trace hashes stay bit-identical; (2) fleet runs are deterministic, and
// their population digests survive the journal round trip; (3) the
// capacity-sharing rule actually steals serialization capacity from the
// packet path; (4) fluid populations cross-validate against full-fidelity
// packet populations within the pinned tolerances below.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/journal.hpp"
#include "core/runner.hpp"
#include "core/testbed.hpp"
#include "net/fluid.hpp"
#include "stream/profiles.hpp"

namespace cgs::core {
namespace {

using namespace std::chrono;

// Pinned packet-vs-fluid cross-validation tolerances (relative error on
// windowed bottleneck throughput).  Documented in DESIGN.md; a change here
// must be justified there.
constexpr double kUncongestedTol = 0.05;
constexpr double kCongestedTol = 0.10;

Scenario golden_scenario(stream::GameSystem sys, std::optional<tcp::CcAlgo> cc,
                         std::uint64_t seed) {
  Scenario sc;
  sc.system = sys;
  sc.tcp_algo = cc;
  sc.duration = seconds(90);
  sc.tcp_start = seconds(30);
  sc.tcp_stop = seconds(60);
  sc.seed = seed;
  return sc;
}

net::FluidSourceSpec fluid_source(net::FluidClass cls, std::uint32_t sessions,
                                  double jitter = 0.0) {
  net::FluidSourceSpec src;
  src.cls = cls;
  src.sessions = sessions;
  src.rate_jitter = jitter;
  return src;
}

TEST(Fleet, EmptyFleetSpecKeepsGoldenTraceHashes) {
  // The hybrid layer's zero-cost contract: a default (empty) FleetSpec
  // constructs no FluidAggregate, links never see a fluid load, and the
  // pre-fleet golden hashes hold bit for bit.
  struct Cell {
    stream::GameSystem sys;
    std::optional<tcp::CcAlgo> cc;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Cell cells[] = {
      {stream::GameSystem::kStadia, tcp::CcAlgo::kCubic, 1,
       0x058c4966df7104a9ULL},
      {stream::GameSystem::kGeForce, tcp::CcAlgo::kBbr, 11,
       0x77398256f15628cfULL},
      {stream::GameSystem::kLuna, std::nullopt, 5, 0x7ba4077b404e8f04ULL},
  };
  for (const Cell& c : cells) {
    Scenario sc = golden_scenario(c.sys, c.cc, c.seed);
    ASSERT_TRUE(sc.fleet.empty());
    Testbed bed(sc);
    const RunTrace t = bed.run();
    EXPECT_EQ(trace_hash(t), c.hash);
    EXPECT_FALSE(t.fleet.active);
  }
}

TEST(Fleet, ValidationNamesExactFieldPaths) {
  const auto expect_invalid = [](Scenario sc, const std::string& needle) {
    try {
      sc.validate();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };

  Scenario base;
  base.fleet.sources.push_back(fluid_source(net::FluidClass::kBulkCubic, 4));

  {
    Scenario sc = base;
    sc.fleet.tick = kTimeZero;
    expect_invalid(sc, "fleet.tick must be > 0");
  }
  {
    Scenario sc = base;
    sc.fleet.stall_threshold = 1.5;
    expect_invalid(sc, "fleet.stall_threshold must be in (0, 1]");
  }
  {
    Scenario sc = base;
    sc.fleet.sources[0].sessions = 0;
    expect_invalid(sc, "fleet.sources[0].sessions");
  }
  {
    Scenario sc = base;
    sc.fleet.sources.push_back(fluid_source(net::FluidClass::kBulkBbr, 2));
    sc.fleet.sources[1].rate_mbps = -1.0;
    expect_invalid(sc, "fleet.sources[1].rate_mbps");
  }
  {
    Scenario sc = base;
    sc.fleet.sources[0].diurnal = {1.0, -0.5};
    expect_invalid(sc, "fleet.sources[0].diurnal[1]");
  }
  {
    Scenario sc = base;
    sc.fleet.sources[0].max_sessions = 2;  // < sessions = 4
    expect_invalid(sc, "fleet.sources[0].max_sessions");
  }
  {
    Scenario sc = base;
    sc.fleet.sources[0].link = "no-such-link";
    expect_invalid(sc, "fleet.sources[0].link");
  }
  {
    Scenario sc = base;
    sc.trace_stride = 0;
    expect_invalid(sc, "trace_stride must be >= 1");
  }
}

Scenario fleet_scenario(std::uint64_t seed) {
  // Game stream + cubic competitor on 25 Mb/s, plus a small mixed fluid
  // fleet with churn on the same bottleneck.
  Scenario sc;
  sc.duration = seconds(30);
  sc.tcp_start = seconds(5);
  sc.tcp_stop = seconds(20);
  sc.seed = seed;
  sc.fleet.sources.push_back(fluid_source(net::FluidClass::kGameStream, 3,
                                          /*jitter=*/0.1));
  net::FluidSourceSpec churn = fluid_source(net::FluidClass::kBulkCubic, 2,
                                            /*jitter=*/0.1);
  churn.arrival_per_min = 30.0;
  churn.mean_holding_s = 5.0;
  churn.max_sessions = 8;
  churn.diurnal = {0.5, 2.0, 1.0};
  sc.fleet.sources.push_back(churn);
  return sc;
}

TEST(Fleet, DeterministicAndJournalRoundTrips) {
  const Scenario sc = fleet_scenario(7);
  Testbed a(sc);
  Testbed b(sc);
  const RunTrace ta = a.run();
  const RunTrace tb = b.run();

  ASSERT_TRUE(ta.fleet.active);
  EXPECT_GT(ta.fleet.ticks, 0u);
  EXPECT_GT(ta.fleet.session_ticks, 0u);

  // Same seed, same spec: byte-identical payloads (the fleet digest tail
  // included).
  const auto bytes_a = serialize_trace(ta);
  const auto bytes_b = serialize_trace(tb);
  EXPECT_EQ(bytes_a, bytes_b);

  // Round trip preserves every fleet field.
  const RunTrace rt = deserialize_trace(bytes_a.data(), bytes_a.size());
  EXPECT_EQ(rt.fleet.active, ta.fleet.active);
  EXPECT_EQ(rt.fleet.ticks, ta.fleet.ticks);
  EXPECT_EQ(rt.fleet.session_ticks, ta.fleet.session_ticks);
  EXPECT_EQ(rt.fleet.stall_ticks, ta.fleet.stall_ticks);
  EXPECT_EQ(rt.fleet.arrivals, ta.fleet.arrivals);
  EXPECT_EQ(rt.fleet.departures, ta.fleet.departures);
  EXPECT_EQ(rt.fleet.peak_sessions, ta.fleet.peak_sessions);
  EXPECT_EQ(rt.fleet.final_sessions, ta.fleet.final_sessions);
  EXPECT_DOUBLE_EQ(rt.fleet.mean_mbps, ta.fleet.mean_mbps);
  EXPECT_DOUBLE_EQ(rt.fleet.p50_mbps, ta.fleet.p50_mbps);
  EXPECT_DOUBLE_EQ(rt.fleet.p95_mbps, ta.fleet.p95_mbps);
  EXPECT_DOUBLE_EQ(rt.fleet.p99_mbps, ta.fleet.p99_mbps);
  EXPECT_DOUBLE_EQ(rt.fleet.stall_rate, ta.fleet.stall_rate);
  EXPECT_DOUBLE_EQ(rt.fleet.jain, ta.fleet.jain);
  ASSERT_EQ(rt.fleet.links.size(), ta.fleet.links.size());
  for (std::size_t i = 0; i < rt.fleet.links.size(); ++i) {
    EXPECT_EQ(rt.fleet.links[i].link, ta.fleet.links[i].link);
    EXPECT_DOUBLE_EQ(rt.fleet.links[i].offered_mbps_mean,
                     ta.fleet.links[i].offered_mbps_mean);
    EXPECT_DOUBLE_EQ(rt.fleet.links[i].served_mbps_mean,
                     ta.fleet.links[i].served_mbps_mean);
  }
}

TEST(Fleet, ChurnArrivesDepartsAndRespectsCap) {
  const Scenario sc = fleet_scenario(3);
  Testbed bed(sc);
  const RunTrace t = bed.run();
  ASSERT_TRUE(t.fleet.active);
  // 5 initial sessions placed as arrivals, plus Poisson churn on source 1.
  EXPECT_GT(t.fleet.arrivals, 5u);
  EXPECT_GT(t.fleet.departures, 0u);
  // Population cap: 3 static + at most 8 churning.
  EXPECT_LE(t.fleet.peak_sessions, 3u + 8u);
  EXPECT_GE(t.fleet.peak_sessions, t.fleet.final_sessions);
  // Jain over lifetime means is a valid index.
  EXPECT_GT(t.fleet.jain, 0.0);
  EXPECT_LE(t.fleet.jain, 1.0 + 1e-9);
}

TEST(Fleet, StealsBottleneckCapacityFromPacketPath) {
  // 4 fluid bulk-cubic sessions (~87.5 Mb/s offered) against a 25 Mb/s
  // bottleneck must depress the packet game stream's steady throughput
  // relative to a fleet-free run of the same seed.
  Scenario solo;
  solo.tcp_algo = std::nullopt;
  solo.duration = seconds(30);
  solo.seed = 2;

  Scenario crowded = solo;
  crowded.fleet.sources.push_back(
      fluid_source(net::FluidClass::kBulkCubic, 4));

  Testbed solo_bed(solo);
  Testbed crowded_bed(crowded);
  const RunTrace ts = solo_bed.run();
  const RunTrace tc = crowded_bed.run();

  const double solo_mbps =
      ts.mean_bitrate_mbps(ts.game_mbps, seconds(10), seconds(30));
  const double crowded_mbps =
      tc.mean_bitrate_mbps(tc.game_mbps, seconds(10), seconds(30));
  EXPECT_LT(crowded_mbps, 0.7 * solo_mbps)
      << "solo " << solo_mbps << " vs crowded " << crowded_mbps;

  // The fleet's served share never exceeds the 98% fluid-share cap.
  ASSERT_TRUE(tc.fleet.active);
  ASSERT_EQ(tc.fleet.links.size(), 1u);
  EXPECT_EQ(tc.fleet.links[0].link, "bottleneck");
  EXPECT_LE(tc.fleet.links[0].served_mbps_mean, 0.98 * 25.0 + 1e-6);
  EXPECT_GT(tc.fleet.links[0].served_mbps_mean, 0.0);
  // Oversubscribed 3.5x: virtually every session-tick stalls.
  EXPECT_GT(tc.fleet.stall_rate, 0.9);
}

TEST(Fleet, PacketVsFluidCrossValidationUncongested) {
  // 10 game streams on a 400 Mb/s bottleneck: every stream runs at its
  // native rate, so total bottleneck throughput must agree between a
  // full-fidelity population (10 packet streams) and a hybrid one
  // (1 packet stream + 9 fluid sessions) within kUncongestedTol.
  Scenario packet;
  packet.capacity = Bandwidth::mbps(400.0);
  packet.tcp_algo = std::nullopt;
  packet.duration = seconds(30);
  packet.seed = 4;
  for (int i = 0; i < 10; ++i) {
    packet.flows.push_back(FlowSpec::game_stream());
  }

  Scenario hybrid = packet;
  hybrid.flows.clear();
  hybrid.flows.push_back(FlowSpec::game_stream());
  net::FluidSourceSpec fleet =
      fluid_source(net::FluidClass::kGameStream, 9);
  // Envelope pinned to the system's Table-1 steady state — the fluid
  // counterpart of the packet streams being replaced.
  fleet.rate_mbps =
      double(stream::profile_for(packet.system).max_bitrate.bits_per_sec()) /
      1e6;
  hybrid.fleet.sources.push_back(fleet);

  Testbed packet_bed(packet);
  Testbed hybrid_bed(hybrid);
  const RunTrace tp = packet_bed.run();
  const RunTrace th = hybrid_bed.run();

  // Windowed (post-rampup) bottleneck throughput: packet bytes on the wire
  // vs packet bytes + mean served fluid rate.
  const auto* lp = tp.link("bottleneck");
  const auto* lh = th.link("bottleneck");
  ASSERT_NE(lp, nullptr);
  ASSERT_NE(lh, nullptr);
  const double packet_total =
      tp.mean_bitrate_mbps(lp->util_mbps, seconds(10), seconds(30));
  ASSERT_TRUE(th.fleet.active);
  ASSERT_EQ(th.fleet.links.size(), 1u);
  const double hybrid_total =
      th.mean_bitrate_mbps(lh->util_mbps, seconds(10), seconds(30)) +
      th.fleet.links[0].served_mbps_mean;

  const double rel =
      std::fabs(hybrid_total - packet_total) / packet_total;
  EXPECT_LT(rel, kUncongestedTol)
      << "packet " << packet_total << " Mb/s vs hybrid " << hybrid_total
      << " Mb/s";
}

TEST(Fleet, PacketVsFluidCrossValidationCongested) {
  // 10 bulk-cubic flows saturating a 50 Mb/s bottleneck: aggregate
  // delivered throughput must agree between the packet population and the
  // fluid one within kCongestedTol (the fluid model serves ~0.98 C when
  // oversubscribed; packet cubic keeps the link near-full).
  Scenario packet;
  packet.capacity = Bandwidth::mbps(50.0);
  packet.duration = seconds(30);
  packet.seed = 6;
  for (int i = 0; i < 10; ++i) {
    packet.flows.push_back(
        FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt));
  }

  Scenario fluid = packet;
  fluid.flows.clear();
  fluid.flows.push_back(FlowSpec::ping());  // negligible packet demand
  fluid.fleet.sources.push_back(
      fluid_source(net::FluidClass::kBulkCubic, 10));

  Testbed packet_bed(packet);
  Testbed fluid_bed(fluid);
  const RunTrace tp = packet_bed.run();
  const RunTrace tf = fluid_bed.run();

  const auto* lp = tp.link("bottleneck");
  ASSERT_NE(lp, nullptr);
  const double packet_total =
      tp.mean_bitrate_mbps(lp->util_mbps, seconds(10), seconds(30));
  ASSERT_TRUE(tf.fleet.active);
  ASSERT_EQ(tf.fleet.links.size(), 1u);
  const double fluid_total = tf.fleet.links[0].served_mbps_mean;

  const double rel = std::fabs(fluid_total - packet_total) / packet_total;
  EXPECT_LT(rel, kCongestedTol)
      << "packet " << packet_total << " Mb/s vs fluid " << fluid_total
      << " Mb/s";
}

TEST(Fleet, AccessorErrorsNameFlowAndFleetComposition) {
  Scenario sc;
  sc.duration = seconds(5);
  sc.flows.push_back(
      FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, kTimeZero, std::nullopt));
  sc.fleet.sources.push_back(fluid_source(net::FluidClass::kGameStream, 4));
  Testbed bed(sc);

  try {
    (void)bed.game_sender();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no game-stream flow"), std::string::npos) << what;
    EXPECT_NE(what.find("mix[0 game + 1 tcp + 0 ping]"), std::string::npos)
        << what;
    EXPECT_NE(what.find("fleet[4 fluid sessions]"), std::string::npos)
        << what;
  }
  try {
    (void)bed.ping();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("no ping flow"), std::string::npos);
  }
}

TEST(Fleet, TracePolicyDefaultsKeepGoldenHash) {
  // trace_stride = 1 with a series cap above the mix size must be
  // indistinguishable from the unlimited default — same golden hash.
  Scenario sc = golden_scenario(stream::GameSystem::kStadia,
                                tcp::CcAlgo::kCubic, 1);
  sc.trace_stride = 1;
  sc.trace_max_flow_series = 16;  // mix has 3 flows
  Testbed bed(sc);
  EXPECT_EQ(trace_hash(bed.run()), 0x058c4966df7104a9ULL);
}

TEST(Fleet, TraceStrideCoarsensSamplingWithoutPerturbingTheRun) {
  Scenario fine;
  fine.duration = seconds(30);
  fine.tcp_start = seconds(5);
  fine.tcp_stop = seconds(20);
  fine.seed = 9;

  Scenario coarse = fine;
  coarse.trace_stride = 4;

  Testbed fine_bed(fine);
  Testbed coarse_bed(coarse);
  const RunTrace tf = fine_bed.run();
  const RunTrace tc = coarse_bed.run();

  EXPECT_EQ(tc.sample_interval.count(), 4 * tf.sample_interval.count());
  EXPECT_LT(tc.game_mbps.size(), tf.game_mbps.size());
  // The policy is observer-only: windowed means agree closely (same bytes,
  // coarser binning).
  const double fine_mean =
      tf.mean_bitrate_mbps(tf.game_mbps, seconds(10), seconds(20));
  const double coarse_mean =
      tc.mean_bitrate_mbps(tc.game_mbps, seconds(10), seconds(20));
  EXPECT_NEAR(coarse_mean, fine_mean, 0.05 * fine_mean);
}

TEST(Fleet, TraceTopKFoldsUntrackedTcpIntoAggregate) {
  // game + 3 cubic + ping, series capped at 2 (game + first tcp): the two
  // untracked tcp flows must fold into the aggregate tcp_mbps exactly —
  // the policy changes trace memory, never the simulation.
  Scenario full;
  full.duration = seconds(20);
  full.seed = 12;
  full.flows.push_back(FlowSpec::game_stream());
  for (int i = 0; i < 3; ++i) {
    full.flows.push_back(
        FlowSpec::bulk_tcp(tcp::CcAlgo::kCubic, seconds(2), std::nullopt));
  }
  full.flows.push_back(FlowSpec::ping());

  Scenario capped = full;
  capped.trace_max_flow_series = 2;

  Testbed full_bed(full);
  Testbed capped_bed(capped);
  const RunTrace tf = full_bed.run();
  const RunTrace tc = capped_bed.run();

  EXPECT_EQ(tf.flows.size(), 5u);
  ASSERT_EQ(tc.flows.size(), 2u);
  ASSERT_EQ(tc.tcp_mbps.size(), tf.tcp_mbps.size());
  for (std::size_t b = 0; b < tf.tcp_mbps.size(); ++b) {
    EXPECT_DOUBLE_EQ(tc.tcp_mbps[b], tf.tcp_mbps[b]) << "bucket " << b;
  }
  // The tracked game series is untouched by the cap.
  ASSERT_EQ(tc.game_mbps.size(), tf.game_mbps.size());
  for (std::size_t b = 0; b < tf.game_mbps.size(); ++b) {
    EXPECT_DOUBLE_EQ(tc.game_mbps[b], tf.game_mbps[b]) << "bucket " << b;
  }
}

TEST(Fleet, SweepAggregationCarriesFleetDigests) {
  // run_condition's streaming accumulator must surface the per-run fleet
  // digests as a FleetSummary.
  const Scenario sc = fleet_scenario(21);
  SweepOptions opts;
  opts.runs = 2;
  opts.threads = 1;
  const ConditionResult res = run_condition(sc, opts);
  ASSERT_TRUE(res.fleet.active);
  EXPECT_GT(res.fleet.mean_mbps_mean, 0.0);
  EXPECT_GT(res.fleet.p50_mean, 0.0);
  EXPECT_GE(res.fleet.p99_mean, res.fleet.p95_mean);
  EXPECT_GE(res.fleet.p95_mean, res.fleet.p50_mean);
  EXPECT_GT(res.fleet.jain_mean, 0.0);
  EXPECT_GT(res.fleet.peak_sessions_mean, 0.0);

  // Fleet-free cells keep the summary inactive.
  Scenario plain;
  plain.duration = seconds(5);
  plain.tcp_algo = std::nullopt;
  const ConditionResult none = run_condition(plain, opts);
  EXPECT_FALSE(none.fleet.active);
}

}  // namespace
}  // namespace cgs::core
