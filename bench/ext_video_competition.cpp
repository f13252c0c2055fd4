// Extension E1 (paper §5 future work): the game stream competing with
// HTTP adaptive streaming video (a DASH/Netflix-style player) instead of a
// bulk download.  The player fetches 4 s chunks over TCP (Cubic or BBR),
// idles when its buffer is full, and adapts its quality ladder — a far
// burstier competitor than iperf.
#include <cstdio>

#include "apps/dash_video.hpp"
#include "bench_common.hpp"

namespace {

using namespace cgs::literals;

struct Result {
  double game_mbps;
  double game_fps;
  double video_quality_mbps;
  double video_stall_s;
  double rtt_ms;
};

Result run_one(cgs::stream::GameSystem sys, cgs::tcp::CcAlgo cc,
               std::uint64_t seed) {
  cgs::sim::Simulator sim;
  cgs::net::PacketFactory factory;
  const auto cap = 25_mbps;
  const cgs::Time rtt(16500_us);
  cgs::net::BottleneckRouter router(
      sim, cap, 1_ms,
      std::make_unique<cgs::net::DropTailQueue>(bdp(cap, rtt) * 2));
  const cgs::Time pad = (rtt - 2_ms) / 2;
  cgs::net::DelayLine access(sim, pad, &router.downstream_in());

  // Game stream.
  cgs::Pcg32 rng(seed);
  const auto& prof = cgs::stream::profile_for(sys);
  cgs::stream::StreamSender::Options so;
  so.flow = 1;
  so.burst_factor = prof.burst_factor;
  cgs::stream::StreamSender game_tx(sim, factory, so,
                                    cgs::stream::frame_config_for(sys),
                                    cgs::stream::make_controller(sys),
                                    rng.fork(1));
  cgs::stream::StreamReceiver game_rx(
      sim, factory,
      {.flow = 1, .fec_rate = prof.fec_rate,
       .playout_deadline = prof.playout_deadline});
  router.register_client(1, &game_rx);
  game_tx.set_output(&access);
  game_rx.set_output(&router.make_upstream(pad + 1_ms, &game_tx));

  // DASH video player.
  cgs::apps::DashVideoClient video(sim, factory, 2, cc);
  router.register_client(2, &video.flow().receiver());
  video.attach(&access,
               &router.make_upstream(pad + 1_ms, &video.flow().sender()));

  // Ping probe for RTT.
  cgs::core::PingClient ping(sim, factory, 3);
  cgs::core::PingResponder pong(sim, factory, 3);
  cgs::net::DelayLine ping_access(sim, pad, &router.downstream_in());
  pong.set_output(&ping_access);
  router.register_client(3, &ping);
  ping.set_output(&router.make_upstream(pad + 1_ms, &pong));

  // Schedule: game from 0; video during [60 s, 240 s); measure that window.
  game_rx.start();
  game_tx.start();
  ping.start();
  sim.schedule_at(60_sec, [&] { video.start(); });
  sim.schedule_at(240_sec, [&] { video.stop(); });

  std::int64_t game_bytes = 0;
  router.bottleneck().sniffer().on_deliver(
      [&](const cgs::net::Packet& p, cgs::Time t) {
        if (p.flow == 1 && t >= 60_sec && t < 240_sec) {
          game_bytes += p.size_bytes;
        }
      });

  sim.run_until(260_sec);

  Result r;
  r.game_mbps = cgs::rate_of(cgs::ByteSize(game_bytes), 180_sec)
                    .megabits_per_sec();
  r.game_fps = game_rx.display().fps_over(60_sec, 240_sec);
  r.video_quality_mbps = video.mean_quality().megabits_per_sec();
  r.video_stall_s = cgs::to_seconds(video.stall_time(240_sec));
  cgs::OnlineStats rtt_ms;
  for (const auto& s : ping.samples()) {
    if (s.at >= 60_sec && s.at < 240_sec) {
      rtt_ms.add(cgs::to_seconds(s.rtt) * 1e3);
    }
  }
  r.rtt_ms = rtt_ms.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ext_video");

  std::printf(
      "Extension E1 — game stream vs DASH adaptive video (25 Mb/s, 2x BDP, "
      "video active 60-240 s)\n\n");

  cgs::core::TextTable table;
  table.set_header({"System", "video CC", "game Mb/s", "game fps",
                    "video quality Mb/s", "video stalls s", "RTT ms"});
  for (auto sys : cgs::core::kAllSystems) {
    for (auto cc : {cgs::tcp::CcAlgo::kCubic, cgs::tcp::CcAlgo::kBbr}) {
      const auto r = run_one(sys, cc, args.seed);
      char g[16], f[16], q[16], s[16], rt[16];
      std::snprintf(g, sizeof g, "%.1f", r.game_mbps);
      std::snprintf(f, sizeof f, "%.1f", r.game_fps);
      std::snprintf(q, sizeof q, "%.1f", r.video_quality_mbps);
      std::snprintf(s, sizeof s, "%.1f", r.video_stall_s);
      std::snprintf(rt, sizeof rt, "%.1f", r.rtt_ms);
      table.add_row({std::string(bench::short_name(sys)),
                     std::string(cgs::tcp::to_string(cc)), g, f, q, s, rt});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: DASH's on/off chunk fetching leaves the game stream idle "
      "gaps to recover in, unlike the paper's continuous iperf flow.\n");
  return 0;
}
