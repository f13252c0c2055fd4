// Extension E2 (paper §5 future work): "multiple flows and mixtures of
// flows" — the game stream against N competing bulk TCP flows, including a
// mixed Cubic+BBR pair.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace cgs::literals;
using cgs::tcp::CcAlgo;

struct Result {
  double game_mbps;
  double tcp_total_mbps;
  double game_fps;
  double rtt_ms;
};

Result run_one(cgs::stream::GameSystem sys, const std::vector<CcAlgo>& ccas,
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

  std::vector<std::unique_ptr<cgs::tcp::BulkTcpFlow>> flows;
  for (std::size_t i = 0; i < ccas.size(); ++i) {
    const auto id = cgs::net::FlowId(10 + i);
    auto f = std::make_unique<cgs::tcp::BulkTcpFlow>(sim, factory, id,
                                                     ccas[i]);
    router.register_client(id, &f->receiver());
    f->attach(&access,
              &router.make_upstream(pad + 1_ms, &f->sender()));
    f->schedule(sim, 60_sec, 240_sec);
    flows.push_back(std::move(f));
  }

  cgs::core::PingClient ping(sim, factory, 3);
  cgs::core::PingResponder pong(sim, factory, 3);
  cgs::net::DelayLine ping_access(sim, pad, &router.downstream_in());
  pong.set_output(&ping_access);
  router.register_client(3, &ping);
  ping.set_output(&router.make_upstream(pad + 1_ms, &pong));

  std::int64_t game_bytes = 0, tcp_bytes = 0;
  router.bottleneck().sniffer().on_deliver(
      [&](const cgs::net::Packet& p, cgs::Time t) {
        if (t < 90_sec || t >= 240_sec) return;  // settled window
        if (p.flow == 1) game_bytes += p.size_bytes;
        if (p.flow >= 10) tcp_bytes += p.size_bytes;
      });

  game_rx.start();
  game_tx.start();
  ping.start();
  sim.run_until(260_sec);

  Result r;
  r.game_mbps =
      cgs::rate_of(cgs::ByteSize(game_bytes), 150_sec).megabits_per_sec();
  r.tcp_total_mbps =
      cgs::rate_of(cgs::ByteSize(tcp_bytes), 150_sec).megabits_per_sec();
  r.game_fps = game_rx.display().fps_over(90_sec, 240_sec);
  cgs::OnlineStats rtt_ms;
  for (const auto& s : ping.samples()) {
    if (s.at >= 90_sec && s.at < 240_sec) {
      rtt_ms.add(cgs::to_seconds(s.rtt) * 1e3);
    }
  }
  r.rtt_ms = rtt_ms.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv, "ext_multiflow");

  std::printf(
      "Extension E2 — game stream vs multiple competing TCP flows "
      "(25 Mb/s, 2x BDP, flows active 60-240 s)\n\n");

  struct Mix {
    const char* name;
    std::vector<CcAlgo> ccas;
  };
  const Mix mixes[] = {
      {"1 cubic", {CcAlgo::kCubic}},
      {"2 cubic", {CcAlgo::kCubic, CcAlgo::kCubic}},
      {"4 cubic", {CcAlgo::kCubic, CcAlgo::kCubic, CcAlgo::kCubic,
                   CcAlgo::kCubic}},
      {"1 bbr", {CcAlgo::kBbr}},
      {"2 bbr", {CcAlgo::kBbr, CcAlgo::kBbr}},
      {"cubic+bbr", {CcAlgo::kCubic, CcAlgo::kBbr}},
  };

  cgs::core::TextTable table;
  table.set_header({"System", "competitors", "game Mb/s", "fair share",
                    "tcp total Mb/s", "game fps", "RTT ms"});
  for (auto sys : cgs::core::kAllSystems) {
    for (const auto& mix : mixes) {
      const auto r = run_one(sys, mix.ccas, args.seed);
      const double fair = 25.0 / double(mix.ccas.size() + 1);
      char g[16], fs[16], t[16], f[16], rt[16];
      std::snprintf(g, sizeof g, "%.1f", r.game_mbps);
      std::snprintf(fs, sizeof fs, "%.1f", fair);
      std::snprintf(t, sizeof t, "%.1f", r.tcp_total_mbps);
      std::snprintf(f, sizeof f, "%.1f", r.game_fps);
      std::snprintf(rt, sizeof rt, "%.1f", r.rtt_ms);
      table.add_row({std::string(bench::short_name(sys)), mix.name, g, fs, t,
                     f, rt});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
