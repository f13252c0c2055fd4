#include "core/collectors.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace cgs::core {

namespace {
std::size_t bucket_index(Time t, Time interval) {
  return std::size_t(t.count() / interval.count());
}
}  // namespace

std::size_t RunTrace::bucket_of(Time t) const {
  return bucket_index(t, sample_interval);
}

const FlowTrace* RunTrace::flow(net::FlowId id) const {
  for (const FlowTrace& f : flows) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

const LinkTrace* RunTrace::link(std::string_view name) const {
  for (const LinkTrace& l : links) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

double RunTrace::mean_flow_mbps(net::FlowId id, Time from, Time to) const {
  const FlowTrace* f = flow(id);
  return f != nullptr ? mean_bitrate_mbps(f->mbps, from, to) : 0.0;
}

double RunTrace::mean_bitrate_mbps(const std::vector<double>& series,
                                   Time from, Time to) const {
  OnlineStats s;
  const std::size_t lo = bucket_of(from);
  const std::size_t hi = std::min(bucket_of(to), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return s.mean();
}

double RunTrace::sd_bitrate_mbps(const std::vector<double>& series, Time from,
                                 Time to) const {
  OnlineStats s;
  const std::size_t lo = bucket_of(from);
  const std::size_t hi = std::min(bucket_of(to), series.size());
  for (std::size_t i = lo; i < hi; ++i) s.add(series[i]);
  return s.stddev();
}

double RunTrace::mean_rtt_ms(Time from, Time to) const {
  OnlineStats s;
  for (const auto& r : rtt) {
    if (r.at >= from && r.at < to) s.add(to_seconds(r.rtt) * 1e3);
  }
  return s.mean();
}

double RunTrace::sd_rtt_ms(Time from, Time to) const {
  OnlineStats s;
  for (const auto& r : rtt) {
    if (r.at >= from && r.at < to) s.add(to_seconds(r.rtt) * 1e3);
  }
  return s.stddev();
}

double RunTrace::game_loss_in(Time from, Time to) const {
  if (game_pkts_recv.empty()) return 0.0;
  const std::size_t lo =
      std::min(bucket_of(from), game_pkts_recv.size() - 1);
  const std::size_t hi = std::min(bucket_of(to), game_pkts_recv.size() - 1);
  if (hi <= lo) return 0.0;
  const double recv = double(game_pkts_recv[hi] - game_pkts_recv[lo]);
  const double lost = double(game_pkts_lost[hi] - game_pkts_lost[lo]);
  const double expected = recv + lost;
  return expected > 0.0 ? lost / expected : 0.0;
}

double RunTrace::fps_over(Time from, Time to) const {
  if (to <= from) return 0.0;
  const auto lo = std::lower_bound(frame_times.begin(), frame_times.end(), from);
  const auto hi = std::lower_bound(frame_times.begin(), frame_times.end(), to);
  return double(std::distance(lo, hi)) / to_seconds(to - from);
}

TraceCollectors::TraceCollectors(sim::Simulator& sim, Time duration,
                                 Time sample_interval,
                                 std::vector<FlowInfo> flows)
    : TraceCollectors(sim, duration, sample_interval, std::move(flows),
                      Policy{}) {}

TraceCollectors::TraceCollectors(sim::Simulator& sim, Time duration,
                                 Time sample_interval,
                                 std::vector<FlowInfo> flows, Policy policy)
    : sim_(sim),
      duration_(duration),
      interval_(sample_interval *
                std::int64_t(std::max<std::size_t>(policy.stride, 1))),
      n_buckets_(bucket_index(duration, interval_) + 1),
      flows_(std::move(flows)),
      tracked_(policy.max_flow_series == 0
                   ? flows_.size()
                   : std::min(policy.max_flow_series, flows_.size())),
      bytes_(tracked_, std::vector<std::int64_t>(n_buckets_, 0)),
      recv_samples_(tracked_, std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      lost_samples_(tracked_, std::vector<std::uint64_t>(n_buckets_ + 1, 0)),
      pkt_counters_(tracked_, 0),
      receivers_(tracked_, nullptr),
      drops_(n_buckets_ + 1, 0),
      residual_tcp_bytes_(n_buckets_, 0),
      sampler_(sim, interval_, [this] { sample_counters(); }) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flow_index_.emplace(flows_[i].id, i);
  }
}

std::size_t TraceCollectors::bucket_of(Time t) const {
  return std::min(bucket_index(t, interval_), n_buckets_ - 1);
}

void TraceCollectors::attach_link(net::Link& link,
                                  std::vector<net::FlowId> terminal_flows) {
  links_.push_back(std::make_unique<LinkTap>());
  LinkTap* tap = links_.back().get();
  tap->name = link.name();
  tap->link = &link;
  tap->util_bytes.assign(n_buckets_, 0);
  tap->depth.assign(n_buckets_ + 1, 0);
  tap->drops.assign(n_buckets_ + 1, 0);

  // Per-flow goodput is accounted only at a flow's terminal hop.  Flows
  // past the policy's series cap keep their bulk-TCP bytes in the shared
  // residual bucket instead of a per-flow series.
  constexpr std::size_t kResidual = ~std::size_t{0};
  std::unordered_map<net::FlowId, std::size_t> terminal;
  for (net::FlowId id : terminal_flows) {
    const auto it = flow_index_.find(id);
    if (it == flow_index_.end()) continue;
    if (it->second < tracked_) {
      terminal.emplace(id, it->second);
    } else if (flows_[it->second].kind == FlowKind::kBulkTcp) {
      terminal.emplace(id, kResidual);
    }
  }
  link.sniffer().on_deliver([this, tap, terminal = std::move(terminal)](
                                const net::Packet& p, Time t) {
    tap->util_bytes[bucket_of(t)] += p.size_bytes;
    const auto it = terminal.find(p.flow);
    if (it == terminal.end()) return;
    if (it->second == kResidual) {
      residual_tcp_bytes_[bucket_of(t)] += p.size_bytes;
      return;
    }
    bytes_[it->second][bucket_of(t)] += p.size_bytes;
    ++pkt_counters_[it->second];
  });
  link.sniffer().on_drop([this, tap](const net::Packet&, net::DropReason,
                                     Time) {
    ++tap->drop_counter;
    ++drop_counter_;
  });
}

void TraceCollectors::attach_game_receiver(net::FlowId id,
                                           const stream::StreamReceiver& recv) {
  const auto it = flow_index_.find(id);
  if (it != flow_index_.end() && it->second < tracked_) {
    receivers_[it->second] = &recv;
  }
}

void TraceCollectors::start() { sampler_.start(); }

void TraceCollectors::sample_counters() {
  // The sampler fires at k * interval; entry k holds the cumulative counts
  // at that boundary (entry 0 stays zero: counts at t=0).
  const auto k = std::min(
      std::size_t((sim_.now().count() + interval_.count() / 2) /
                  interval_.count()),
      n_buckets_);
  drops_[k] = drop_counter_;
  for (const auto& tap : links_) {
    tap->depth[k] = std::uint64_t(tap->link->queue().byte_length().bytes());
    tap->drops[k] = tap->drop_counter;
  }
  for (std::size_t i = 0; i < tracked_; ++i) {
    if (receivers_[i] != nullptr) {
      recv_samples_[i][k] = receivers_[i]->packets_received();
      lost_samples_[i][k] = receivers_[i]->packets_lost();
    } else {
      recv_samples_[i][k] = pkt_counters_[i];
    }
  }
}

RunTrace TraceCollectors::finalize(const PingClient* ping,
                                   const stream::StreamReceiver* recv) const {
  RunTrace t;
  t.sample_interval = interval_;
  t.duration = duration_;
  const double ival_s = to_seconds(interval_);

  t.flows.resize(tracked_);
  for (std::size_t i = 0; i < tracked_; ++i) {
    FlowTrace& f = t.flows[i];
    f.id = flows_[i].id;
    f.name = flows_[i].name;
    f.kind = flows_[i].kind;
    f.mbps.resize(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      f.mbps[b] = double(bytes_[i][b]) * 8.0 / ival_s / 1e6;
    }
    // Boundary-indexed cumulative counters: entry k = count at k * interval.
    f.pkts_recv = recv_samples_[i];
    f.pkts_lost = lost_samples_[i];
  }

  // Legacy two-flow views: primary game flow + sum of bulk-TCP flows.
  t.game_mbps.assign(n_buckets_, 0.0);
  t.tcp_mbps.assign(n_buckets_, 0.0);
  t.game_pkts_recv.assign(n_buckets_ + 1, 0);
  t.game_pkts_lost.assign(n_buckets_ + 1, 0);
  bool game_seen = false;
  for (const FlowTrace& f : t.flows) {
    if (f.kind == FlowKind::kGameStream && !game_seen) {
      game_seen = true;
      t.game_mbps = f.mbps;
      t.game_pkts_recv = f.pkts_recv;
      t.game_pkts_lost = f.pkts_lost;
    } else if (f.kind == FlowKind::kBulkTcp) {
      for (std::size_t b = 0; b < n_buckets_; ++b) t.tcp_mbps[b] += f.mbps[b];
    }
  }
  // Untracked bulk-TCP flows still contribute to the aggregate view.
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    t.tcp_mbps[b] += double(residual_tcp_bytes_[b]) * 8.0 / ival_s / 1e6;
  }

  t.queue_drops = drops_;

  t.links.resize(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkTrace& l = t.links[i];
    l.name = links_[i]->name;
    l.util_mbps.resize(n_buckets_);
    for (std::size_t b = 0; b < n_buckets_; ++b) {
      l.util_mbps[b] = double(links_[i]->util_bytes[b]) * 8.0 / ival_s / 1e6;
    }
    l.depth_bytes = links_[i]->depth;
    l.drops = links_[i]->drops;
  }

  if (ping != nullptr) t.rtt = ping->samples();
  if (recv != nullptr) t.frame_times = recv->display().presentation_times();
  return t;
}

}  // namespace cgs::core
