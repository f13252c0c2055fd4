#include "net/router.hpp"

#include <utility>

namespace cgs::net {

BottleneckRouter::BottleneckRouter(sim::Simulator& sim, Bandwidth capacity,
                                   Time prop_delay,
                                   std::unique_ptr<Queue> queue)
    : sim_(&sim),
      link_(std::make_unique<Link>(sim, "bottleneck", capacity, prop_delay,
                                   std::move(queue), &demux_)) {}

BottleneckRouter::BottleneckRouter(TopologyGraph& graph) : graph_(&graph) {
  (void)graph.bottleneck();  // throws std::logic_error on multi-link graphs
}

PacketSink& BottleneckRouter::downstream_in() {
  if (graph_) return graph_->link_entry(0);
  return *link_;
}

void BottleneckRouter::register_client(FlowId flow, PacketSink* sink) {
  if (graph_) {
    graph_->register_client(flow, sink);
    return;
  }
  demux_.register_flow(flow, sink);
}

PacketSink& BottleneckRouter::make_upstream(Time delay,
                                            PacketSink* server_sink) {
  if (graph_) return graph_->make_delay_upstream(delay, server_sink);
  upstream_.push_back(std::make_unique<DelayLine>(*sim_, delay, server_sink));
  return *upstream_.back();
}

Link& BottleneckRouter::bottleneck() {
  if (graph_) return graph_->bottleneck();
  return *link_;
}

const Link& BottleneckRouter::bottleneck() const {
  if (graph_) return std::as_const(*graph_).bottleneck();
  return *link_;
}

}  // namespace cgs::net
