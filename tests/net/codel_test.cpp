#include "net/codel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cgs::net {
namespace {

using namespace cgs::literals;

PacketPtr make_pkt(PacketFactory& f, std::int32_t size, FlowId flow = 1) {
  return f.make(flow, TrafficClass::kTcpData, size, kTimeZero, {});
}

TEST(CodelQueue, PassesThroughUnderTarget) {
  PacketFactory f;
  CodelQueue q(CodelParams{});
  for (int i = 0; i < 10; ++i) q.enqueue(make_pkt(f, 1000), 1_ms * i);
  int out = 0;
  // Dequeue promptly: sojourn < target, no drops.
  while (auto p = q.dequeue(20_ms)) ++out;
  EXPECT_EQ(out, 10);
  EXPECT_EQ(q.drops_total(), 0u);
}

TEST(CodelQueue, DropsWhenSojournExceedsTargetForInterval) {
  PacketFactory f;
  CodelQueue q(CodelParams{});
  for (int i = 0; i < 200; ++i) q.enqueue(make_pkt(f, 1000), kTimeZero);
  // Dequeue slowly, with every packet having a huge sojourn time: after the
  // first interval (100 ms) CoDel must start dropping.
  Time t = 200_ms;
  int delivered = 0;
  while (auto p = q.dequeue(t)) {
    ++delivered;
    t += 10_ms;
  }
  EXPECT_GT(q.drops_total(), 0u);
  EXPECT_LT(delivered, 200);
}

TEST(CodelQueue, HardByteLimitEnforced) {
  PacketFactory f;
  CodelParams p;
  p.capacity = ByteSize(2500);
  CodelQueue q(p);
  q.enqueue(make_pkt(f, 1000), kTimeZero);
  q.enqueue(make_pkt(f, 1000), kTimeZero);
  q.enqueue(make_pkt(f, 1000), kTimeZero);  // over the limit
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.drops_total(), 1u);
}

TEST(FqCodelQueue, IsolatesFlows) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  // Flow 1 floods; flow 2 sends two packets.
  for (int i = 0; i < 50; ++i) q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
  q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  q.enqueue(make_pkt(f, 1000, 2), kTimeZero);

  // Flow 2's packets must surface within the first few dequeues (new-flow
  // priority + DRR), despite flow 1's 50-deep backlog.
  int flow2_seen = 0;
  for (int i = 0; i < 6; ++i) {
    auto p = q.dequeue(1_ms);
    ASSERT_NE(p, nullptr);
    if (p->flow == 2) ++flow2_seen;
  }
  EXPECT_EQ(flow2_seen, 2);
}

TEST(FqCodelQueue, RoundRobinFairDrain) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  for (int i = 0; i < 20; ++i) {
    q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
    q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  }
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue(1_ms);
    ASSERT_NE(p, nullptr);
    (p->flow == 1 ? c1 : c2)++;
  }
  EXPECT_NEAR(c1, c2, 2);
}

TEST(FqCodelQueue, AggregateAccounting) {
  PacketFactory f;
  FqCodelQueue q(CodelParams{});
  q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
  q.enqueue(make_pkt(f, 500, 2), kTimeZero);
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.byte_length().bytes(), 1500);
  (void)q.dequeue(1_ms);
  (void)q.dequeue(1_ms);
  EXPECT_EQ(q.packet_count(), 0u);
  EXPECT_EQ(q.byte_length().bytes(), 0);
  EXPECT_EQ(q.dequeue(1_ms), nullptr);
}

TEST(FqCodelQueue, ByteLimitBoundsTheAggregate) {
  // Three flows overload a small queue with mixed packet sizes while the
  // link drains it slowly: occupancy never exceeds capacity, and every
  // packet is either still queued, dequeued or dropped exactly once.
  PacketFactory f;
  CodelParams p;
  p.capacity = ByteSize(8000);
  FqCodelQueue q(p);
  std::size_t dropped = 0;
  q.set_drop_handler([&](const Packet&, DropReason, Time) { ++dropped; });
  const std::int32_t sizes[] = {1500, 200, 900};
  std::size_t arrived = 0, dequeued = 0;
  for (int i = 0; i < 300; ++i) {
    const auto flow = FlowId(1 + i % 3);
    q.enqueue(make_pkt(f, sizes[i % 3], flow), 1_ms * i);
    ++arrived;
    EXPECT_LE(q.byte_length(), p.capacity) << "after arrival " << i;
    if (i % 4 == 0 && q.dequeue(1_ms * i)) ++dequeued;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(arrived, dequeued + dropped + q.packet_count());
}

TEST(FqCodelQueue, OverflowDropsFromTheFattestFlow) {
  PacketFactory f;
  CodelParams p;
  p.capacity = ByteSize(10'000);
  FqCodelQueue q(p);
  std::vector<FlowId> victims;
  q.set_drop_handler(
      [&](const Packet& pkt, DropReason r, Time) {
        EXPECT_EQ(r, DropReason::kOverflow);
        victims.push_back(pkt.flow);
      });
  for (int i = 0; i < 8; ++i) q.enqueue(make_pkt(f, 1000, 1), kTimeZero);
  for (int i = 0; i < 2; ++i) q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  ASSERT_EQ(q.byte_length(), p.capacity);

  // Flow 2's arrival overflows the aggregate: flow 1 holds the most bytes,
  // so flow 1's head goes and flow 2's packet is admitted.
  q.enqueue(make_pkt(f, 1000, 2), kTimeZero);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], FlowId(1));
  EXPECT_EQ(q.packet_count(), 10u);
  EXPECT_EQ(q.byte_length(), p.capacity);

  // A packet of a new, empty flow is the victim only when its own flow
  // would be the fattest, i.e. when it alone exceeds every other backlog.
  q.enqueue(make_pkt(f, 9500, 3), kTimeZero);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[1], FlowId(3));
  EXPECT_EQ(q.packet_count(), 10u);
}

}  // namespace
}  // namespace cgs::net
