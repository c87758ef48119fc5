#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace hbp::net {
namespace {

sim::Packet packet(std::int32_t bytes, std::uint64_t uid = 0) {
  sim::Packet p;
  p.size_bytes = bytes;
  p.uid = uid;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10'000);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(packet(100, i)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, ByteCapacityEnforced) {
  DropTailQueue q(2500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));  // 3000 > 2500
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.byte_length(), 2000);
  EXPECT_EQ(q.packet_length(), 2u);
  // Draining frees capacity.
  q.dequeue();
  EXPECT_TRUE(q.enqueue(packet(1000)));
}

TEST(DropTailQueue, SmallPacketFitsAfterBigRejected) {
  DropTailQueue q(1500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(400)));
}

TEST(DropTailQueue, DropObserverSeesDroppedPacket) {
  DropTailQueue q(1000);
  std::uint64_t dropped_uid = 0;
  auto on_drop = [&](const sim::Packet& p) { dropped_uid = p.uid; };
  q.set_drop_observer(on_drop);
  q.enqueue(packet(800, 1));
  q.enqueue(packet(800, 2));
  EXPECT_EQ(dropped_uid, 2u);
}

TEST(RedQueue, NoDropsBelowMinThreshold) {
  RedQueue::Params params;
  params.capacity_bytes = 100'000;
  params.min_th_bytes = 50'000;
  params.max_th_bytes = 90'000;
  RedQueue q(params);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(RedQueue, EarlyDropsBetweenThresholds) {
  RedQueue::Params params;
  params.capacity_bytes = 200'000;
  params.min_th_bytes = 5'000;
  params.max_th_bytes = 50'000;
  params.max_p = 0.5;
  params.weight = 0.5;  // fast-moving average for the test
  RedQueue q(params);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (q.enqueue(packet(1000))) ++accepted;
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(accepted, 0);
}

TEST(RedQueue, HardCapacityStillEnforced) {
  RedQueue::Params params;
  params.capacity_bytes = 3'000;
  params.min_th_bytes = 1'000;
  params.max_th_bytes = 2'500;
  params.weight = 0.0001;  // avg stays ~0, no early drops
  RedQueue q(params);
  EXPECT_TRUE(q.enqueue(packet(1500)));
  EXPECT_TRUE(q.enqueue(packet(1500)));
  EXPECT_FALSE(q.enqueue(packet(1500)));
}

TEST(RedQueue, DequeueFifo) {
  RedQueue::Params params;
  RedQueue q(params);
  q.enqueue(packet(100, 1));
  q.enqueue(packet(100, 2));
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
}

}  // namespace
}  // namespace hbp::net
