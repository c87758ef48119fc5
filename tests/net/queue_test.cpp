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
  PacketQueue q(10'000);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(packet(100, i)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().uid, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, ByteCapacityEnforced) {
  PacketQueue q(2500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));  // 3000 > 2500
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.byte_length(), 2000);
  EXPECT_EQ(q.packet_length(), 2u);
  // Draining frees capacity.
  q.pop();
  EXPECT_TRUE(q.enqueue(packet(1000)));
}

TEST(DropTailQueue, SmallPacketFitsAfterBigRejected) {
  PacketQueue q(1500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(400)));
}

TEST(RedQueue, NoDropsBelowMinThreshold) {
  RedParams params;
  params.min_th_bytes = 50'000;
  params.max_th_bytes = 90'000;
  PacketQueue q(100'000, params);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(RedQueue, EarlyDropsBetweenThresholds) {
  RedParams params;
  params.min_th_bytes = 5'000;
  params.max_th_bytes = 50'000;
  params.max_p = 0.5;
  params.weight = 0.5;  // fast-moving average for the test
  PacketQueue q(200'000, params);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (q.enqueue(packet(1000))) ++accepted;
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(accepted, 0);
}

TEST(RedQueue, HardCapacityStillEnforced) {
  RedParams params;
  params.min_th_bytes = 1'000;
  params.max_th_bytes = 2'500;
  params.weight = 0.0001;  // avg stays ~0, no early drops
  PacketQueue q(3'000, params);
  EXPECT_TRUE(q.enqueue(packet(1500)));
  EXPECT_TRUE(q.enqueue(packet(1500)));
  EXPECT_FALSE(q.enqueue(packet(1500)));
}

TEST(RedQueue, DequeueFifo) {
  PacketQueue q(64'000, RedParams{});
  q.enqueue(packet(100, 1));
  q.enqueue(packet(100, 2));
  EXPECT_EQ(q.pop().uid, 1u);
  EXPECT_EQ(q.pop().uid, 2u);
}

// dropped_bytes() sums overflow drops and RED early drops alike.
TEST(PacketQueue, DroppedBytesCountOverflowAndEarlyDrops) {
  PacketQueue tail(1000);
  EXPECT_TRUE(tail.enqueue(packet(800)));
  EXPECT_FALSE(tail.enqueue(packet(800)));
  EXPECT_FALSE(tail.enqueue(packet(300)));
  EXPECT_EQ(tail.drops(), 2u);
  EXPECT_EQ(tail.dropped_bytes(), 1100u);

  // Nothing leaves the RED queue and its final backlog plus one more packet
  // still fits its capacity, so no enqueue overflowed: every drop is early.
  RedParams params;
  params.min_th_bytes = 5'000;
  params.max_th_bytes = 50'000;
  params.max_p = 0.5;
  params.weight = 0.5;
  PacketQueue red(200'000, params);
  for (int i = 0; i < 100; ++i) red.enqueue(packet(1000));
  EXPECT_LE(red.byte_length() + 1000, 200'000);
  EXPECT_GT(red.drops(), 0u);
  EXPECT_EQ(red.accepted() + red.drops(), 100u);
  EXPECT_EQ(red.dropped_bytes(), red.drops() * 1000u);
}

}  // namespace
}  // namespace hbp::net
