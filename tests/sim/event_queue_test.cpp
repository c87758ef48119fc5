#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/trace_digest.hpp"
#include "util/rng.hpp"

namespace hbp::sim {
namespace {

TEST(SimTime, ArithmeticAndConversions) {
  const SimTime a = SimTime::seconds(1.5);
  EXPECT_EQ(a.nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(a.to_seconds(), 1.5);
  EXPECT_EQ((a + SimTime::millis(500)).nanos(), 2'000'000'000);
  EXPECT_EQ((a - SimTime::seconds(1)).nanos(), 500'000'000);
  EXPECT_LT(SimTime::micros(1), SimTime::millis(1));
  EXPECT_EQ((SimTime::seconds(2) * 3).nanos(), 6'000'000'000);
}

TEST(SimTime, TransmissionTime) {
  // 1000 bytes at 8 Mb/s = 1 ms.
  EXPECT_EQ(transmission_time(1000, 8e6), SimTime::millis(1));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(3), [&] { order.push_back(3); });
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  q.push(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(SimTime::seconds(9), [] {});
  q.push(SimTime::seconds(4), [] {});
  EXPECT_EQ(q.next_time(), SimTime::seconds(4));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(SimTime::seconds(1), [&] { ran = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelFiredEventFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::seconds(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::seconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventsSkippedAmongLive) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  const EventId id = q.push(SimTime::seconds(2), [&] { order.push_back(2); });
  q.push(SimTime::seconds(3), [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// How far past the forward-moving clock a push lands.  kTied packs pushes
// within 100 ns so equal times (and with them the insertion-sequence tie
// break) are common; kNear clusters them within 1 ms, kFar within 1 s and
// kHuge within 1000 s; kMixed draws each push 60/30/10 from near/far/huge,
// so clusters and far outliers share one heap.
enum class PushShape : std::uint8_t { kTied, kNear, kFar, kHuge, kMixed };

std::int64_t push_gap(PushShape shape, util::Rng& rng) {
  if (shape == PushShape::kMixed) {
    const auto pick = rng.below(10);
    shape = pick < 6 ? PushShape::kNear
                     : (pick < 9 ? PushShape::kFar : PushShape::kHuge);
  }
  std::uint64_t bound = 100;
  if (shape == PushShape::kNear) bound = 1'000'000;
  if (shape == PushShape::kFar) bound = 1'000'000'000;
  if (shape == PushShape::kHuge) bound = 1'000'000'000'000;
  return static_cast<std::int64_t>(rng.below(bound));
}

// Reference-model property test: random interleavings of push/pop/cancel
// against a plain list of (time, seq) entries.  Every pop must return the
// model's exact minimum entry — same time AND same payload — and the popped
// stream, folded into a TraceDigest as one record per pop (time, payload as
// the id), must equal the model's stream.
class EventQueueModelSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PushShape>> {
};

TEST_P(EventQueueModelSweep, MatchesReferenceModel) {
  util::Rng rng(std::get<0>(GetParam()));
  const PushShape shape = std::get<1>(GetParam());
  EventQueue q;
  struct Entry {
    std::int64_t at;
    std::uint64_t seq;  // doubles as the payload
    EventId id;
  };
  std::vector<Entry> model;
  std::vector<EventId> ids;  // every id ever issued, live or not
  std::vector<std::uint64_t> popped;
  TraceDigest queue_digest;
  TraceDigest model_digest;
  std::uint64_t seq = 0;
  std::int64_t clock = 0;  // pops only move forward from here

  const auto pop_one = [&] {
    ASSERT_EQ(q.empty(), model.empty());
    if (model.empty()) return;
    const auto best = std::min_element(
        model.begin(), model.end(), [](const Entry& a, const Entry& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    ASSERT_EQ(q.next_time().nanos(), best->at);
    auto ev = q.pop();
    ev.fn();
    ASSERT_EQ(ev.at.nanos(), best->at);
    ASSERT_EQ(popped.back(), best->seq);
    queue_digest.fold({ev.at, TraceVerb::kSend, -1, popped.back(), 0});
    model_digest.fold({SimTime(best->at), TraceVerb::kSend, -1, best->seq, 0});
    clock = best->at;
    model.erase(best);
  };

  for (int step = 0; step < 5000; ++step) {
    const auto op = rng.below(10);
    if (op < 5) {  // push, never in the past
      const std::int64_t t = clock + push_gap(shape, rng);
      const std::uint64_t payload = seq++;
      const EventId id =
          q.push(SimTime(t), [&popped, payload] { popped.push_back(payload); });
      model.push_back({t, payload, id});
      ids.push_back(id);
    } else if (op < 8) {
      ASSERT_NO_FATAL_FAILURE(pop_one());
    } else {  // cancel a random (possibly stale) id
      if (ids.empty()) continue;
      const EventId id = ids[rng.below(ids.size())];
      const auto it = std::find_if(model.begin(), model.end(),
                                   [&](const Entry& e) { return e.id == id; });
      ASSERT_EQ(q.cancel(id), it != model.end());
      if (it != model.end()) model.erase(it);
    }
    ASSERT_EQ(q.size(), model.size());
  }
  while (!model.empty()) {
    ASSERT_NO_FATAL_FAILURE(pop_one());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(popped.size(), 1000u);
  EXPECT_EQ(queue_digest.value(), model_digest.value());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueModelSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(PushShape::kTied, PushShape::kNear,
                                         PushShape::kFar, PushShape::kHuge,
                                         PushShape::kMixed)));

// Lazy cancellation must not let bookkeeping grow without bound: stale
// ordering records are compacted once they outnumber the live ones, and
// slots recycle through the free list instead of accumulating.
TEST(EventQueue, CancelChurnStaysBounded) {
  util::Rng rng(5);
  EventQueue q;
  constexpr std::size_t kBatch = 200;
  std::vector<EventId> ids;
  for (int round = 0; round < 300; ++round) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids.push_back(q.push(
          SimTime(static_cast<std::int64_t>(rng.below(1'000'000'000))), [] {}));
    }
    // Cancel everything we just scheduled, in random order.
    while (!ids.empty()) {
      const auto idx = rng.below(ids.size());
      EXPECT_TRUE(q.cancel(ids[idx]));
      ids[idx] = ids.back();
      ids.pop_back();
      // Invariant after every cancel: stale records never exceed
      // max(live, compaction threshold).
      ASSERT_LE(q.stale_items(), std::max<std::size_t>(64, q.size()));
    }
    ASSERT_TRUE(q.empty());
    // All slots ever needed fit the per-round peak; churn adds none.
    ASSERT_LE(q.slot_capacity(), kBatch);
    ASSERT_LE(q.backlog_items(), std::max<std::size_t>(64, q.size()));
  }
}

TEST(EventQueue, StressRandomOrdering) {
  util::Rng rng(77);
  EventQueue q;
  std::vector<std::int64_t> popped;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(1000));
    q.push(SimTime(t), [] {});
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.at, last);
    last = ev.at;
  }
}

}  // namespace
}  // namespace hbp::sim
