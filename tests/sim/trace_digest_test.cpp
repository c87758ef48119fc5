#include "sim/trace_digest.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace_event.hpp"

namespace hbp::sim {
namespace {

TraceEvent event(SimTime t, TraceVerb verb, NodeId node, std::uint64_t id,
                 std::uint64_t cause = 0, std::int32_t a = -1,
                 std::int32_t b = -1) {
  return {t, verb, node, id, cause, a, b};
}

TEST(TraceDigest, FreshDigestsAgree) {
  TraceDigest a, b;
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.records(), 0u);
}

TEST(TraceDigest, FoldChangesValueAndCountsRecords) {
  TraceDigest d;
  const std::uint64_t empty = d.value();
  d.fold(event(SimTime::millis(3), TraceVerb::kEnqueue, 7, 42));
  EXPECT_NE(d.value(), empty);
  EXPECT_EQ(d.records(), 1u);
}

TEST(TraceDigest, SameSequenceSameValue) {
  TraceDigest a, b;
  for (int i = 0; i < 100; ++i) {
    const TraceEvent e = event(SimTime::millis(i), TraceVerb::kDeliver, i % 5,
                               static_cast<std::uint64_t>(i), 0, i % 3);
    a.fold(e);
    b.fold(e);
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.records(), 100u);
}

TEST(TraceDigest, OrderSensitive) {
  const TraceEvent first = event(SimTime::millis(1), TraceVerb::kSend, 1, 1);
  const TraceEvent second = event(SimTime::millis(2), TraceVerb::kSend, 2, 2);
  TraceDigest ab, ba;
  ab.fold(first);
  ab.fold(second);
  ba.fold(second);
  ba.fold(first);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(TraceDigest, DiscriminatesEveryField) {
  auto one = [](const TraceEvent& e) {
    TraceDigest d;
    d.fold(e);
    return d.value();
  };
  const TraceEvent base{SimTime::millis(1), TraceVerb::kForward, 3, 9, 5, 2, 4};
  const std::uint64_t digest = one(base);
  std::vector<TraceEvent> variants(7, base);
  variants[0].t = SimTime::millis(2);
  variants[1].verb = TraceVerb::kDequeue;
  variants[2].node = 4;
  variants[3].id = 10;
  variants[4].cause = 6;
  variants[5].a = 3;
  variants[6].b = 5;
  for (std::size_t field = 0; field < variants.size(); ++field) {
    EXPECT_NE(digest, one(variants[field])) << "field " << field;
  }
  // The -1 "unset" sentinel is a value like any other, and the two
  // verb-specific arguments are not interchangeable.
  TraceEvent unset = base;
  unset.a = -1;
  TraceEvent zero = base;
  zero.a = 0;
  EXPECT_NE(one(unset), one(zero));
  TraceEvent swapped = base;
  std::swap(swapped.a, swapped.b);
  EXPECT_NE(digest, one(swapped));
}

TEST(TraceDigest, ResetRestoresInitialState) {
  TraceDigest d;
  const std::uint64_t empty = d.value();
  d.fold(event(SimTime::seconds(1), TraceVerb::kQueueDrop, 2, 5));
  d.reset();
  EXPECT_EQ(d.value(), empty);
  EXPECT_EQ(d.records(), 0u);
}

TEST(TraceDigest, SimulatorFoldsRecordsNotDispatches) {
  // The event loop folds nothing: no-op events leave the digest at its
  // empty value while events_executed counts them.
  const std::uint64_t empty = TraceDigest().value();
  Simulator s;
  for (int i = 0; i < 5; ++i) {
    s.at(SimTime::millis(i), [] {});
  }
  s.run_all();
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_EQ(s.trace().records(), 0u);
  EXPECT_EQ(s.trace().value(), empty);

  // A record made inside an event is folded exactly once, with the
  // caller's fields.
  s.at(SimTime::millis(9), [&s] {
    s.record(event(s.now(), TraceVerb::kCapture, 4, 0, 0, 17));
  });
  s.run_all();
  TraceDigest expected;
  expected.fold(event(SimTime::millis(9), TraceVerb::kCapture, 4, 0, 0, 17));
  EXPECT_EQ(s.events_executed(), 6u);
  EXPECT_EQ(s.trace().records(), 1u);
  EXPECT_EQ(s.trace().value(), expected.value());
}

TEST(TraceDigest, RecordFoldsAndForwards) {
  std::vector<TraceEvent> seen;
  auto sink = [&seen](const TraceEvent& e) { seen.push_back(e); };

  const TraceEvent first = event(SimTime::millis(1), TraceVerb::kSend, 1, 7);
  const TraceEvent second =
      event(SimTime::millis(2), TraceVerb::kHoneypotHit, 2, 7, 0, 1, 1);

  Simulator untraced;
  untraced.record(first);
  untraced.record(second);

  Simulator traced;
  traced.set_trace_sink(sink);
  traced.record(first);
  traced.record(second);

  // Forwarded verbatim, in order...
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].id, first.id);
  EXPECT_EQ(seen[1].verb, second.verb);
  EXPECT_EQ(seen[1].b, second.b);
  // ...and folded identically with or without a sink.
  EXPECT_EQ(traced.trace().records(), 2u);
  EXPECT_EQ(traced.trace().value(), untraced.trace().value());
  EXPECT_NE(traced.trace().value(), TraceDigest().value());
}

TEST(TraceDigest, SimulatorNextEventTime) {
  Simulator s;
  EXPECT_FALSE(s.next_event_time().has_value());
  s.at(SimTime::millis(7), [] {});
  s.at(SimTime::millis(3), [] {});
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), SimTime::millis(3));
  s.run_all();
  EXPECT_FALSE(s.next_event_time().has_value());
}

}  // namespace
}  // namespace hbp::sim
