#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace_event.hpp"
#include "telemetry/registry.hpp"

namespace hbp::trace {
namespace {

sim::TraceEvent make_event(std::uint64_t i) {
  sim::TraceEvent e;
  e.t = sim::SimTime(static_cast<std::int64_t>(i));
  e.verb = sim::TraceVerb::kEnqueue;
  e.node = static_cast<sim::NodeId>(i % 7);
  e.id = i;
  e.cause = 0;
  e.a = static_cast<std::int32_t>(i % 3);
  e.b = -1;
  return e;
}

TEST(Tracer, RecordsInOrderAcrossChunks) {
  // 10'000 events spans three 4096-event slab chunks.
  Tracer tracer;
  for (std::uint64_t i = 0; i < 10'000; ++i) tracer.record(make_event(i));

  EXPECT_EQ(tracer.recorded(), 10'000u);
  ASSERT_EQ(tracer.size(), 10'000u);
  EXPECT_EQ(tracer.verb_count(sim::TraceVerb::kEnqueue), 10'000u);
  EXPECT_EQ(tracer.verb_count(sim::TraceVerb::kDeliver), 0u);
  for (std::uint64_t i : {0u, 4095u, 4096u, 8191u, 8192u, 9999u}) {
    EXPECT_EQ(tracer.event(i).id, i) << "slot " << i;
  }
  std::uint64_t next = 0;
  tracer.for_each([&](const sim::TraceEvent& e) { EXPECT_EQ(e.id, next++); });
  EXPECT_EQ(next, 10'000u);
}

TEST(Tracer, FlightRingKeepsLastNOldestToNewest) {
  TracerOptions options;
  options.flight_capacity = 4;
  Tracer tracer(options);
  for (std::uint64_t i = 0; i < 6; ++i) tracer.record(make_event(i));

  EXPECT_EQ(tracer.flight_capacity(), 4u);
  EXPECT_EQ(tracer.flight_size(), 4u);
  std::vector<std::uint64_t> ids;
  tracer.for_each_flight(
      [&](const sim::TraceEvent& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(Tracer, FlightRingPartiallyFilled) {
  TracerOptions options;
  options.flight_capacity = 8;
  Tracer tracer(options);
  for (std::uint64_t i = 0; i < 3; ++i) tracer.record(make_event(i));

  EXPECT_EQ(tracer.flight_size(), 3u);
  std::vector<std::uint64_t> ids;
  tracer.for_each_flight(
      [&](const sim::TraceEvent& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Tracer, FlightOnlyModeKeepsCountersButNoFullTrace) {
  TracerOptions options;
  options.keep_full = false;
  options.flight_capacity = 2;
  Tracer tracer(options);
  for (std::uint64_t i = 0; i < 5; ++i) tracer.record(make_event(i));

  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.verb_count(sim::TraceVerb::kEnqueue), 5u);
  EXPECT_EQ(tracer.flight_size(), 2u);
}

TEST(Tracer, ZeroFlightCapacityDisablesTheRing) {
  TracerOptions options;
  options.flight_capacity = 0;
  Tracer tracer(options);
  for (std::uint64_t i = 0; i < 3; ++i) tracer.record(make_event(i));

  EXPECT_EQ(tracer.flight_capacity(), 0u);
  EXPECT_EQ(tracer.flight_size(), 0u);
  EXPECT_EQ(tracer.size(), 3u);
}

TEST(Tracer, AttachInstallsSimulatorSinkAndDetachRemovesIt) {
  sim::Simulator simulator;
  Tracer tracer;
  EXPECT_FALSE(simulator.tracing());

  tracer.attach(simulator);
  EXPECT_TRUE(simulator.tracing());
  EXPECT_TRUE(tracer.attached());

  simulator.record(make_event(7));
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(tracer.event(0).id, 7u);

  std::string out;
  EXPECT_TRUE(simulator.dump_flight(out));
  EXPECT_NE(out.find("flight recorder"), std::string::npos);

  tracer.detach();
  EXPECT_FALSE(simulator.tracing());
  EXPECT_FALSE(tracer.attached());
  out.clear();
  EXPECT_FALSE(simulator.dump_flight(out));
  // A detached simulator still folds the record but forwards nothing.
  simulator.record(make_event(8));
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(simulator.trace().records(), 2u);
}

TEST(Tracer, DestructorDetachesFromTheSimulator) {
  sim::Simulator simulator;
  {
    Tracer tracer;
    tracer.attach(simulator);
    EXPECT_TRUE(simulator.tracing());
  }
  EXPECT_FALSE(simulator.tracing());
  std::string out;
  EXPECT_FALSE(simulator.dump_flight(out));
}

TEST(Tracer, DumpFlightFormatsVerbAndFields) {
  Tracer tracer;
  sim::TraceEvent e;
  e.t = sim::SimTime::millis(3);
  e.verb = sim::TraceVerb::kHoneypotHit;
  e.node = 4;
  e.id = 99;
  e.cause = 99;
  e.a = 0;
  e.b = 1;
  tracer.record(e);

  std::string out;
  tracer.dump_flight(out);
  EXPECT_NE(out.find("flight recorder"), std::string::npos);
  EXPECT_NE(out.find("honeypot_hit"), std::string::npos);
  EXPECT_NE(out.find("id=99"), std::string::npos);
  EXPECT_NE(out.find("t=0.003000000s"), std::string::npos);
}

TEST(Tracer, ExportCountersRegistersRecordedAndPerVerbCounts) {
  Tracer tracer;
  for (std::uint64_t i = 0; i < 3; ++i) tracer.record(make_event(i));
  sim::TraceEvent capture = make_event(3);
  capture.verb = sim::TraceVerb::kCapture;
  tracer.record(capture);

  telemetry::Registry registry;
  tracer.export_counters(registry);
  ASSERT_NE(registry.find_counter("trace.recorded"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.recorded")->value(), 4u);
  ASSERT_NE(registry.find_counter("trace.verb.enqueue"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.verb.enqueue")->value(), 3u);
  ASSERT_NE(registry.find_counter("trace.verb.capture"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.verb.capture")->value(), 1u);
  // Verbs that never fired are not exported.
  EXPECT_EQ(registry.find_counter("trace.verb.deliver"), nullptr);
}

TEST(TraceVerb, NamesAreUniqueAndCoverEveryVerb) {
  std::vector<std::string> names;
  for (std::size_t v = 0; v < sim::kTraceVerbCount; ++v) {
    const char* name = sim::verb_name(static_cast<sim::TraceVerb>(v));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "verb " << v << " lacks a name";
    names.emplace_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace hbp::trace
