#include "telemetry/profiler.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace hbp::telemetry {
namespace {

TEST(LoopProfiler, AttributesCountsByLabel) {
  LoopProfiler prof;
  static const char* kA = "a";
  static const char* kB = "b";
  prof.record(kA, std::chrono::nanoseconds(10));
  prof.record(kA, std::chrono::nanoseconds(20));
  prof.record(kB, std::chrono::nanoseconds(5));
  prof.record(nullptr, std::chrono::nanoseconds(1));

  EXPECT_EQ(prof.total_events(), 4u);
  EXPECT_EQ(prof.total_wall_ns(), 36u);
  const auto by_type = prof.by_type();
  ASSERT_EQ(by_type.size(), 3u);
  // Sorted by label: "a", "b", "other".
  EXPECT_STREQ(by_type[0].label, "a");
  EXPECT_EQ(by_type[0].count, 2u);
  EXPECT_EQ(by_type[0].wall_ns, 30u);
  EXPECT_STREQ(by_type[1].label, "b");
  EXPECT_STREQ(by_type[2].label, "other");
}

TEST(LoopProfiler, TracksPeakQueueDepth) {
  LoopProfiler prof;
  prof.note_queue_depth(3);
  prof.note_queue_depth(10);
  prof.note_queue_depth(4);
  EXPECT_EQ(prof.peak_queue_depth(), 10u);
}

TEST(SimulatorProfiling, CountsAreDeterministicAndDigestUnchanged) {
  auto run = [](bool profile) {
    sim::Simulator simulator;
    if (profile) simulator.enable_profiling();
    int ticks = 0;
    // Each tick records a transition, so the digest has something to pin.
    std::function<void()> tick = [&] {
      simulator.record({simulator.now(), sim::TraceVerb::kSend, 0,
                        static_cast<std::uint64_t>(ticks), 0, ticks, -1});
      if (++ticks < 100) {
        simulator.after(sim::SimTime::millis(1), tick, "tick");
      }
    };
    simulator.after(sim::SimTime::millis(1), tick, "tick");
    simulator.at(sim::SimTime::millis(50), [] {}, "oneshot");
    simulator.run_all();
    EXPECT_EQ(simulator.trace().records(), 100u);
    return simulator.trace().value();
  };

  // Profiling is purely observational: the trace digest must not move.
  EXPECT_EQ(run(false), run(true));

  sim::Simulator simulator;
  simulator.enable_profiling();
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) simulator.after(sim::SimTime::millis(1), tick, "tick");
  };
  simulator.after(sim::SimTime::millis(1), tick, "tick");
  simulator.run_all();
  ASSERT_TRUE(simulator.profiling_enabled());
  const auto by_type = simulator.profiler()->by_type();
  ASSERT_EQ(by_type.size(), 1u);
  EXPECT_STREQ(by_type[0].label, "tick");
  EXPECT_EQ(by_type[0].count, 100u);
  EXPECT_GE(simulator.profiler()->peak_queue_depth(), 1u);
}

TEST(SimulatorProfiling, DisabledProfilerGuardNeverTouchesTelemetry) {
  // The dispatch loop guards every profiler/telemetry touch behind
  // `profiler_ != nullptr`: with profiling off, a full run must leave the
  // lazy registry unconstructed — zero registry mutations, not just zero
  // visible counters.
  sim::Simulator simulator;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) simulator.after(sim::SimTime::millis(1), tick, "tick");
  };
  simulator.after(sim::SimTime::millis(1), tick, "tick");
  simulator.run_all();

  EXPECT_FALSE(simulator.profiling_enabled());
  EXPECT_EQ(simulator.profiler(), nullptr);
  EXPECT_FALSE(simulator.has_telemetry());
  EXPECT_EQ(simulator.events_executed(), 100u);
}

TEST(SimulatorTelemetry, LazyRegistrySharedWithResults) {
  sim::Simulator simulator;
  simulator.telemetry().counter("x").add(2);
  const auto shared = simulator.telemetry_ptr();
  EXPECT_EQ(shared->find_counter("x")->value(), 2u);
  EXPECT_EQ(&simulator.telemetry(), shared.get());
}

}  // namespace
}  // namespace hbp::telemetry
