#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hbp::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  std::vector<double> times;
  s.at(SimTime::seconds(2), [&] { times.push_back(s.now().to_seconds()); });
  s.at(SimTime::seconds(1), [&] { times.push_back(s.now().to_seconds()); });
  s.run_all();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int ran = 0;
  s.at(SimTime::seconds(1), [&] { ++ran; });
  s.at(SimTime::seconds(5), [&] { ++ran; });
  s.run_until(SimTime::seconds(3));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), SimTime::seconds(3));
  EXPECT_EQ(s.events_pending(), 1u);
  s.run_until(SimTime::seconds(10));
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator s;
  double fired_at = -1;
  s.at(SimTime::seconds(4), [&] {
    s.after(SimTime::seconds(2), [&] { fired_at = s.now().to_seconds(); });
  });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 6.0);
}

TEST(Simulator, EventsChainDeterministically) {
  Simulator s;
  std::vector<int> order;
  // Events scheduled from within events at the same timestamp preserve
  // insertion order.
  s.at(SimTime::seconds(1), [&] {
    order.push_back(1);
    s.at(SimTime::seconds(1), [&] { order.push_back(2); });
    s.at(SimTime::seconds(1), [&] { order.push_back(3); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator s;
  s.at(SimTime::seconds(5), [] {});
  s.run_all();
  EXPECT_DEATH(s.at(SimTime::seconds(1), [] {}), "past");
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator s;
  s.run_until(SimTime::seconds(42));
  EXPECT_EQ(s.now(), SimTime::seconds(42));
  EXPECT_EQ(s.events_executed(), 0u);
}

}  // namespace
}  // namespace hbp::sim
