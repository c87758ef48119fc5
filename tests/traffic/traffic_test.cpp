#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr.hpp"
#include "traffic/follower.hpp"
#include "traffic/onoff.hpp"
#include "traffic/probe.hpp"
#include "traffic/spoof.hpp"

namespace hbp::traffic {
namespace {

struct TrafficFixture : public ::testing::Test {
  void SetUp() override {
    src = &network.add_node<net::Host>("src");
    dst = &network.add_node<net::Host>("dst");
    net::LinkParams link;
    link.capacity_bps = 100e6;
    link.delay = sim::SimTime::millis(1);
    network.connect(src->id(), dst->id(), link);
    src->set_address(network.assign_address(src->id()));
    dst->set_address(network.assign_address(dst->id()));
    network.compute_routes();
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  util::Rng rng{123};
};

TEST_F(TrafficFixture, CbrRateAccuracy) {
  CbrParams params;
  params.rate_bps = 0.8e6;  // 100 packets/s at 1000 B
  params.packet_size = 1000;
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(10));
  EXPECT_NEAR(static_cast<double>(cbr.packets_sent()), 1000.0, 15.0);
  EXPECT_EQ(dst->packets_received(), cbr.packets_sent());
}

TEST_F(TrafficFixture, CbrStartStopWindow) {
  CbrParams params;
  params.rate_bps = 0.8e6;
  params.start = sim::SimTime::seconds(2);
  params.stop = sim::SimTime::seconds(4);
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(cbr.packets_sent(), 0u);
  simulator.run_until(sim::SimTime::seconds(10));
  EXPECT_NEAR(static_cast<double>(cbr.packets_sent()), 200.0, 10.0);
}

TEST_F(TrafficFixture, CbrPauseResume) {
  CbrParams params;
  params.rate_bps = 0.8e6;
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(1));
  const auto sent_before = cbr.packets_sent();
  cbr.pause();
  simulator.run_until(sim::SimTime::seconds(3));
  EXPECT_EQ(cbr.packets_sent(), sent_before);
  cbr.resume();
  simulator.run_until(sim::SimTime::seconds(4));
  EXPECT_GT(cbr.packets_sent(), sent_before);
}

TEST_F(TrafficFixture, CbrSkipsWhenDstIsZero) {
  CbrParams params;
  params.rate_bps = 0.8e6;
  int calls = 0;
  CbrSource cbr(simulator, *src, rng, params, [&]() -> sim::Address {
    ++calls;
    return 0;
  });
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(2));
  EXPECT_GT(calls, 100);
  EXPECT_EQ(cbr.packets_sent(), 0u);
}

TEST_F(TrafficFixture, SpoofPoliciesShapeSource) {
  sim::Address last_src = 0;
  auto on_packet = [&](const sim::Packet& p) { last_src = p.src; };
  dst->set_receiver(on_packet);

  // Each source sends for one 200 ms window.  All of them live to the end
  // of the test: a stopped source's last tick is still pending when the
  // next window runs, and it must find its source alive.
  std::vector<std::unique_ptr<CbrSource>> sources;
  auto run_window = [&](SpoofFn spoof) {
    CbrParams params;
    params.rate_bps = 8e6;
    params.start = simulator.now();
    params.stop = simulator.now() + sim::SimTime::millis(200);
    sources.push_back(std::make_unique<CbrSource>(
        simulator, *src, rng, params, [this] { return dst->address(); },
        std::move(spoof)));
    sources.back()->start();
    simulator.run_until(params.stop);
  };
  run_window(no_spoof());
  EXPECT_EQ(last_src, src->address());
  run_window(fixed_spoof(777));
  EXPECT_EQ(last_src, 777u);
  run_window(subnet_spoof(5000, 10));
  EXPECT_GE(last_src, 5000u);
  EXPECT_LT(last_src, 5010u);
}

TEST_F(TrafficFixture, RandomSpoofVariesPerPacket) {
  std::set<sim::Address> sources;
  auto on_packet = [&](const sim::Packet& p) { sources.insert(p.src); };
  dst->set_receiver(on_packet);
  CbrParams params;
  params.rate_bps = 8e6;  // 1000 pps
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); }, random_spoof());
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_GT(sources.size(), 900u);  // essentially all distinct
}

TEST_F(TrafficFixture, OnOffDutyCycle) {
  CbrParams params;
  params.rate_bps = 0.8e6;  // 100 pps
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  OnOffShaper shaper(simulator, cbr, sim::SimTime::seconds(1),
                     sim::SimTime::seconds(3));
  shaper.start();
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(40));
  // Duty cycle 25%: ~1000 packets instead of ~4000.
  EXPECT_NEAR(static_cast<double>(cbr.packets_sent()), 1000.0, 120.0);
  // Bursts begin at t = 0, 4, ..., 40 — the one at the horizon still fires.
  EXPECT_EQ(shaper.bursts_started(), 11u);
}

TEST_F(TrafficFixture, FollowerStopsAfterDelayAndResumes) {
  CbrParams params;
  params.rate_bps = 0.8e6;
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  FollowerShaper follower(simulator, cbr, sim::SimTime::seconds(1));
  cbr.start();
  simulator.run_until(sim::SimTime::seconds(2));

  follower.on_target_honeypot_start();
  simulator.run_until(sim::SimTime::seconds(2.5));
  EXPECT_FALSE(cbr.paused());  // still inside d_follow
  simulator.run_until(sim::SimTime::seconds(3.5));
  EXPECT_TRUE(cbr.paused());   // went quiet after d_follow
  EXPECT_EQ(follower.evasions(), 1u);

  follower.on_target_honeypot_end();
  EXPECT_FALSE(cbr.paused());
}

TEST_F(TrafficFixture, FollowerIgnoresStalePauseAfterEpochEnd) {
  CbrParams params;
  params.rate_bps = 0.8e6;
  CbrSource cbr(simulator, *src, rng, params,
                [this] { return dst->address(); });
  FollowerShaper follower(simulator, cbr, sim::SimTime::seconds(2));
  cbr.start();
  follower.on_target_honeypot_start();
  simulator.run_until(sim::SimTime::seconds(1));
  follower.on_target_honeypot_end();  // epoch ended before d_follow
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_FALSE(cbr.paused());
  EXPECT_EQ(follower.evasions(), 0u);
}

TEST_F(TrafficFixture, ProbeSourcePoissonCount) {
  ProbeSource probe(simulator, *src, rng, {dst->address()}, 10.0,
                    sim::SimTime::zero(), sim::SimTime::seconds(100));
  probe.start();
  simulator.run_until(sim::SimTime::seconds(100));
  // ~1000 probes expected; Poisson sd ~32.
  EXPECT_NEAR(static_cast<double>(probe.probes_sent()), 1000.0, 150.0);
}

TEST_F(TrafficFixture, ProbePacketsAreBenignType) {
  sim::PacketType seen = sim::PacketType::kData;
  bool attack = true;
  auto on_packet = [&](const sim::Packet& p) {
    seen = p.type;
    attack = p.is_attack;
  };
  dst->set_receiver(on_packet);
  ProbeSource probe(simulator, *src, rng, {dst->address()}, 100.0,
                    sim::SimTime::zero(), sim::SimTime::seconds(5));
  probe.start();
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_EQ(seen, sim::PacketType::kProbe);
  EXPECT_FALSE(attack);
}

}  // namespace
}  // namespace hbp::traffic
