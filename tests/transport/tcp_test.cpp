#include "transport/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "net/network.hpp"
#include "net/router.hpp"

namespace hbp::transport {
namespace {

// A filter that drops every Nth matching packet — loss injection.
class PeriodicDropper : public net::PacketFilter {
 public:
  PeriodicDropper(sim::PacketType type, int period)
      : type_(type), period_(period) {}
  net::FilterAction on_packet(const sim::Packet& p, int) override {
    if (p.type != type_) return net::FilterAction::kPass;
    if (++count_ % period_ == 0) {
      ++dropped_;
      return net::FilterAction::kDrop;
    }
    return net::FilterAction::kPass;
  }
  int dropped() const { return dropped_; }

 private:
  sim::PacketType type_;
  int period_;
  int count_ = 0;
  int dropped_ = 0;
};

struct TcpFixture : public ::testing::Test {
  void SetUp() override { build(8e6, sim::SimTime::millis(5), 64'000); }

  void build(double bps, sim::SimTime delay, std::int64_t queue_bytes) {
    simulator = std::make_unique<sim::Simulator>();
    network = std::make_unique<net::Network>(*simulator);
    router = &network->add_node<net::Router>("r");
    client = &network->add_node<net::Host>("client");
    server = &network->add_node<net::Host>("server");
    net::LinkParams link;
    link.capacity_bps = bps;
    link.delay = delay;
    link.queue_bytes = queue_bytes;
    network->connect(client->id(), router->id(), link);
    network->connect(router->id(), server->id(), link);
    client->set_address(network->assign_address(client->id()));
    server->set_address(network->assign_address(server->id()));
    network->compute_routes();

    sender = std::make_unique<TcpSender>(*simulator, *client);
    receiver = std::make_unique<TcpReceiver>(*simulator, *server);
    receiver->attach();
  }

  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::Network> network;
  net::Router* router = nullptr;
  net::Host* client = nullptr;
  net::Host* server = nullptr;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
};

TEST_F(TcpFixture, HandshakeEstablishes) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(1));
  EXPECT_TRUE(sender->established());
  EXPECT_EQ(sender->handshakes(), 1u);
}

TEST_F(TcpFixture, BulkTransferSaturatesLink) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(20));
  // 8 Mb/s for ~20 s = ~20 MB; allow slow-start ramp and header overhead.
  const double goodput_bps =
      static_cast<double>(receiver->total_bytes_delivered()) * 8.0 / 20.0;
  EXPECT_GT(goodput_bps, 0.85 * 8e6);
  // ACKs still in flight: acked <= delivered, within one window.
  EXPECT_LE(sender->bytes_acked(), receiver->total_bytes_delivered());
  EXPECT_GT(sender->bytes_acked(), receiver->total_bytes_delivered() - 200'000);
}

TEST_F(TcpFixture, SlowStartGrowsExponentially) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::millis(120));  // a few RTTs (RTT=20ms)
  EXPECT_GT(sender->cwnd_segments(), 8.0);
}

TEST_F(TcpFixture, RecoversFromPeriodicDataLoss) {
  PeriodicDropper dropper(sim::PacketType::kTcpData, 50);
  router->add_filter(&dropper);
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(30));
  router->remove_filter(&dropper);
  EXPECT_GT(dropper.dropped(), 5);
  EXPECT_GT(sender->retransmits(), 0u);
  // Stream stays contiguous despite losses.
  EXPECT_LE(sender->bytes_acked(), receiver->total_bytes_delivered());
  EXPECT_GT(receiver->total_bytes_delivered(), 1'000'000);
}

TEST_F(TcpFixture, RecoversFromAckPathLoss) {
  // The paper's quoted damage mode: ACKs dropped on the reverse path.
  PeriodicDropper dropper(sim::PacketType::kTcpAck, 10);
  router->add_filter(&dropper);
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(30));
  router->remove_filter(&dropper);
  // Cumulative ACKs absorb individual losses; transfer keeps progressing.
  EXPECT_GT(receiver->total_bytes_delivered(), 1'000'000);
}

TEST_F(TcpFixture, HeavyAckLossDegradesThroughput) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(10));
  const auto clean = receiver->total_bytes_delivered();

  build(8e6, sim::SimTime::millis(5), 64'000);  // fresh network
  PeriodicDropper dropper(sim::PacketType::kTcpAck, 2);  // 50% ACK loss
  router->add_filter(&dropper);
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(10));
  router->remove_filter(&dropper);
  EXPECT_LT(receiver->total_bytes_delivered(), clean);
}

TEST_F(TcpFixture, RtoRecoversFromBlackout) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(2));
  const auto before = receiver->total_bytes_delivered();

  // Total blackout for 3 seconds.
  PeriodicDropper dropper(sim::PacketType::kTcpData, 1);
  PeriodicDropper ack_dropper(sim::PacketType::kTcpAck, 1);
  router->add_filter(&dropper);
  router->add_filter(&ack_dropper);
  simulator->run_until(sim::SimTime::seconds(5));
  router->remove_filter(&dropper);
  router->remove_filter(&ack_dropper);

  simulator->run_until(sim::SimTime::seconds(10));
  EXPECT_GT(sender->timeouts(), 0u);
  EXPECT_GT(receiver->total_bytes_delivered(), before);
  EXPECT_LE(sender->bytes_acked(), receiver->total_bytes_delivered());
}

TEST_F(TcpFixture, MigrationRestartsSlowStartButKeepsProgress) {
  // Second server to migrate to.
  auto& server2 = network->add_node<net::Host>("server2");
  net::LinkParams link;
  link.capacity_bps = 8e6;
  link.delay = sim::SimTime::millis(5);
  network->connect(router->id(), server2.id(), link);
  server2.set_address(network->assign_address(server2.id()));
  network->compute_routes();
  TcpReceiver receiver2(*simulator, server2);
  receiver2.attach();

  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(5));
  const auto progress = sender->bytes_acked();
  const double cwnd_before = sender->cwnd_segments();
  EXPECT_GT(cwnd_before, 8.0);

  sender->connect(server2.address());  // roaming migration
  EXPECT_LT(sender->cwnd_segments(), 3.0);  // slow-start restart
  simulator->run_until(sim::SimTime::seconds(10));
  EXPECT_GT(sender->bytes_acked(), progress);  // stream continues
  EXPECT_EQ(sender->handshakes(), 2u);
}

TEST_F(TcpFixture, RttEstimateTracksPathDelay) {
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(5));
  // Two 5 ms links each way: RTT >= 20 ms plus serialization/queueing.
  EXPECT_GT(sender->srtt_seconds(), 0.019);
  EXPECT_LT(sender->srtt_seconds(), 0.5);
}

TEST_F(TcpFixture, SynLossRetried) {
  PeriodicDropper dropper(sim::PacketType::kTcpSyn, 1);  // drop every SYN
  router->add_filter(&dropper);
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(3));
  EXPECT_FALSE(sender->established());
  router->remove_filter(&dropper);
  simulator->run_until(sim::SimTime::seconds(20));
  EXPECT_TRUE(sender->established());
  EXPECT_GT(sender->handshakes(), 1u);
}

TEST_F(TcpFixture, TwoSendersShareOneReceiver) {
  auto& client2 = network->add_node<net::Host>("client2");
  net::LinkParams link;
  link.capacity_bps = 8e6;
  link.delay = sim::SimTime::millis(5);
  network->connect(client2.id(), router->id(), link);
  client2.set_address(network->assign_address(client2.id()));
  network->compute_routes();
  TcpSender sender2(*simulator, client2);

  sender->connect(server->address());
  sender2.connect(server->address());
  simulator->run_until(sim::SimTime::seconds(10));
  EXPECT_GT(receiver->bytes_delivered(client->address()), 0);
  EXPECT_GT(receiver->bytes_delivered(client2.address()), 0);
  EXPECT_EQ(receiver->total_bytes_delivered(),
            receiver->bytes_delivered(client->address()) +
                receiver->bytes_delivered(client2.address()));
}

// Events cannot be cancelled: every ACK that re-arms the retransmit timer
// leaves the previous timer event pending, and it still fires.  Over a
// loss-free transfer those stale firings must all be no-ops.
TEST_F(TcpFixture, StaleRetransmitTimersFireAsNoOps) {
  build(8e6, sim::SimTime::millis(5), 10'000'000);  // queue never overflows
  simulator->enable_profiling();
  sender->connect(server->address());
  simulator->run_until(sim::SimTime::seconds(12));
  EXPECT_GT(receiver->total_bytes_delivered(), 5'000'000);
  EXPECT_EQ(sender->retransmits(), 0u);  // nothing was lost
  EXPECT_EQ(sender->timeouts(), 0u);
  std::uint64_t rto_dispatches = 0;
  for (const auto& stats : simulator->profiler()->by_type()) {
    if (std::string_view(stats.label) == "transport.tcp.rto") {
      rto_dispatches = stats.count;
    }
  }
  EXPECT_GT(rto_dispatches, 0u);
}

}  // namespace
}  // namespace hbp::transport
