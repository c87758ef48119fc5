#include "net/network.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/router.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"
#include "topo/string_topo.hpp"
#include "topo/tree.hpp"
#include "util/rng.hpp"

namespace hbp::net {
namespace {

struct TwoHostsFixture : public ::testing::Test {
  // host_a -- router -- host_b, 8 Mb/s, 1 ms per link.
  void SetUp() override {
    router = &network.add_node<Router>("r");
    a = &network.add_node<Host>("a");
    b = &network.add_node<Host>("b");
    LinkParams link;
    link.capacity_bps = 8e6;
    link.delay = sim::SimTime::millis(1);
    network.connect(a->id(), router->id(), link);
    network.connect(router->id(), b->id(), link);
    a->set_address(network.assign_address(a->id()));
    b->set_address(network.assign_address(b->id()));
    network.compute_routes();
  }

  sim::Packet make_packet(sim::Address dst, std::int32_t bytes = 1000) {
    sim::Packet p;
    p.dst = dst;
    p.size_bytes = bytes;
    return p;
  }

  sim::Simulator simulator;
  Network network{simulator};
  Router* router = nullptr;
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST_F(TwoHostsFixture, EndToEndDelivery) {
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(b->packets_received(), 1u);
  EXPECT_EQ(b->bytes_received(), 1000u);
}

TEST_F(TwoHostsFixture, DeliveryTimingExact) {
  // 1000 B at 8 Mb/s = 1 ms serialization + 1 ms propagation per link,
  // two links => 4 ms.
  sim::SimTime arrival = sim::SimTime::zero();
  auto on_packet = [&](const sim::Packet&) { arrival = simulator.now(); };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(arrival, sim::SimTime::millis(4));
}

TEST_F(TwoHostsFixture, SerializationQueuesBackToBack) {
  // Two packets sent at t=0: the second waits 1 ms behind the first at the
  // host's uplink, arriving 1 ms later.
  std::vector<sim::SimTime> arrivals;
  auto on_packet = [&](const sim::Packet&) { arrivals.push_back(simulator.now()); };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::SimTime::millis(1));
}

TEST_F(TwoHostsFixture, GroundTruthOriginStamped) {
  sim::NodeId origin = sim::kInvalidNode;
  auto on_packet = [&](const sim::Packet& p) { origin = p.origin_node; };
  b->set_receiver(on_packet);
  sim::Packet p = make_packet(b->address());
  p.src = 0xdeadbeef;  // spoofed: origin must still be the real sender
  a->send(std::move(p));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(origin, a->id());
}

TEST_F(TwoHostsFixture, TtlExpiryDropsPacket) {
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  sim::Packet p = make_packet(b->address());
  p.ttl = 0;
  a->send(std::move(p));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.counters().dropped_ttl, 1u);
}

TEST_F(TwoHostsFixture, MisdeliveredPacketIgnoredByHost) {
  // dst = a's address sent by a itself: router returns it to a? No — route
  // to a goes back out port 0; a receives own packet. Send to an address
  // that belongs to nobody else: host b must ignore packets not addressed
  // to it.
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  a->send(make_packet(a->address()));  // loops back to a, not b
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 0);
}

TEST_F(TwoHostsFixture, HopDistance) {
  EXPECT_EQ(network.hop_distance(a->id(), b->address()), 2);
  EXPECT_EQ(network.hop_distance(router->id(), b->address()), 1);
  EXPECT_EQ(network.hop_distance(b->id(), b->address()), 0);

  // A tree input, plus an island host that no route reaches: top has
  // children r1 and r2, r1 has hosts h1 and h2, r2 has host h3.
  Network tree(simulator);
  auto& top = tree.add_node<Router>("top");
  auto& r1 = tree.add_node<Router>("r1");
  auto& r2 = tree.add_node<Router>("r2");
  auto& h1 = tree.add_node<Host>("h1");
  auto& h2 = tree.add_node<Host>("h2");
  auto& h3 = tree.add_node<Host>("h3");
  auto& island = tree.add_node<Host>("island");
  tree.connect(top.id(), r1.id(), LinkParams{});
  tree.connect(top.id(), r2.id(), LinkParams{});
  tree.connect(r1.id(), h1.id(), LinkParams{});
  tree.connect(r1.id(), h2.id(), LinkParams{});
  tree.connect(r2.id(), h3.id(), LinkParams{});
  for (Host* h : {&h1, &h2, &h3, &island}) {
    h->set_address(tree.assign_address(h->id()));
  }
  tree.compute_routes();
  EXPECT_EQ(tree.hop_distance(h1.id(), h3.address()), 4);
  EXPECT_EQ(tree.hop_distance(h1.id(), h2.address()), 2);
  EXPECT_EQ(tree.hop_distance(top.id(), h1.address()), 2);
  EXPECT_EQ(tree.hop_distance(r2.id(), h3.address()), 1);
  EXPECT_EQ(tree.hop_distance(h3.id(), h3.address()), 0);
  EXPECT_EQ(tree.hop_distance(h1.id(), island.address()), -1);
  EXPECT_EQ(tree.hop_distance(island.id(), h1.address()), -1);
}

TEST_F(TwoHostsFixture, CountersConserve) {
  auto on_packet = [](const sim::Packet&) {};
  b->set_receiver(on_packet);
  for (int i = 0; i < 10; ++i) a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  const auto& c = network.counters();
  // Every transmission is eventually delivered or dropped somewhere.
  EXPECT_EQ(c.delivered + c.dropped_ttl + c.dropped_filter +
                network.total_queue_drops(),
            c.transmitted);
}

TEST(Network, QueueOverflowDropsAreCounted) {
  sim::Simulator simulator;
  Network network(simulator);
  auto& a = network.add_node<Host>("a");
  auto& b = network.add_node<Host>("b");
  LinkParams slow;
  slow.capacity_bps = 80'000;  // 100 ms per 1000 B packet
  slow.delay = sim::SimTime::millis(1);
  slow.queue_bytes = 2'000;  // two packets
  network.connect(a.id(), b.id(), slow);
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();

  for (int i = 0; i < 10; ++i) {
    sim::Packet p;
    p.dst = b.address();
    p.size_bytes = 1000;
    a.send(std::move(p));
  }
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_GT(network.total_queue_drops(), 0u);
  EXPECT_LT(b.packets_received(), 10u);
  EXPECT_EQ(b.packets_received() + network.total_queue_drops(), 10u);
}

TEST(Network, PortNumberingIsSymmetric) {
  sim::Simulator simulator;
  Network network(simulator);
  auto& x = network.add_node<Router>("x");
  auto& y = network.add_node<Router>("y");
  auto& z = network.add_node<Router>("z");
  const auto [xy_x, xy_y] = network.connect(x.id(), y.id(), LinkParams{});
  const auto [xz_x, xz_z] = network.connect(x.id(), z.id(), LinkParams{});
  EXPECT_EQ(xy_x, 0);
  EXPECT_EQ(xy_y, 0);
  EXPECT_EQ(xz_x, 1);
  EXPECT_EQ(xz_z, 0);
  EXPECT_EQ(x.neighbor(0), y.id());
  EXPECT_EQ(x.neighbor(1), z.id());
  EXPECT_EQ(y.neighbor(0), x.id());
}

TEST(Network, RoutesPickShortestPath) {
  // Diamond: a - r1 - r2 - b and a - r1 - r3 - r4 - b; shortest wins.
  sim::Simulator simulator;
  Network network(simulator);
  auto& r1 = network.add_node<Router>("r1");
  auto& r2 = network.add_node<Router>("r2");
  auto& r3 = network.add_node<Router>("r3");
  auto& r4 = network.add_node<Router>("r4");
  auto& a = network.add_node<Host>("a");
  auto& b = network.add_node<Host>("b");
  network.connect(a.id(), r1.id(), LinkParams{});
  network.connect(r1.id(), r2.id(), LinkParams{});
  network.connect(r1.id(), r3.id(), LinkParams{});
  network.connect(r3.id(), r4.id(), LinkParams{});
  network.connect(r2.id(), b.id(), LinkParams{});
  network.connect(r4.id(), b.id(), LinkParams{});
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();
  EXPECT_EQ(network.hop_distance(a.id(), b.address()), 3);
  // r1's port toward b is the r2 port (shorter branch).
  const int port = network.route_port(r1.id(), b.address());
  EXPECT_EQ(r1.neighbor(static_cast<std::size_t>(port)), r2.id());
}

// --- lazy routes against an eager oracle ---
//
// eager_routes is the all-pairs routing Network used to build up front:
// one BFS per destination, neighbours in port order, and v's out-port is
// the first port of v that reaches its BFS parent.  The lazy route_port
// must agree with it on every (node, destination) pair, asked in random
// order so columns are built in every order.

std::vector<std::vector<int>> eager_routes(const Network& network) {
  const std::size_t n = network.node_count();
  const std::size_t m = network.address_count();
  std::vector<std::vector<int>> routes(n, std::vector<int>(m, -1));
  std::vector<int> dist(n);
  std::deque<sim::NodeId> frontier;
  for (std::size_t ai = 0; ai < m; ++ai) {
    const sim::NodeId root = network.node_of(static_cast<sim::Address>(ai + 1));
    dist.assign(n, -1);
    dist[static_cast<std::size_t>(root)] = 0;
    frontier.assign(1, root);
    while (!frontier.empty()) {
      const sim::NodeId u = frontier.front();
      frontier.pop_front();
      const Node& nu = network.node(u);
      for (std::size_t port = 0; port < nu.port_count(); ++port) {
        const sim::NodeId v = nu.neighbor(port);
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        const Node& nv = network.node(v);
        for (std::size_t vport = 0; vport < nv.port_count(); ++vport) {
          if (nv.neighbor(vport) == u) {
            routes[static_cast<std::size_t>(v)][ai] = static_cast<int>(vport);
            break;
          }
        }
        frontier.push_back(v);
      }
    }
  }
  return routes;
}

void expect_lazy_matches_eager(const Network& network, util::Rng& order_rng) {
  const auto eager = eager_routes(network);
  std::vector<std::pair<sim::NodeId, sim::Address>> pairs;
  for (std::size_t v = 0; v < network.node_count(); ++v) {
    for (std::size_t a = 1; a <= network.address_count(); ++a) {
      pairs.emplace_back(static_cast<sim::NodeId>(v),
                         static_cast<sim::Address>(a));
    }
  }
  order_rng.shuffle(pairs);
  for (const auto& [v, a] : pairs) {
    ASSERT_EQ(network.route_port(v, a),
              eager[static_cast<std::size_t>(v)][a - 1])
        << "node " << v << " toward address " << a;
  }
}

TEST(LazyRoutes, MatchEagerOnStrings) {
  util::Rng order(1);
  for (const int hops : {1, 2, 5, 10}) {
    for (const bool with_client : {false, true}) {
      sim::Simulator simulator;
      Network network(simulator);
      topo::StringParams params;
      params.hops = hops;
      params.with_client = with_client;
      topo::build_string(network, params);
      network.compute_routes();
      expect_lazy_matches_eager(network, order);
    }
  }
}

TEST(LazyRoutes, MatchEagerOnTrees) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    sim::Simulator simulator;
    Network network(simulator);
    util::Rng topo_rng(seed);
    topo::TreeParams params;
    params.leaf_count = 60;
    params.hosts_per_access = seed % 2 == 0 ? 3 : 1;
    topo::build_tree(network, topo_rng, params);
    network.compute_routes();
    util::Rng order(seed);
    expect_lazy_matches_eager(network, order);
  }
}

// A random connected graph: a random spanning tree plus extra edges, some
// of them parallel links between an already connected pair.  Every fourth
// node is a host with an address.
void build_random_graph(Network& network, util::Rng& rng, std::size_t n) {
  std::vector<sim::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      ids.push_back(network.add_node<Host>("h" + std::to_string(i)).id());
    } else {
      ids.push_back(network.add_node<Router>("r" + std::to_string(i)).id());
    }
  }
  std::vector<std::pair<sim::NodeId, sim::NodeId>> edges;
  for (std::size_t i = 1; i < n; ++i) {
    const sim::NodeId parent = ids[rng.below(i)];
    network.connect(ids[i], parent, LinkParams{});
    edges.emplace_back(ids[i], parent);
  }
  for (std::size_t extra = 0; extra < n; ++extra) {
    if (rng.bernoulli(0.3)) {
      // A parallel link, from either end of an existing one.
      const auto [a, b] = edges[rng.below(edges.size())];
      if (rng.bernoulli(0.5)) {
        network.connect(a, b, LinkParams{});
      } else {
        network.connect(b, a, LinkParams{});
      }
      continue;
    }
    const sim::NodeId a = ids[rng.below(n)];
    const sim::NodeId b = ids[rng.below(n)];
    if (a == b) continue;
    network.connect(a, b, LinkParams{});
    edges.emplace_back(a, b);
  }
  for (std::size_t i = 3; i < n; i += 4) {
    static_cast<Host&>(network.node(ids[i]))
        .set_address(network.assign_address(ids[i]));
  }
}

TEST(LazyRoutes, MatchEagerOnRandomGraphsWithParallelLinks) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    sim::Simulator simulator;
    Network network(simulator);
    util::Rng rng(seed);
    build_random_graph(network, rng, 20 + 10 * (seed % 4));
    network.compute_routes();
    expect_lazy_matches_eager(network, rng);
  }
}

TEST(LazyRoutes, ParallelLinksUseTheFirstPort) {
  // x has links 0 and 1 to y; z hangs off y.  Both toward z and toward y,
  // x uses its first link, and y answers x on its first port back.
  sim::Simulator simulator;
  Network network(simulator);
  auto& x = network.add_node<Host>("x");
  auto& y = network.add_node<Router>("y");
  auto& z = network.add_node<Host>("z");
  network.connect(x.id(), y.id(), LinkParams{});
  network.connect(y.id(), x.id(), LinkParams{});
  network.connect(y.id(), z.id(), LinkParams{});
  x.set_address(network.assign_address(x.id()));
  z.set_address(network.assign_address(z.id()));
  network.compute_routes();
  EXPECT_EQ(network.route_port(x.id(), z.address()), 0);
  EXPECT_EQ(network.route_port(y.id(), x.address()), 0);
  EXPECT_EQ(network.route_port(y.id(), z.address()), 2);
  util::Rng order(3);
  expect_lazy_matches_eager(network, order);
}

TEST(LazyRoutes, RecomputeAfterAddingAHost) {
  // As the tree experiment does for its TCP download servers: routes are
  // prepared, some columns are built, then a host joins and routes are
  // prepared again.
  sim::Simulator simulator;
  Network network(simulator);
  util::Rng rng(21);
  build_random_graph(network, rng, 40);
  network.compute_routes();
  expect_lazy_matches_eager(network, rng);
  for (int added = 0; added < 3; ++added) {
    auto& late = network.add_node<Host>("late" + std::to_string(added));
    network.connect(late.id(), static_cast<sim::NodeId>(rng.below(40)),
                    LinkParams{});
    late.set_address(network.assign_address(late.id()));
    network.compute_routes();
    expect_lazy_matches_eager(network, rng);
  }
}

}  // namespace
}  // namespace hbp::net
