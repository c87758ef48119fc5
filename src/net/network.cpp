#include "net/network.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::net {

std::pair<int, int> Network::connect(sim::NodeId a, sim::NodeId b,
                                     const LinkParams& a_to_b,
                                     const LinkParams& b_to_a) {
  HBP_ASSERT(a != b);
  Node& na = node(a);
  Node& nb = node(b);
  const int port_a = static_cast<int>(na.neighbors_.size());
  const int port_b = static_cast<int>(nb.neighbors_.size());
  na.neighbors_.push_back(b);
  nb.neighbors_.push_back(a);
  links_[static_cast<std::size_t>(a)].push_back(
      std::make_unique<Link>(simulator_, *this, a, b, port_b, a_to_b));
  links_[static_cast<std::size_t>(b)].push_back(
      std::make_unique<Link>(simulator_, *this, b, a, port_a, b_to_a));
  routes_valid_ = false;
  return {port_a, port_b};
}

sim::Address Network::assign_address(sim::NodeId node_id) {
  addr_to_node_.push_back(node_id);
  routes_valid_ = false;
  return static_cast<sim::Address>(addr_to_node_.size());  // addresses start at 1
}

sim::NodeId Network::node_of(sim::Address a) const {
  HBP_ASSERT(a >= 1 && a <= addr_to_node_.size());
  return addr_to_node_[a - 1];
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  const std::size_t m = addr_to_node_.size();

  adj_begin_.assign(n + 1, 0);
  adj_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    const Node& nu = *nodes_[u];
    HBP_ASSERT_MSG(nu.port_count() <= INT16_MAX, "port index must fit int16");
    for (std::size_t port = 0; port < nu.port_count(); ++port) {
      adj_.push_back({nu.neighbor(port),
                      static_cast<std::int16_t>(links_[u][port]->to_port())});
    }
    adj_begin_[u + 1] = static_cast<std::uint32_t>(adj_.size());
  }

  column_of_.assign(m, -1);
  // Default-initialised: pages of columns never built are never touched.
  routes_.reset(new std::int16_t[n * m]);
  columns_built_ = 0;
  bfs_queue_.resize(n);
  route_nodes_ = n;
  routes_valid_ = true;
}

std::int32_t Network::build_column(std::size_t ai) const {
  const std::size_t n = route_nodes_;
  const std::int32_t slot = columns_built_++;
  std::int16_t* col = routes_.get() + static_cast<std::size_t>(slot) * n;
  std::fill(col, col + n, std::int16_t{-1});

  // One BFS rooted at the destination host.  The next hop from v toward the
  // root is v's BFS parent u; v's out-port is the peer port of the first
  // port of u that reaches v.  connect() numbers the ports of both ends in
  // call order, so that is also v's first port to u (parallel links).
  // A node is visited once its entry is not -1; the root is marked -2
  // while the search runs.
  const sim::NodeId root = addr_to_node_[ai];
  col[root] = -2;
  std::size_t head = 0;
  std::size_t tail = 0;
  bfs_queue_[tail++] = root;
  while (head < tail) {
    const sim::NodeId u = bfs_queue_[head++];
    for (std::uint32_t i = adj_begin_[static_cast<std::size_t>(u)];
         i < adj_begin_[static_cast<std::size_t>(u) + 1]; ++i) {
      const PortPeer& e = adj_[i];
      if (col[e.node] != -1) continue;
      col[e.node] = e.peer_port;
      bfs_queue_[tail++] = e.node;
    }
  }
  col[root] = -1;
  column_of_[ai] = slot;
  return slot;
}

int Network::route_port(sim::NodeId from, sim::Address dst) const {
  HBP_ASSERT_MSG(routes_valid_, "compute_routes() must run before forwarding");
  HBP_ASSERT(dst >= 1 && dst <= addr_to_node_.size());
  HBP_ASSERT(from >= 0 && static_cast<std::size_t>(from) < route_nodes_);
  std::int32_t slot = column_of_[dst - 1];
  if (slot < 0) slot = build_column(dst - 1);
  return routes_[static_cast<std::size_t>(slot) * route_nodes_ +
                 static_cast<std::size_t>(from)];
}

int Network::hop_distance(sim::NodeId from, sim::Address dst) const {
  const sim::NodeId to = node_of(dst);
  int hops = 0;
  for (sim::NodeId at = from; at != to; ++hops) {
    const int port = route_port(at, dst);
    if (port < 0) return -1;
    at = node(at).neighbor(static_cast<std::size_t>(port));
  }
  return hops;
}

void Network::transmit(sim::NodeId from, int port, sim::Packet&& p) {
  HBP_ASSERT(port >= 0 &&
             static_cast<std::size_t>(port) < links_[static_cast<std::size_t>(from)].size());
  ++counters_.transmitted;
  links_[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)]->send(
      std::move(p));
}

void Network::deliver(sim::NodeId to, sim::Packet&& p, int in_port) {
  ++counters_.delivered;
  simulator_.record({simulator_.now(), sim::TraceVerb::kDeliver, to,
                     p.uid, 0, in_port, -1});
  node(to).receive(std::move(p), in_port);
}

void Network::drop_ttl(const sim::Packet& p, sim::NodeId at) {
  ++counters_.dropped_ttl;
  simulator_.record(
      {simulator_.now(), sim::TraceVerb::kTtlDrop, at, p.uid, 0, -1, -1});
}

void Network::drop_filter(const sim::Packet& p, sim::NodeId at) {
  ++counters_.dropped_filter;
  simulator_.record(
      {simulator_.now(), sim::TraceVerb::kFilterDrop, at, p.uid, 0, -1, -1});
}

std::uint64_t Network::total_queue_drops() const {
  std::uint64_t total = 0;
  for (const auto& node_links : links_) {
    for (const auto& link : node_links) {
      total += link->queue().drops();
    }
  }
  return total;
}

void Network::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("net.packets.transmitted").add(counters_.transmitted);
  registry.counter("net.packets.delivered").add(counters_.delivered);
  registry.counter("net.packets.dropped_ttl").add(counters_.dropped_ttl);
  registry.counter("net.packets.dropped_filter").add(counters_.dropped_filter);
  registry.counter("net.queue.drops").add(total_queue_drops());

  auto& peak_hist = registry.histogram("net.queue.peak_bytes");
  auto& drop_hist = registry.histogram("net.queue.drops_per_queue");
  for (std::size_t n = 0; n < links_.size(); ++n) {
    for (std::size_t port = 0; port < links_[n].size(); ++port) {
      const PacketQueue& q = links_[n][port]->queue();
      peak_hist.record(static_cast<std::uint64_t>(q.peak_bytes()));
      if (q.drops() == 0) continue;
      drop_hist.record(q.drops());
      const std::string prefix = "net.queue." + nodes_[n]->name() + ":" +
                                 std::to_string(port);
      registry.counter(prefix + ".drops").add(q.drops());
      registry.counter(prefix + ".accepted").add(q.accepted());
      registry.gauge(prefix + ".peak_bytes")
          .set(static_cast<double>(q.peak_bytes()));
    }
  }
}

}  // namespace hbp::net
