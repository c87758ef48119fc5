// The Network owns every node and link, assigns addresses, computes static
// shortest-path routes, and moves packets between links and nodes.
//
// Routing is recomputed once after topology construction (the paper's
// scenarios are static trees); routers then answer next-hop lookups in O(1).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace hbp::telemetry {
class Registry;
}

namespace hbp::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  sim::Simulator& simulator() { return simulator_; }

  // --- topology construction ---

  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *node;
    node->id_ = static_cast<sim::NodeId>(nodes_.size());
    node->network_ = this;
    nodes_.push_back(std::move(node));
    links_.emplace_back();
    return ref;
  }

  // Creates a bidirectional connection; returns the (port on a, port on b).
  std::pair<int, int> connect(sim::NodeId a, sim::NodeId b,
                              const LinkParams& a_to_b, const LinkParams& b_to_a);
  std::pair<int, int> connect(sim::NodeId a, sim::NodeId b,
                              const LinkParams& both) {
    return connect(a, b, both, both);
  }

  // Assigns the next free address to `node` (hosts only).
  sim::Address assign_address(sim::NodeId node);

  // Computes next-hop routing tables for all currently assigned addresses.
  // Must be called after the topology is final and before traffic starts.
  void compute_routes();

  // --- lookups ---

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(sim::NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(sim::NodeId id) const {
    return *nodes_[static_cast<std::size_t>(id)];
  }

  sim::NodeId node_of(sim::Address a) const;
  std::size_t address_count() const { return addr_to_node_.size(); }

  // Out-port of `from` toward address `dst`, or -1 if unreachable.
  int route_port(sim::NodeId from, sim::Address dst) const;

  // Hop distance between a node and an address (router hops + host links),
  // found by walking route_port() hop by hop; -1 if unreachable.  For tests
  // and diagnostics, not the packet path.
  int hop_distance(sim::NodeId from, sim::Address dst) const;

  Link& link(sim::NodeId from, int port) {
    return *links_[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)];
  }
  const Link& link(sim::NodeId from, int port) const {
    return *links_[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)];
  }
  std::size_t link_count(sim::NodeId from) const {
    return links_[static_cast<std::size_t>(from)].size();
  }

  // --- data plane ---

  // Called by nodes to emit a packet on one of their ports.
  void transmit(sim::NodeId from, int port, sim::Packet&& p);

  // Called by links when a packet finishes propagation.
  void deliver(sim::NodeId to, sim::Packet&& p, int in_port);

  // Drop accounting entry points: count the drop and fold it into the run's
  // trace digest.  Routers call these instead of touching counters directly
  // so every terminal packet fate is fingerprinted.
  void drop_ttl(const sim::Packet& p, sim::NodeId at);
  void drop_filter(const sim::Packet& p, sim::NodeId at);

  std::uint64_t next_packet_uid() { return ++uid_counter_; }

  // --- global accounting ---

  struct Counters {
    std::uint64_t transmitted = 0;     // packets handed to links
    std::uint64_t delivered = 0;       // link->node deliveries
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_filter = 0;  // dropped by router filters/blocks
    std::uint64_t dropped_queue = 0;   // computed lazily from queues
  };
  Counters& counters() { return counters_; }
  // Sums queue drops over all links into counters().dropped_queue.
  std::uint64_t total_queue_drops() const;

  // End-of-run snapshot into the registry: global packet counters,
  // aggregate queue histograms, and per-queue drop/occupancy series for
  // every queue that dropped at least one packet ("net.queue.<node>:<port>"
  // — lossless queues are summarised only in the aggregates to bound the
  // export size).  Purely passive; never called on the hot path.
  void export_telemetry(telemetry::Registry& registry) const;

 private:
  sim::Simulator& simulator_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<std::unique_ptr<Link>>> links_;  // [node][port]
  std::vector<sim::NodeId> addr_to_node_;  // index == address - 1
  // routes_[node][address - 1] = out port toward that address (-1 none).
  std::vector<std::vector<std::int32_t>> routes_;
  bool routes_valid_ = false;
  std::uint64_t uid_counter_ = 0;
  Counters counters_;
};

}  // namespace hbp::net
