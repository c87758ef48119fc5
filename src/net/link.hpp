// A unidirectional link: output queue + serialization at `capacity_bps` +
// fixed propagation delay.  Network::connect() creates one per direction.
#pragma once

#include <cstdint>
#include <memory>

#include "net/queue.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hbp::net {

struct LinkParams {
  double capacity_bps = 10e6;
  sim::SimTime delay = sim::SimTime::millis(1);
  std::int64_t queue_bytes = 64'000;
  // Optional custom queue; when unset a DropTailQueue(queue_bytes) is used.
  QueueFactory queue_factory;
};

class Network;

class Link {
 public:
  Link(sim::Simulator& simulator, Network& network, sim::NodeId from_node,
       sim::NodeId to_node, int to_port, const LinkParams& params);

  // Hands a packet to the link; it is queued and serialized in order.
  void send(sim::Packet&& p);

  // Port on the receiving node at which this link's packets arrive.
  int to_port() const { return to_port_; }
  double capacity_bps() const { return capacity_bps_; }
  sim::SimTime delay() const { return delay_; }
  PacketQueue& queue() { return *queue_; }
  const PacketQueue& queue() const { return *queue_; }

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

 private:
  void start_transmission();

  sim::Simulator& simulator_;
  Network& network_;
  sim::NodeId from_node_;
  sim::NodeId to_node_;
  int to_port_;
  double capacity_bps_;
  sim::SimTime delay_;
  std::unique_ptr<PacketQueue> queue_;
  bool transmitting_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace hbp::net
