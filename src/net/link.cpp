#include "net/link.hpp"

#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::net {

Link::Link(sim::Simulator& simulator, Network& network, sim::NodeId from_node,
           sim::NodeId to_node, int to_port, const LinkParams& params)
    : simulator_(simulator),
      network_(network),
      from_node_(from_node),
      to_node_(to_node),
      to_port_(to_port),
      capacity_bps_(params.capacity_bps),
      delay_(params.delay) {
  HBP_ASSERT(params.capacity_bps > 0);
  if (params.queue_factory) {
    queue_ = params.queue_factory();
  } else {
    queue_ = std::make_unique<DropTailQueue>(params.queue_bytes);
  }
}

void Link::send(sim::Packet&& p) {
  const std::uint64_t uid = p.uid;
  if (!queue_->enqueue(std::move(p))) {
    // Dropped; counted by the queue, recorded here.
    simulator_.record({simulator_.now(), sim::TraceVerb::kQueueDrop,
                       from_node_, uid, 0, to_node_, to_port_});
    return;
  }
  simulator_.record({simulator_.now(), sim::TraceVerb::kEnqueue,
                     from_node_, uid, 0, to_node_, to_port_});
  if (!transmitting_) start_transmission();
}

void Link::start_transmission() {
  auto next = queue_->dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  simulator_.record({simulator_.now(), sim::TraceVerb::kDequeue,
                     from_node_, next->uid, 0, to_node_, to_port_});
  const sim::SimTime tx = sim::transmission_time(next->size_bytes, capacity_bps_);
  // Delivery after serialization + propagation; the transmitter frees up
  // after serialization only.
  sim::Packet delivered_packet = std::move(*next);
  auto deliver = [this, p = std::move(delivered_packet)]() mutable {
    ++delivered_;
    bytes_delivered_ += p.size_bytes;
    network_.deliver(to_node_, std::move(p), to_port_);
  };
  // The packet-path closure must stay in the event's inline buffer: a heap
  // fallback here would put an allocation on every forwarded packet.
  static_assert(sim::Event::fits_inline<decltype(deliver)>());
  simulator_.after(tx + delay_, std::move(deliver), "net.link.deliver");
  simulator_.after(tx, [this] { start_transmission(); }, "net.link.tx");
}

}  // namespace hbp::net
