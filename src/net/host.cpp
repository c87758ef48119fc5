#include "net/host.hpp"

#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::net {

void Host::receive(sim::Packet&& p, int in_port) {
  if (p.dst != address_) return;  // mis-delivered; hosts are not routers
  ++received_;
  bytes_received_ += p.size_bytes;
  sim::Simulator& simulator = network().simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kReceive, id(),
                    p.uid, 0, in_port, static_cast<std::int32_t>(p.type)});
  if (receiver_) receiver_(p);
}

void Host::send(sim::Packet&& p) {
  HBP_ASSERT_MSG(port_count() == 1, "hosts have exactly one access port");
  p.uid = network().next_packet_uid();
  p.origin_node = id();
  sim::Simulator& simulator = network().simulator();
  p.sent_at = simulator.now();
  simulator.record({p.sent_at, sim::TraceVerb::kSend, id(), p.uid, 0,
                    static_cast<std::int32_t>(p.dst),
                    static_cast<std::int32_t>(p.type)});
  network().transmit(id(), 0, std::move(p));
}

}  // namespace hbp::net
