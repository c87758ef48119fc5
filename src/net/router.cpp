#include "net/router.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::net {

void Router::remove_filter(PacketFilter* filter) {
  filters_.erase(std::remove(filters_.begin(), filters_.end(), filter),
                 filters_.end());
}

void Router::remove_tap(ForwardTap* tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

void Router::remove_mutator(PacketMutator* mutator) {
  mutators_.erase(std::remove(mutators_.begin(), mutators_.end(), mutator),
                  mutators_.end());
}

void Router::receive(sim::Packet&& p, int in_port) {
  if (p.ttl == 0) {
    network().drop_ttl(p, id());
    return;
  }
  p.ttl -= 1;

  for (PacketMutator* m : mutators_) m->mutate(p, in_port);

  for (PacketFilter* f : filters_) {
    switch (f->on_packet(p, in_port)) {
      case FilterAction::kPass:
        break;
      case FilterAction::kDrop:
        network().drop_filter(p, id());
        return;
      case FilterAction::kConsume:
        return;
    }
  }

  const int out_port = network().route_port(id(), p.dst);
  if (out_port < 0) {
    network().drop_filter(p, id());  // unroutable
    return;
  }

  for (ForwardTap* tap : taps_) tap->on_forward(p, in_port, out_port);

  ++forwarded_;
  sim::Simulator& simulator = network().simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kForward, id(),
                    p.uid, 0, in_port, out_port});
  network().transmit(id(), out_port, std::move(p));
}

}  // namespace hbp::net
