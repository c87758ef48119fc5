#include "core/hsm.hpp"

#include "core/defense.hpp"
#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::core {

// ---------------------------------------------------------------- router agent

HbpRouterAgent::HbpRouterAgent(Hsm& hsm, net::Router& router)
    : hsm_(hsm), router_(router) {
  router_.add_tap(this);
}

HbpRouterAgent::~HbpRouterAgent() {
  router_.remove_tap(this);
  for (auto& block : blocks_) router_.remove_filter(block.get());
}

void HbpRouterAgent::open_session(sim::Address dst,
                                  const SessionWindow& window) {
  auto [it, created] = sessions_.try_emplace(dst);
  it->second.window = window;
}

void HbpRouterAgent::close_session(sim::Address dst) {
  const auto it = sessions_.find(dst);
  if (it == sessions_.end()) return;
  for (const int port : it->second.watched_switches) {
    auto& sw = hsm_.switch_node(router_.neighbor(static_cast<std::size_t>(port)));
    sw.stop_watch(dst);
  }
  sessions_.erase(it);
}

void HbpRouterAgent::on_forward(const sim::Packet& p, int in_port, int out_port) {
  (void)out_port;
  if (sessions_.contains(p.dst)) observe(p.dst, in_port);
}

void HbpRouterAgent::harvest(sim::Address dst, int switch_port) {
  const auto it = sessions_.find(dst);
  if (it == sessions_.end()) return;  // cancelled
  LocalSession& session = it->second;
  const sim::SimTime now = hsm_.defense().simulator().now();
  if (now > session.window.end) return;  // signature expired
  if (now < session.window.start) {
    // Session armed early (progressive direct request): idle until the
    // window opens, then resume harvesting.
    hsm_.defense().simulator().at(
        session.window.start + sim::SimTime::millis(50),
        [this, dst, switch_port] { harvest(dst, switch_port); });
    return;
  }

  auto& sw = hsm_.switch_node(
      router_.neighbor(static_cast<std::size_t>(switch_port)));
  for (const int port : sw.ports_sending_to(dst)) {
    if (sw.is_closed(port)) continue;
    const sim::NodeId host = sw.attached_host(port);
    if (host == sim::kInvalidNode) continue;  // uplink port
    sw.close_port(port);
    hsm_.on_local_capture(dst, host);
  }

  // Keep harvesting the watch until the window closes or the session is
  // cancelled.
  hsm_.defense().simulator().after(
      sim::SimTime::millis(50),
      [this, dst, switch_port] { harvest(dst, switch_port); },
      "core.hsm.harvest");
}

void HbpRouterAgent::observe(sim::Address dst, int in_port) {
  const auto it = sessions_.find(dst);
  if (it == sessions_.end()) return;
  LocalSession& session = it->second;
  if (!session.window.contains(hsm_.defense().simulator().now())) return;

  const sim::NodeId neighbor_id =
      router_.neighbor(static_cast<std::size_t>(in_port));
  const net::Node& neighbor = router_.network().node(neighbor_id);

  switch (neighbor.kind()) {
    case net::NodeKind::kSwitch: {
      // MAC end game (Section 5.2): watch which switch ports send to the
      // honeypot, then shut them.  The first observation arms the watch and
      // a periodic harvest bounded by the honeypot window.
      auto& sw = hsm_.switch_node(neighbor_id);
      if (!session.watched_switches.contains(in_port)) {
        session.watched_switches.insert(in_port);
        sw.start_watch(dst);
        hsm_.defense().simulator().after(
            sim::SimTime::millis(50),
            [this, dst, in_port] { harvest(dst, in_port); },
            "core.hsm.harvest");
      }
      return;  // the harvest loop takes it from here
    }
    case net::NodeKind::kRouter: {
      if (neighbor.as_id() != router_.as_id()) {
        // Input debugging walked back to an AS boundary: hand over to the
        // HSM for inter-AS propagation.  (Local honeypot messages "do not
        // cross AS boundaries".)
        hsm_.on_ingress_reached(dst, router_.id(), in_port);
        return;
      }
      if (!session.propagated_ports.contains(in_port)) {
        session.propagated_ports.insert(in_port);
        hsm_.send_local_request(router_.id(), neighbor_id, dst);
      }
      return;
    }
    case net::NodeKind::kHost: {
      // Host wired straight into the router (no switch): block its port.
      if (!session.propagated_ports.contains(in_port)) {
        session.propagated_ports.insert(in_port);
        blocks_.push_back(std::make_unique<PortBlock>(in_port));
        router_.add_filter(blocks_.back().get());
        hsm_.on_local_capture(dst, neighbor_id);
      }
      return;
    }
  }
}

// ---------------------------------------------------------------- divert filter

Hsm::DivertFilter::DivertFilter(Hsm& hsm, net::Router& router)
    : hsm_(hsm), router_(router) {
  router_.add_filter(this);
}

Hsm::DivertFilter::~DivertFilter() { router_.remove_filter(this); }

net::FilterAction Hsm::DivertFilter::on_packet(const sim::Packet& p,
                                               int in_port) {
  if (!dsts_.contains(p.dst)) return net::FilterAction::kPass;
  // Past the honeypot window the server may be active again: let traffic
  // through (the cancel that removes this filter is still in flight).
  const auto session = hsm_.sessions_.find(p.dst);
  if (session == hsm_.sessions_.end() ||
      !session->second.window.contains(hsm_.defense().simulator().now())) {
    return net::FilterAction::kPass;
  }

  sim::Packet stamped = p;
  const auto it = hsm_.cross_by_port_.find({router_.id(), in_port});
  if (it != hsm_.cross_by_port_.end() && it->second->upstream) {
    // Ingress from an upstream AS: stamp the edge id in the configured way.
    const int edge_id = lie_edge_id_ >= 0 ? lie_edge_id_ : it->second->edge_id;
    if (hsm_.defense().params().ingress_mode ==
        HbpParams::IngressMode::kMarking) {
      stamped.mark = edge_id;
    } else {
      stamped.tunnel_id = edge_id;
    }
  }
  // Divert to the HSM: one intra-AS control hop of latency, then consumed
  // ("only the honeypot traffic, which will be discarded anyway").
  const sim::NodeId reporter = router_.id();
  sim::Simulator& simulator = hsm_.defense().simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kDivert,
                    reporter, p.uid, 0, in_port,
                    std::max(stamped.mark, stamped.tunnel_id)});
  hsm_.defense().control().send(
      "divert_report", 1, [hsm = &hsm_, reporter, in_port, stamped] {
        hsm->on_diverted(reporter, in_port, stamped);
      });
  return net::FilterAction::kConsume;
}

// ------------------------------------------------------------------------- hsm

Hsm::Hsm(HbpDefense& defense, const topo::AsInfo& info)
    : defense_(defense), info_(info) {
  for (const topo::CrossLink& cl : info_.cross_links) {
    cross_by_port_[{cl.router, cl.port}] = &cl;
    cross_by_edge_id_[cl.edge_id] = &cl;
  }
}

Hsm::~Hsm() = default;

net::Switch& Hsm::switch_node(sim::NodeId id) {
  auto& node = defense_.network().node(id);
  HBP_ASSERT(node.kind() == net::NodeKind::kSwitch);
  return static_cast<net::Switch&>(node);
}

HbpRouterAgent& Hsm::agent(sim::NodeId router) {
  auto it = agents_.find(router);
  if (it == agents_.end()) {
    auto& r = static_cast<net::Router&>(defense_.network().node(router));
    it = agents_.emplace(router, std::make_unique<HbpRouterAgent>(*this, r))
             .first;
  }
  return *it->second;
}

void Hsm::install_divert(sim::Address dst) {
  for (const topo::CrossLink& cl : info_.cross_links) {
    auto it = filters_.find(cl.router);
    if (it == filters_.end()) {
      auto& r = static_cast<net::Router&>(defense_.network().node(cl.router));
      it = filters_.emplace(cl.router, std::make_unique<DivertFilter>(*this, r))
               .first;
      if (const auto lie = lies_.find(cl.router); lie != lies_.end()) {
        it->second->set_lie(lie->second);
      }
    }
    it->second->add_dst(dst);
  }
}

void Hsm::remove_divert(sim::Address dst) {
  for (auto it = filters_.begin(); it != filters_.end();) {
    it->second->remove_dst(dst);
    if (it->second->empty()) {
      it = filters_.erase(it);
    } else {
      ++it;
    }
  }
}

void Hsm::receive_request(const HoneypotRequest& m) {
  ++requests_received_;
  sim::Simulator& simulator = defense_.simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kSessionOpen,
                    sim::kInvalidNode, m.trace_cause, m.trace_cause,
                    info_.id, static_cast<std::int32_t>(m.epoch)});
  auto [it, created] = sessions_.try_emplace(m.dst);
  HsmSession& session = it->second;
  session.epoch = m.epoch;
  session.window = m.window;
  if (created) {
    install_divert(m.dst);
  }
}

void Hsm::receive_cancel(const HoneypotCancel& m) {
  ++cancels_received_;
  sim::Simulator& simulator = defense_.simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kSessionClose,
                    sim::kInvalidNode, 0, 0, info_.id,
                    static_cast<std::int32_t>(m.epoch)});
  const auto it = sessions_.find(m.dst);
  if (it == sessions_.end()) return;
  HsmSession session = std::move(it->second);
  sessions_.erase(it);

  remove_divert(m.dst);

  // Propagate the cancel along the request tree.
  for (const net::AsId up : session.propagated_upstream) {
    defense_.propagate_cancel(info_.id, up, m.dst, m.epoch);
  }

  // Progressive scheme (Section 6): an AS where back-propagation stalled
  // reports its identity + timestamp to the server so the next epoch can
  // resume from there.  For transit ASs the stall means no upstream request
  // was sent; for non-transit (stub) ASs it means the intra-AS walk did not
  // cut anyone off yet ("the HSM of a non-transit AS retains the honeypot
  // session until intra-AS back-propagation is performed" — we realise the
  // retention through a direct re-activation next epoch).
  if (defense_.params().progressive && !session.any_upstream_request) {
    const bool stalled =
        info_.transit ? true : session.captures == 0;
    if (stalled) {
      defense_.report_to_server(info_.id, m.dst, m.epoch);
    }
  }

  // Tear down intra-AS sessions.  Their useful life ended at window_end
  // anyway (past it the dst=S signature stops distinguishing attack from
  // legitimate traffic); the window bound inside the agents guarantees no
  // action was taken on post-window observations even though the cancel
  // message arrives with some control-plane latency.
  for (const sim::NodeId r : session.local_sessions) {
    const auto ag = agents_.find(r);
    if (ag != agents_.end()) ag->second->close_session(m.dst);
  }
}

void Hsm::on_diverted(sim::NodeId edge_router, int in_port,
                      const sim::Packet& p) {
  const auto it = sessions_.find(p.dst);
  if (it == sessions_.end()) return;  // stale report after cancel
  HsmSession& session = it->second;
  ++session.packets;
  ++diverted_;

  // Feed edge-router observations into an active intra-AS session there
  // (the edge filter consumes packets before the router tap would see them).
  if (session.local_sessions.contains(edge_router)) {
    agent(edge_router).observe(p.dst, in_port);
  }

  const int stamp = defense_.params().ingress_mode ==
                            HbpParams::IngressMode::kMarking
                        ? p.mark
                        : p.tunnel_id;
  if (stamp >= 0) {
    // Ingress from an upstream AS identified by the stamped edge id.
    const auto cl = cross_by_edge_id_.find(stamp);
    if (cl != cross_by_edge_id_.end() && cl->second->upstream) {
      propagate_upstream(p.dst, session, cl->second->neighbor_as, p.uid);
    }
    return;
  }

  // No stamp: the packet originated inside this AS — start (or continue)
  // intra-AS back-propagation at the reporting router.
  start_intra_as(p.dst, session, edge_router, in_port, p.uid);
}

void Hsm::start_intra_as(sim::Address dst, HsmSession& session,
                         sim::NodeId router, int in_port,
                         std::uint64_t cause_uid) {
  if (!session.local_sessions.contains(router)) {
    session.local_sessions.insert(router);
    sim::Simulator& simulator = defense_.simulator();
    simulator.record({simulator.now(), sim::TraceVerb::kIntraTrace,
                      router, cause_uid, cause_uid, in_port, info_.id});
    agent(router).open_session(dst, session.window);
  }
  agent(router).observe(dst, in_port);
}

void Hsm::propagate_upstream(sim::Address dst, HsmSession& session,
                             net::AsId neighbor, std::uint64_t cause_uid) {
  if (session.propagated_upstream.contains(neighbor)) return;
  session.propagated_upstream.insert(neighbor);
  session.any_upstream_request = true;
  sim::Simulator& simulator = defense_.simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kUpstream,
                    sim::kInvalidNode, cause_uid, cause_uid, info_.id,
                    neighbor});
  defense_.propagate_request(info_.id, neighbor, dst, session.epoch,
                             session.window, 0, cause_uid);
}

void Hsm::on_ingress_reached(sim::Address dst, sim::NodeId router, int port) {
  const auto it = sessions_.find(dst);
  if (it == sessions_.end()) return;
  const auto cl = cross_by_port_.find({router, port});
  if (cl == cross_by_port_.end() || !cl->second->upstream) return;
  sim::Simulator& simulator = defense_.simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kIngressReached,
                    router, 0, 0, port, cl->second->neighbor_as});
  propagate_upstream(dst, it->second, cl->second->neighbor_as);
}

void Hsm::on_local_capture(sim::Address dst, sim::NodeId host) {
  if (const auto it = sessions_.find(dst); it != sessions_.end()) {
    ++it->second.captures;
  }
  defense_.on_capture(host, dst);
}

void Hsm::send_local_request(sim::NodeId from_router, sim::NodeId to_router,
                             sim::Address dst) {
  // TTL-255 authenticity: neighbors only, by construction.
  const auto it = sessions_.find(dst);
  if (it == sessions_.end()) return;
  it->second.local_sessions.insert(to_router);
  const SessionWindow window = it->second.window;
  sim::Simulator& simulator = defense_.simulator();
  simulator.record({simulator.now(), sim::TraceVerb::kLocalRequest,
                    from_router, 0, 0, to_router, info_.id});
  defense_.control().send("local_request", 1, [this, to_router, dst, window] {
    agent(to_router).open_session(dst, window);
  });
}

void Hsm::compromise_edge_router(sim::NodeId router, int lie_edge_id) {
  lies_[router] = lie_edge_id;
  if (const auto it = filters_.find(router); it != filters_.end()) {
    it->second->set_lie(lie_edge_id);
  }
}

}  // namespace hbp::core
