#include "core/defense.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::core {

HbpDefense::HbpDefense(sim::Simulator& simulator, net::Network& network,
                       net::ControlPlane& control, honeypot::ServerPool& pool,
                       const topo::AsMap& as_map, const HbpParams& params)
    : simulator_(simulator),
      network_(network),
      control_(control),
      pool_(pool),
      as_map_(as_map),
      params_(params),
      keys_(params.master_secret) {
  const auto n = static_cast<std::size_t>(pool_.server_count());
  windows_.resize(n);
  requested_.resize(n);
  progressive_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    progressive_.push_back(std::make_unique<ProgressiveManager>(params_.rho));
  }
}

HbpDefense::~HbpDefense() = default;

void HbpDefense::start() {
  HBP_ASSERT_MSG(hsms_.empty(), "start() must be called once");
  for (std::size_t as = 0; as < as_map_.count(); ++as) {
    const auto id = static_cast<net::AsId>(as);
    if (!params_.deployment.deploys(id)) continue;
    hsms_.emplace(id, std::make_unique<Hsm>(*this, as_map_.info(id)));
  }
  for (int s = 0; s < pool_.server_count(); ++s) {
    HBP_ASSERT_MSG(hsms_.contains(home_as(s)),
                   "the victim's home AS must deploy the scheme");
  }

  pool_.add_honeypot_window_listener(
      honeypot::ServerPool::WindowFn::bind<&HbpDefense::on_window_start>(*this),
      honeypot::ServerPool::WindowFn::bind<&HbpDefense::on_window_end>(*this));
  pool_.add_honeypot_hit_listener(
      honeypot::ServerPool::HitFn::bind<&HbpDefense::on_honeypot_hit>(*this));
}

Hsm* HbpDefense::hsm(net::AsId as) {
  const auto it = hsms_.find(as);
  return it == hsms_.end() ? nullptr : it->second.get();
}

net::AsId HbpDefense::home_as(int server) const {
  return network_.node(pool_.node(server)).as_id();
}

std::size_t HbpDefense::next_honeypot_epoch(int server,
                                            std::size_t after) const {
  const auto& schedule = pool_.schedule();
  for (std::size_t e = after + 1; e < after + 1000; ++e) {
    if (!schedule.is_active(server, e)) return e;
  }
  return 0;  // none found in horizon
}

void HbpDefense::on_window_start(int server, std::size_t epoch) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  w = ServerWindow{};
  w.epoch = epoch;
  w.open = true;
}

void HbpDefense::on_honeypot_hit(int server, const sim::Packet& p) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  if (!w.open) return;
  ++w.hits;
  if (p.is_attack) ++w.attack_hits;
  w.last_hit_uid = p.uid;
  if (!w.activated && w.hits >= params_.activation_threshold) {
    w.activated = true;
    ++activations_;
    if (w.attack_hits == 0) ++false_activations_;
    simulator_.record({simulator_.now(), sim::TraceVerb::kActivate,
                       pool_.node(server), p.uid, p.uid, server,
                       static_cast<std::int32_t>(w.epoch)});
    activate(server);
  }
}

void HbpDefense::activate(int server) {
  // "Whenever the server S starts a honeypot epoch, it sends a honeypot
  // request message to the HSM(s) of its AS(s)" — gated here by the
  // activation threshold.
  const auto& w = windows_[static_cast<std::size_t>(server)];
  const net::AsId home = home_as(server);
  const sim::Address dst = pool_.address(server);

  HoneypotRequest m;
  m.dst = dst;
  m.epoch = w.epoch;
  m.window.start =
      pool_.schedule().epoch_start(w.epoch) + pool_.window_start_guard();
  m.window.end = pool_.schedule().epoch_end(w.epoch) - pool_.window_end_guard();
  m.from_as = home;  // server speaks for its home AS
  m.to_as = home;
  keys_.sign(m, keys_.server_key(home));
  m.trace_cause = w.last_hit_uid;

  requested_[static_cast<std::size_t>(server)][w.epoch].insert(home);
  simulator_.record({simulator_.now(), sim::TraceVerb::kRequestSend,
                     pool_.node(server), w.last_hit_uid, w.last_hit_uid,
                     home, home});
  control_.send("honeypot_request", 1, [this, m] { deliver_request(m); });
}

void HbpDefense::on_window_end(int server, std::size_t epoch) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  w.open = false;

  // Cancel every session tree rooted this epoch (home AS plus progressive
  // direct targets).
  auto& by_epoch = requested_[static_cast<std::size_t>(server)];
  const auto it = by_epoch.find(epoch);
  if (it != by_epoch.end()) {
    const sim::Address dst = pool_.address(server);
    for (const net::AsId as : it->second) {
      const int hops = 1 + std::max(0, as_map_.as_hop_distance(home_as(server), as));
      HoneypotCancel c;
      c.dst = dst;
      c.epoch = epoch;
      c.from_as = home_as(server);
      c.to_as = as;
      c.from_server = true;
      keys_.sign(c, keys_.server_key(as));
      simulator_.record({simulator_.now(), sim::TraceVerb::kCancelSend,
                         pool_.node(server), 0, 0, home_as(server), as});
      control_.send("honeypot_cancel", hops, [this, c] { deliver_cancel(c); });
    }
    by_epoch.erase(it);
  }

  if (params_.progressive) {
    // Give the intermediate reports time to arrive, then close the round
    // and schedule the next epoch's direct requests.
    simulator_.after(params_.report_grace,
                     [this, server] { schedule_direct_requests(server); },
                     "core.defense.round");
  }
}

void HbpDefense::schedule_direct_requests(int server) {
  auto& manager = *progressive_[static_cast<std::size_t>(server)];
  const auto entries = manager.end_round();
  if (entries.empty()) return;

  const std::size_t next_epoch =
      next_honeypot_epoch(server, pool_.schedule().epoch_of(simulator_.now()));
  if (next_epoch == 0) return;
  const sim::SimTime window_start =
      pool_.schedule().epoch_start(next_epoch) + pool_.window_start_guard();
  const sim::Address dst = pool_.address(server);
  const net::AsId home = home_as(server);

  for (const auto& entry : entries) {
    // "At t_A + τ seconds before the next honeypot epoch, a request message
    // is sent to each AS A in the intermediate-AS list."
    const sim::SimTime lead =
        sim::SimTime::seconds(entry.t_a_seconds) + params_.tau_estimate;
    sim::SimTime when = window_start - lead;
    if (when < simulator_.now()) when = simulator_.now();

    const net::AsId target = entry.as;
    SessionWindow window;
    window.start =
        pool_.schedule().epoch_start(next_epoch) + pool_.window_start_guard();
    window.end =
        pool_.schedule().epoch_end(next_epoch) - pool_.window_end_guard();
    simulator_.at(when, [this, server, target, dst, next_epoch, window,
                         home] {
      HoneypotRequest m;
      m.dst = dst;
      m.epoch = next_epoch;
      m.window = window;
      m.from_as = home;
      m.to_as = target;
      m.progressive_direct = true;
      keys_.sign(m, keys_.server_key(target));
      requested_[static_cast<std::size_t>(server)][next_epoch].insert(target);
      const int hops = 1 + std::max(0, as_map_.as_hop_distance(home, target));
      simulator_.record({simulator_.now(), sim::TraceVerb::kDirectRequest,
                         pool_.node(server), 0, 0, target,
                         static_cast<std::int32_t>(next_epoch)});
      control_.send("honeypot_request", hops, [this, m] { deliver_request(m); });
    }, "core.defense.direct_request");
  }
}

void HbpDefense::propagate_request(net::AsId from, net::AsId to,
                                   sim::Address dst, std::size_t epoch,
                                   const SessionWindow& window,
                                   int extra_hops, std::uint64_t trace_cause) {
  if (hsm(to) != nullptr) {
    HoneypotRequest m;
    m.dst = dst;
    m.epoch = epoch;
    m.window = window;
    m.from_as = from;
    m.to_as = to;
    keys_.sign(m, keys_.pair_key(from, to));
    m.trace_cause = trace_cause;
    simulator_.record({simulator_.now(), sim::TraceVerb::kRequestSend,
                       sim::kInvalidNode, trace_cause, trace_cause, from, to});
    control_.send("honeypot_request", 1 + extra_hops,
                  [this, m] { deliver_request(m); });
    return;
  }
  // Deployment gap (Section 5.3): broadcast over routing announcements to
  // every upstream AS of the non-deploying one, until deploying ASs resume
  // normal propagation.
  ++bridged_;
  for (const net::AsId up : as_map_.info(to).upstream) {
    propagate_request(from, up, dst, epoch, window, extra_hops + 1,
                      trace_cause);
  }
}

void HbpDefense::propagate_cancel(net::AsId from, net::AsId to,
                                  sim::Address dst, std::size_t epoch,
                                  int extra_hops) {
  if (hsm(to) != nullptr) {
    HoneypotCancel m;
    m.dst = dst;
    m.epoch = epoch;
    m.from_as = from;
    m.to_as = to;
    keys_.sign(m, keys_.pair_key(from, to));
    simulator_.record({simulator_.now(), sim::TraceVerb::kCancelSend,
                       sim::kInvalidNode, 0, 0, from, to});
    control_.send("honeypot_cancel", 1 + extra_hops,
                  [this, m] { deliver_cancel(m); });
    return;
  }
  ++bridged_;
  for (const net::AsId up : as_map_.info(to).upstream) {
    propagate_cancel(from, up, dst, epoch, extra_hops + 1);
  }
}

void HbpDefense::report_to_server(net::AsId from, sim::Address dst,
                                  std::size_t epoch) {
  IntermediateReport m;
  m.as = from;
  m.dst = dst;
  m.epoch = epoch;
  m.stamped_at = simulator_.now();
  keys_.sign(m, keys_.server_key(from));

  const int server = pool_.index_of(dst);
  if (server < 0) return;
  const int hops =
      1 + std::max(0, as_map_.as_hop_distance(from, home_as(server)));
  simulator_.record({simulator_.now(), sim::TraceVerb::kReportSend,
                     sim::kInvalidNode, 0, 0, from,
                     static_cast<std::int32_t>(epoch)});
  control_.send("intermediate_report", hops, [this, m] { deliver_report(m); });
}

void HbpDefense::deliver_request(const HoneypotRequest& m) {
  Hsm* target = hsm(m.to_as);
  if (target == nullptr) return;
  if (params_.authenticate) {
    const util::Digest key = m.from_as == m.to_as || m.progressive_direct
                                 ? keys_.server_key(m.to_as)
                                 : keys_.pair_key(m.from_as, m.to_as);
    if (!keys_.verify(m, key)) {
      ++forged_rejected_;
      return;
    }
  }
  target->receive_request(m);
}

void HbpDefense::deliver_cancel(const HoneypotCancel& m) {
  Hsm* target = hsm(m.to_as);
  if (target == nullptr) return;
  if (params_.authenticate) {
    const util::Digest key = m.from_server
                                 ? keys_.server_key(m.to_as)
                                 : keys_.pair_key(m.from_as, m.to_as);
    if (!keys_.verify(m, key)) {
      ++forged_rejected_;
      return;
    }
  }
  target->receive_cancel(m);
}

void HbpDefense::deliver_report(const IntermediateReport& m) {
  if (params_.authenticate && !keys_.verify(m, keys_.server_key(m.as))) {
    ++forged_rejected_;
    return;
  }
  const int server = pool_.index_of(m.dst);
  if (server < 0) return;
  progressive_[static_cast<std::size_t>(server)]->on_report(
      m.as, m.stamped_at, simulator_.now());
}

void HbpDefense::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("core.defense.activations").add(activations_);
  registry.counter("core.defense.false_activations").add(false_activations_);
  registry.counter("core.defense.forged_rejected").add(forged_rejected_);
  registry.counter("core.defense.bridged_messages").add(bridged_);
  registry.counter("core.defense.captures").add(captures_.size());
  // Per-AS counters are sparse: most HSMs never see a request, and a zero
  // is what an absent counter already reads as.
  for (const auto& [as, hsm] : hsms_) {
    const std::string prefix = "core.hsm." + std::to_string(as);
    for (const auto& [name, value] :
         {std::pair{".requests", hsm->requests_received()},
          std::pair{".cancels", hsm->cancels_received()},
          std::pair{".diverted", hsm->packets_diverted()}}) {
      if (value != 0) registry.counter(prefix + name).add(value);
    }
  }
}

void HbpDefense::on_capture(sim::NodeId host, sim::Address dst) {
  if (captured_hosts_.contains(host)) return;
  captured_hosts_.insert(host);
  simulator_.record({simulator_.now(), sim::TraceVerb::kCapture, host,
                     0, 0, static_cast<std::int32_t>(dst), -1});
  const CaptureEvent event{host, dst, simulator_.now()};
  captures_.push_back(event);
  for (const auto& fn : capture_listeners_) fn(event);
}

}  // namespace hbp::core
