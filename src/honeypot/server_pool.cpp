#include "honeypot/server_pool.hpp"

#include "util/assert.hpp"

namespace hbp::honeypot {

ServerPool::ServerPool(sim::Simulator& simulator, net::Network& network,
                       const Schedule& schedule,
                       std::vector<sim::NodeId> server_nodes,
                       std::vector<sim::Address> server_addrs,
                       CheckpointStore& store, const ServerPoolParams& params)
    : simulator_(simulator),
      network_(network),
      schedule_(schedule),
      nodes_(std::move(server_nodes)),
      addrs_(std::move(server_addrs)),
      store_(store),
      params_(params) {
  HBP_ASSERT(nodes_.size() == addrs_.size());
  HBP_ASSERT(static_cast<int>(nodes_.size()) == schedule_.server_count());
  // The honeypot window must be non-empty.
  HBP_ASSERT(window_start_guard() + window_end_guard() <
             schedule_.epoch_length());
  connections_.resize(nodes_.size());
}

int ServerPool::index_of(sim::Address addr) const {
  for (std::size_t i = 0; i < addrs_.size(); ++i) {
    if (addrs_[i] == addr) return static_cast<int>(i);
  }
  return -1;
}

void ServerPool::enable_tcp() {
  if (!tcp_.empty()) return;
  tcp_.reserve(nodes_.size());
  for (const sim::NodeId node : nodes_) {
    tcp_.push_back(std::make_unique<transport::TcpReceiver>(
        simulator_, static_cast<net::Host&>(network_.node(node))));
  }
}

void ServerPool::start() {
  // The hosts keep non-owning refs to these thunks; reserve so push_back
  // never relocates them.
  receivers_.clear();
  receivers_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int server = static_cast<int>(i);
    auto& host = static_cast<net::Host&>(network_.node(nodes_[i]));
    receivers_.push_back(Receiver{this, server});
    host.set_receiver(receivers_.back());
  }
  const sim::SimTime first = schedule_.epoch_start(params_.first_epoch);
  simulator_.at(first >= simulator_.now() ? first : simulator_.now(),
                [this] { on_epoch(params_.first_epoch); },
                "honeypot.pool.epoch");
}

bool ServerPool::in_active_window(int server, sim::SimTime t) const {
  // A server is "active" at t if some epoch e with is_active(server, e)
  // has t within [start(e) - δ, end(e) + δ + γ].  Only the epochs adjacent
  // to t can qualify.
  const std::size_t e = schedule_.epoch_of(t);
  for (std::size_t cand = (e > 1 ? e - 1 : e); cand <= e + 1; ++cand) {
    if (!schedule_.is_active(server, cand)) continue;
    const sim::SimTime lo = schedule_.epoch_start(cand) - params_.delta;
    const sim::SimTime hi =
        schedule_.epoch_end(cand) + params_.delta + params_.gamma;
    if (t >= lo && t <= hi) return true;
  }
  return false;
}

bool ServerPool::in_honeypot_window(int server, sim::SimTime t) const {
  const std::size_t e = schedule_.epoch_of(t);
  if (schedule_.is_active(server, e)) return false;
  if (in_active_window(server, t)) return false;  // grace of adjacent epochs
  const sim::SimTime lo = schedule_.epoch_start(e) + window_start_guard();
  const sim::SimTime hi = schedule_.epoch_end(e) - window_end_guard();
  return t >= lo && t <= hi;
}

void ServerPool::on_epoch(std::size_t epoch) {
  for (int s = 0; s < server_count(); ++s) {
    const bool active_now = schedule_.is_active(s, epoch);
    const bool active_before =
        epoch > 1 ? schedule_.is_active(s, epoch - 1) : active_now;

    if (!active_now) {
      // Schedule the honeypot observation window.
      const sim::SimTime w_start =
          schedule_.epoch_start(epoch) + window_start_guard();
      const sim::SimTime w_end =
          schedule_.epoch_end(epoch) - window_end_guard();
      simulator_.at(
          w_start,
          [this, s, epoch] {
            simulator_.record(
                {simulator_.now(), sim::TraceVerb::kWindowStart,
                 nodes_[static_cast<std::size_t>(s)], 0, 0, s,
                 static_cast<std::int32_t>(epoch)});
            for (const auto& fn : window_start_) fn(s, epoch);
          },
          "honeypot.pool.window");
      simulator_.at(
          w_end,
          [this, s, epoch] {
            simulator_.record(
                {simulator_.now(), sim::TraceVerb::kWindowEnd,
                 nodes_[static_cast<std::size_t>(s)], 0, 0, s,
                 static_cast<std::int32_t>(epoch)});
            for (const auto& fn : window_end_) fn(s, epoch);
          },
          "honeypot.pool.window");
    }

    if (active_before && !active_now) {
      // Role change active -> honeypot: checkpoint connections once the
      // grace period of the previous epoch expires.
      simulator_.at(schedule_.epoch_start(epoch) + window_start_guard(),
                    [this, s] { checkpoint_server(s); },
                    "honeypot.pool.checkpoint");
    }
  }

  if (epoch < params_.last_epoch) {
    simulator_.at(schedule_.epoch_start(epoch + 1),
                  [this, epoch] { on_epoch(epoch + 1); },
                  "honeypot.pool.epoch");
  }
}

void ServerPool::checkpoint_server(int server) {
  auto& conns = connections_[static_cast<std::size_t>(server)];
  for (auto& [client, state] : conns) {
    ++state.migrations;
    store_.deposit(state);
    ++migrated_;
  }
  conns.clear();
}

void ServerPool::handle_packet(int server, const sim::Packet& p) {
  const sim::SimTime now = simulator_.now();

  if (in_active_window(server, now)) {
    // Normal service.
    if (!tcp_.empty() && tcp_[static_cast<std::size_t>(server)]->handle(p)) {
      if (p.type == sim::PacketType::kTcpData && !p.is_attack) {
        legit_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
      }
      for (const auto& fn : delivery_) fn(server, p);
      return;
    }
    if (p.type == sim::PacketType::kHandshakeSyn) {
      blacklist_.note_handshake(p.src);
      sim::Packet ack;
      ack.type = sim::PacketType::kHandshakeAck;
      ack.src = addrs_[static_cast<std::size_t>(server)];
      ack.dst = p.src;
      ack.size_bytes = 64;
      auto& host = static_cast<net::Host&>(
          network_.node(nodes_[static_cast<std::size_t>(server)]));
      host.send(std::move(ack));
    }

    if (p.is_attack) {
      attack_bytes_served_ += static_cast<std::uint64_t>(p.size_bytes);
    } else if (p.type == sim::PacketType::kData ||
               p.type == sim::PacketType::kRequest) {
      legit_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
      auto& conns = connections_[static_cast<std::size_t>(server)];
      auto it = conns.find(p.src);
      if (it == conns.end()) {
        // New or migrated connection: resume from a checkpoint if one is
        // pending, else open fresh state.
        ConnectionState state;
        if (auto resumed = store_.claim(p.src)) {
          state = *resumed;
        } else {
          state.client = p.src;
        }
        state.server_index = server;
        it = conns.emplace(p.src, state).first;
      }
      it->second.bytes += static_cast<std::uint64_t>(p.size_bytes);
      it->second.last_update = now;
    }
    for (const auto& fn : delivery_) fn(server, p);
    return;
  }

  if (in_honeypot_window(server, now)) {
    ++honeypot_packets_;
    if (!p.is_attack) ++false_hits_;
    blacklist_.observed_at_honeypot(p.src);
    simulator_.record({now, sim::TraceVerb::kHoneypotHit,
                       nodes_[static_cast<std::size_t>(server)], p.uid,
                       0, server, p.is_attack ? 1 : 0});
    for (const auto& fn : hit_) fn(server, p);
    return;
  }

  // Guard gap around role changes: tolerated, neither served nor reported.
  ++grace_drops_;
}

void ServerPool::add_honeypot_window_listener(WindowFn on_start, WindowFn on_end) {
  if (on_start) window_start_.push_back(on_start);
  if (on_end) window_end_.push_back(on_end);
}

}  // namespace hbp::honeypot
