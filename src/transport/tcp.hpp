// TCP-lite: a minimal Reno-style reliable byte stream over the simulator.
//
// The paper's damage model (Section 3) is partly about TCP: the attack
// "degrad[es] the throughput of both TCP flows from servers to clients as
// well as data flows from clients into servers.  For example, if TCP ACK
// packets from clients to servers get dropped due to the attack, the
// throughput of TCP flows is degraded."  And the roaming overhead
// discussion (Section 5.3) notes that migrated connections "re-establish
// TCP connections and re-enter TCP slow-start, losing their current TCP
// throughput."
//
// This module implements just enough of TCP to reproduce those effects:
// a 2-way handshake, MSS-sized segments, cumulative ACKs, slow start /
// congestion avoidance, fast retransmit on three duplicate ACKs, and an
// RTO with exponential backoff and RTT estimation.  No SACK, no Nagle, no
// receive-window limit (the receiver consumes instantly).
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace hbp::transport {

struct TcpParams {
  std::int32_t mss_bytes = 1000;
  double initial_cwnd_segments = 2.0;
  double initial_ssthresh_segments = 64.0;
  sim::SimTime initial_rto = sim::SimTime::seconds(1);
  sim::SimTime min_rto = sim::SimTime::millis(200);
  sim::SimTime max_rto = sim::SimTime::seconds(60);
  int dupack_threshold = 3;
};

// Greedy sender: always has data to send (a bulk transfer).  Attach to a
// Host; it owns the host's receive callback while connected.
class TcpSender {
 public:
  TcpSender(sim::Simulator& simulator, net::Host& host,
            const TcpParams& params = {});

  // Starts (or restarts) a connection to `dst`.  Re-connecting to a new
  // destination models the roaming migration: sequence progress carries
  // over (the checkpoint), but the handshake and slow start repeat.
  void connect(sim::Address dst);

  bool established() const { return established_; }
  sim::Address destination() const { return dst_; }

  std::int64_t bytes_acked() const { return snd_una_; }
  double cwnd_segments() const { return cwnd_ / params_.mss_bytes; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t handshakes() const { return handshakes_; }
  double srtt_seconds() const { return srtt_; }

 private:
  void on_receive(const sim::Packet& p);
  void on_syn_ack();
  void on_ack(std::int64_t ack);
  void send_available();
  void send_segment(std::int64_t seq);
  void send_syn();
  void arm_rto();
  void on_rto();
  void update_rtt(double sample_s);

  sim::Simulator& simulator_;
  net::Host& host_;
  TcpParams params_;
  sim::Address dst_ = 0;
  bool established_ = false;

  std::int64_t snd_una_ = 0;   // lowest unacknowledged byte
  std::int64_t snd_nxt_ = 0;   // next byte to send
  double cwnd_ = 0;            // bytes
  double ssthresh_ = 0;        // bytes
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recovery_point_ = 0;

  sim::SimTime rto_;
  // Bumped by every arm and every disarm of the retransmit timer; a timer
  // event fires on_rto() only if it still carries the current value.
  std::uint64_t rto_generation_ = 0;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  bool have_rtt_ = false;
  // Timestamp of the segment used for RTT sampling (Karn's rule: only
  // segments that were not retransmitted are sampled).
  std::int64_t rtt_seq_ = -1;
  sim::SimTime rtt_sent_at_ = sim::SimTime::zero();
  bool rtt_sample_valid_ = false;

  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t handshakes_ = 0;
};

// Receiver: acknowledges every arriving segment with the cumulative
// in-order byte count; buffers out-of-order segments.  One receiver can
// serve many senders (keyed by peer address).
class TcpReceiver {
 public:
  explicit TcpReceiver(sim::Simulator& simulator, net::Host& host);

  // Handles one packet if it is TCP; returns false for non-TCP packets so
  // the owner can layer other protocols on the same host.
  bool handle(const sim::Packet& p);

  // Installs this receiver as the host's receive callback.
  void attach();

  std::int64_t bytes_delivered(sim::Address peer) const;
  std::int64_t total_bytes_delivered() const { return total_delivered_; }

 private:
  struct PeerState {
    std::int64_t rcv_nxt = 0;          // next expected byte
    std::set<std::int64_t> out_of_order;  // buffered segment starts
    std::int64_t delivered = 0;
  };

  void send_ack(sim::Address peer, const PeerState& state);

  sim::Simulator& simulator_;
  net::Host& host_;
  std::map<sim::Address, PeerState> peers_;
  std::int32_t mss_bytes_ = 1000;
  std::int64_t total_delivered_ = 0;
};

}  // namespace hbp::transport
