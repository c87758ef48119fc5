// A link's output queue: a byte-bounded FIFO with an optional RED
// admission rule.
//
// Pushback's ACC detects congestion from the drop history of the output
// queue, so the queue keeps cumulative drop counters (packets and bytes);
// a reader takes differences between two readings.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/packet.hpp"
#include "util/ring_buffer.hpp"

namespace hbp::net {

// Random Early Detection (Floyd & Jacobson 1993), byte mode, with an
// exponentially-weighted average queue size.  Drop probability ramps from 0
// at min_th to max_p at max_th; above max_th everything is dropped.  The
// hard capacity is the queue's own byte bound.
struct RedParams {
  double min_th_bytes = 16'000;
  double max_th_bytes = 48'000;
  double max_p = 0.1;
  double weight = 0.002;   // EWMA weight
  std::uint64_t seed = 1;  // deterministic drop decisions
};

class PacketQueue {
 public:
  // Drop-tail when `red` is unset.
  explicit PacketQueue(std::int64_t capacity_bytes,
                       const std::optional<RedParams>& red = std::nullopt);

  // Returns false (and counts a drop) if the packet was not accepted.
  bool enqueue(sim::Packet&& p);
  bool empty() const { return q_.empty(); }
  // Removes the head packet; the queue must not be empty.
  sim::Packet pop();

  std::int64_t byte_length() const { return bytes_; }
  std::size_t packet_length() const { return q_.size(); }
  // Recomputes the queued byte total by walking the stored packets (strict
  // invariant audits cross-check it against byte_length()).
  std::int64_t recount_bytes() const;

  // Cumulative: overflow drops and RED early drops alike.
  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t accepted() const { return accepted_; }
  // High-water mark of the queued byte total (telemetry exports).
  std::int64_t peak_bytes() const { return peak_bytes_; }

 private:
  // Lets the invariant checker's tests corrupt a queue on purpose.
  friend struct PacketQueueTestPeer;

  struct Red {
    RedParams params;
    double avg = 0.0;
    std::uint64_t count_since_drop = 0;
    std::uint64_t rng_state;
  };

  bool red_early_drop();
  // Counts `p` as dropped; returns false, enqueue()'s verdict.
  bool drop(const sim::Packet& p);

  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t accepted_ = 0;
  std::int64_t peak_bytes_ = 0;
  std::optional<Red> red_;
  util::RingBuffer<sim::Packet> q_;
};

}  // namespace hbp::net
