// Output-queue disciplines for links: drop-tail and RED.
//
// Pushback's ACC detects congestion from the drop history of the output
// queue, so queues expose drop counters and an optional drop observer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "sim/packet.hpp"
#include "util/function_ref.hpp"
#include "util/ring_buffer.hpp"

namespace hbp::net {

// Called with every packet the queue drops (overflow or RED early drop).
// Non-owning: the observer callable must outlive the queue registration
// (name the lambda, or bind a member function of a long-lived component).
using DropObserver = util::function_ref<void(const sim::Packet&)>;

class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  // Returns false (and counts a drop) if the packet was not accepted.
  virtual bool enqueue(sim::Packet&& p) = 0;
  virtual std::optional<sim::Packet> dequeue() = 0;

  virtual std::int64_t byte_length() const = 0;
  virtual std::size_t packet_length() const = 0;

  // Recomputes the queued byte total by walking the stored packets (strict
  // invariant audits cross-check it against byte_length()).  Disciplines
  // that cannot enumerate their contents fall back to byte_length().
  virtual std::int64_t recount_bytes() const { return byte_length(); }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t accepted() const { return accepted_; }
  // High-water mark of the queued byte total (telemetry exports).
  std::int64_t peak_bytes() const { return peak_bytes_; }

  void set_drop_observer(DropObserver obs) { drop_observer_ = obs; }

 protected:
  void count_drop(const sim::Packet& p) {
    ++drops_;
    if (drop_observer_) drop_observer_(p);
  }
  void count_accept() { ++accepted_; }
  void note_occupancy(std::int64_t bytes) {
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
  }

 private:
  std::uint64_t drops_ = 0;
  std::uint64_t accepted_ = 0;
  std::int64_t peak_bytes_ = 0;
  DropObserver drop_observer_;
};

// FIFO queue with a byte-capacity bound.
class DropTailQueue final : public PacketQueue {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes);

  bool enqueue(sim::Packet&& p) override;
  std::optional<sim::Packet> dequeue() override;
  std::int64_t byte_length() const override { return bytes_; }
  std::size_t packet_length() const override { return q_.size(); }
  std::int64_t recount_bytes() const override;

 private:
  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  util::RingBuffer<sim::Packet> q_;
};

// Random Early Detection (Floyd & Jacobson 1993), byte mode, with an
// exponentially-weighted average queue size.  Drop probability ramps from 0
// at min_th to max_p at max_th; above max_th everything is dropped.
class RedQueue final : public PacketQueue {
 public:
  struct Params {
    std::int64_t capacity_bytes = 64'000;
    double min_th_bytes = 16'000;
    double max_th_bytes = 48'000;
    double max_p = 0.1;
    double weight = 0.002;      // EWMA weight
    std::uint64_t seed = 1;     // deterministic drop decisions
  };

  explicit RedQueue(const Params& params);

  bool enqueue(sim::Packet&& p) override;
  std::optional<sim::Packet> dequeue() override;
  std::int64_t byte_length() const override { return bytes_; }
  std::size_t packet_length() const override { return q_.size(); }
  std::int64_t recount_bytes() const override;

  double average_bytes() const { return avg_; }

 private:
  double drop_probability() const;

  Params params_;
  std::int64_t bytes_ = 0;
  double avg_ = 0.0;
  std::uint64_t count_since_drop_ = 0;
  std::uint64_t rng_state_;
  util::RingBuffer<sim::Packet> q_;
};

using QueueFactory = std::function<std::unique_ptr<PacketQueue>()>;

}  // namespace hbp::net
