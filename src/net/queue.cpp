#include "net/queue.hpp"

#include "util/assert.hpp"

namespace hbp::net {

DropTailQueue::DropTailQueue(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  HBP_ASSERT(capacity_bytes > 0);
}

bool DropTailQueue::enqueue(sim::Packet&& p) {
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    count_drop(p);
    return false;
  }
  bytes_ += p.size_bytes;
  count_accept();
  note_occupancy(bytes_);
  q_.push_back(std::move(p));
  return true;
}

std::optional<sim::Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  sim::Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  HBP_ASSERT(bytes_ >= 0);
  return p;
}

std::int64_t DropTailQueue::recount_bytes() const {
  std::int64_t total = 0;
  q_.for_each([&total](const sim::Packet& p) { total += p.size_bytes; });
  return total;
}

RedQueue::RedQueue(const Params& params)
    : params_(params), rng_state_(params.seed | 1) {
  HBP_ASSERT(params.min_th_bytes < params.max_th_bytes);
  HBP_ASSERT(params.max_th_bytes <= static_cast<double>(params.capacity_bytes));
  HBP_ASSERT(params.max_p > 0.0 && params.max_p <= 1.0);
}

double RedQueue::drop_probability() const {
  if (avg_ < params_.min_th_bytes) return 0.0;
  if (avg_ >= params_.max_th_bytes) return 1.0;
  const double base = params_.max_p * (avg_ - params_.min_th_bytes) /
                      (params_.max_th_bytes - params_.min_th_bytes);
  // Uniformised drop probability (gentle variant of the original paper).
  const double denom = 1.0 - static_cast<double>(count_since_drop_) * base;
  return denom <= 0.0 ? 1.0 : base / denom;
}

bool RedQueue::enqueue(sim::Packet&& p) {
  avg_ = (1.0 - params_.weight) * avg_ +
         params_.weight * static_cast<double>(bytes_);

  if (bytes_ + p.size_bytes > params_.capacity_bytes) {
    count_since_drop_ = 0;
    count_drop(p);
    return false;
  }

  const double prob = drop_probability();
  if (prob > 0.0) {
    // xorshift64* for a deterministic uniform draw.
    rng_state_ ^= rng_state_ >> 12;
    rng_state_ ^= rng_state_ << 25;
    rng_state_ ^= rng_state_ >> 27;
    const double u = static_cast<double>((rng_state_ * 0x2545F4914F6CDD1DULL) >> 11) *
                     0x1.0p-53;
    if (u < prob) {
      count_since_drop_ = 0;
      count_drop(p);
      return false;
    }
    ++count_since_drop_;
  } else {
    count_since_drop_ = 0;
  }

  bytes_ += p.size_bytes;
  count_accept();
  note_occupancy(bytes_);
  q_.push_back(std::move(p));
  return true;
}

std::optional<sim::Packet> RedQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  sim::Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  HBP_ASSERT(bytes_ >= 0);
  return p;
}

std::int64_t RedQueue::recount_bytes() const {
  std::int64_t total = 0;
  q_.for_each([&total](const sim::Packet& p) { total += p.size_bytes; });
  return total;
}

}  // namespace hbp::net
