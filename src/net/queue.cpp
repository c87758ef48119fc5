#include "net/queue.hpp"

#include "util/assert.hpp"

namespace hbp::net {

PacketQueue::PacketQueue(std::int64_t capacity_bytes,
                         const std::optional<RedParams>& red)
    : capacity_bytes_(capacity_bytes) {
  HBP_ASSERT(capacity_bytes > 0);
  if (red) {
    HBP_ASSERT(red->min_th_bytes < red->max_th_bytes);
    HBP_ASSERT(red->max_th_bytes <= static_cast<double>(capacity_bytes));
    HBP_ASSERT(red->max_p > 0.0 && red->max_p <= 1.0);
    red_ = Red{*red, 0.0, 0, red->seed | 1};
  }
}

bool PacketQueue::enqueue(sim::Packet&& p) {
  if (red_) {
    red_->avg = (1.0 - red_->params.weight) * red_->avg +
                red_->params.weight * static_cast<double>(bytes_);
  }
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    if (red_) red_->count_since_drop = 0;
    return drop(p);
  }
  if (red_ && red_early_drop()) return drop(p);

  bytes_ += p.size_bytes;
  ++accepted_;
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
  q_.push_back(std::move(p));
  return true;
}

bool PacketQueue::red_early_drop() {
  Red& red = *red_;
  const RedParams& params = red.params;
  double prob;
  if (red.avg < params.min_th_bytes) {
    prob = 0.0;
  } else if (red.avg >= params.max_th_bytes) {
    prob = 1.0;
  } else {
    const double base = params.max_p * (red.avg - params.min_th_bytes) /
                        (params.max_th_bytes - params.min_th_bytes);
    // Uniformised drop probability (gentle variant of the original paper).
    const double denom =
        1.0 - static_cast<double>(red.count_since_drop) * base;
    prob = denom <= 0.0 ? 1.0 : base / denom;
  }
  if (prob <= 0.0) {
    red.count_since_drop = 0;
    return false;
  }
  // xorshift64* for a deterministic uniform draw.
  red.rng_state ^= red.rng_state >> 12;
  red.rng_state ^= red.rng_state << 25;
  red.rng_state ^= red.rng_state >> 27;
  const double u =
      static_cast<double>((red.rng_state * 0x2545F4914F6CDD1DULL) >> 11) *
      0x1.0p-53;
  if (u < prob) {
    red.count_since_drop = 0;
    return true;
  }
  ++red.count_since_drop;
  return false;
}

bool PacketQueue::drop(const sim::Packet& p) {
  ++drops_;
  dropped_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
  return false;
}

sim::Packet PacketQueue::pop() {
  HBP_ASSERT(!q_.empty());
  sim::Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  HBP_ASSERT(bytes_ >= 0);
  return p;
}

std::int64_t PacketQueue::recount_bytes() const {
  std::int64_t total = 0;
  q_.for_each([&total](const sim::Packet& p) { total += p.size_bytes; });
  return total;
}

}  // namespace hbp::net
