#include "honeypot/schedule.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hbp::honeypot {

std::size_t Schedule::epoch_of(sim::SimTime t) const {
  HBP_ASSERT(t >= sim::SimTime::zero());
  return static_cast<std::size_t>(t.nanos() / epoch_length().nanos()) + 1;
}

sim::SimTime Schedule::epoch_start(std::size_t epoch) const {
  HBP_ASSERT(epoch >= 1);
  return sim::SimTime(static_cast<std::int64_t>(epoch - 1) *
                      epoch_length().nanos());
}

sim::SimTime Schedule::epoch_end(std::size_t epoch) const {
  return epoch_start(epoch) + epoch_length();
}

namespace {
std::uint64_t seed_from_key(const util::Digest& key) {
  std::uint64_t s = 0;
  for (int i = 0; i < 8; ++i) s = (s << 8) | key[static_cast<std::size_t>(i)];
  return s;
}
}  // namespace

RoamingSchedule::RoamingSchedule(std::shared_ptr<const HashChain> chain,
                                 int n_servers, int k_active,
                                 sim::SimTime epoch_length)
    : chain_(std::move(chain)),
      n_(n_servers),
      k_(k_active),
      m_(epoch_length),
      words_((static_cast<std::size_t>(n_servers) + 63) / 64),
      masks_(kSlots * words_),
      draw_(static_cast<std::size_t>(n_servers)) {
  HBP_ASSERT(chain_ != nullptr);
  HBP_ASSERT(n_ >= 1);
  HBP_ASSERT(k_ >= 1 && k_ <= n_);
  HBP_ASSERT(m_ > sim::SimTime::zero());
}

std::uint64_t RoamingSchedule::epoch_seed(std::size_t epoch) const {
  // Epochs beyond the chain wrap around; a production deployment would
  // provision a long-enough chain and re-key.
  const std::size_t idx = ((epoch - 1) % chain_->length()) + 1;
  return seed_from_key(chain_->key(idx));
}

const std::uint64_t* RoamingSchedule::active_mask(std::size_t epoch) const {
  HBP_ASSERT(epoch >= 1);
  const std::size_t slot = epoch % kSlots;
  std::uint64_t* mask = masks_.data() + slot * words_;
  if (slot_epoch_[slot] == epoch) return mask;

  // The same draw as Rng::choose(n, k) over the epoch's key.
  for (std::size_t i = 0; i < draw_.size(); ++i) draw_[i] = i;
  util::Rng rng(epoch_seed(epoch));
  rng.partial_shuffle(draw_, static_cast<std::size_t>(k_));
  std::fill(mask, mask + words_, std::uint64_t{0});
  for (std::size_t i = 0; i < static_cast<std::size_t>(k_); ++i) {
    mask[draw_[i] / 64] |= std::uint64_t{1} << (draw_[i] % 64);
  }
  slot_epoch_[slot] = epoch;
  return mask;
}

std::vector<int> RoamingSchedule::active_servers(std::size_t epoch) const {
  const std::uint64_t* mask = active_mask(epoch);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(k_));
  for (int s = 0; s < n_; ++s) {
    if ((mask[s / 64] >> (s % 64)) & 1) out.push_back(s);
  }
  return out;
}

bool RoamingSchedule::is_active(int server, std::size_t epoch) const {
  HBP_ASSERT(server >= 0 && server < n_);
  const std::uint64_t* mask = active_mask(epoch);
  return ((mask[server / 64] >> (server % 64)) & 1) != 0;
}

BernoulliSchedule::BernoulliSchedule(std::shared_ptr<const HashChain> chain,
                                     double p, sim::SimTime epoch_length)
    : chain_(std::move(chain)), p_(p), m_(epoch_length) {
  HBP_ASSERT(chain_ != nullptr);
  HBP_ASSERT(p >= 0.0 && p <= 1.0);
  HBP_ASSERT(m_ > sim::SimTime::zero());
}

bool BernoulliSchedule::is_active(int server, std::size_t epoch) const {
  HBP_ASSERT(server == 0);
  HBP_ASSERT(epoch >= 1);
  const std::size_t idx = ((epoch - 1) % chain_->length()) + 1;
  util::Rng rng(seed_from_key(chain_->key(idx)));
  return !rng.bernoulli(p_);
}

std::vector<int> BernoulliSchedule::active_servers(std::size_t epoch) const {
  if (is_active(0, epoch)) return {0};
  return {};
}

}  // namespace hbp::honeypot
