// Pseudo-random roaming schedule shared by servers and legitimate clients.
//
// Each epoch i, the key K_i of the hash chain seeds a deterministic draw of
// the k active servers out of N; the other N-k act as honeypots
// (Section 4).  Anyone holding K_i (servers; subscribed clients) computes
// the same active set; an outside attacker cannot predict it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "honeypot/hash_chain.hpp"
#include "sim/time.hpp"

namespace hbp::honeypot {

class Schedule {
 public:
  virtual ~Schedule() = default;

  virtual int server_count() const = 0;
  virtual sim::SimTime epoch_length() const = 0;

  // Active-set query; epoch indices start at 1 (epoch i covers
  // [(i-1)*m, i*m)).
  virtual bool is_active(int server, std::size_t epoch) const = 0;
  virtual std::vector<int> active_servers(std::size_t epoch) const = 0;

  // Probability that a given server is a honeypot in a given epoch.
  virtual double honeypot_probability() const = 0;

  std::size_t epoch_of(sim::SimTime t) const;
  sim::SimTime epoch_start(std::size_t epoch) const;
  sim::SimTime epoch_end(std::size_t epoch) const;
};

// The paper's k-of-N roaming schedule.
class RoamingSchedule final : public Schedule {
 public:
  RoamingSchedule(std::shared_ptr<const HashChain> chain, int n_servers,
                  int k_active, sim::SimTime epoch_length);

  int server_count() const override { return n_; }
  sim::SimTime epoch_length() const override { return m_; }
  bool is_active(int server, std::size_t epoch) const override;
  std::vector<int> active_servers(std::size_t epoch) const override;
  double honeypot_probability() const override {
    return static_cast<double>(n_ - k_) / static_cast<double>(n_);
  }
  int active_count() const { return k_; }

 private:
  std::uint64_t epoch_seed(std::size_t epoch) const;

  // The active set of `epoch` as an n-bit mask, drawn on first use and
  // memoised per epoch.  ServerPool asks for epochs e-1, e and e+1 around
  // the current time, so a few slots keyed by epoch never thrash.  All
  // storage is sized in the constructor: a lookup never allocates.
  const std::uint64_t* active_mask(std::size_t epoch) const;

  static constexpr std::size_t kSlots = 4;

  std::shared_ptr<const HashChain> chain_;
  int n_;
  int k_;
  sim::SimTime m_;
  std::size_t words_;  // 64-bit words per mask
  mutable std::array<std::size_t, kSlots> slot_epoch_{};  // 0: empty
  mutable std::vector<std::uint64_t> masks_;  // kSlots * words_
  mutable std::vector<std::size_t> draw_;     // n_ indices for the draw
};

// Single-server schedule where each epoch is independently a honeypot epoch
// with probability p — the Bernoulli-trial model of the Section 7 analysis,
// used by the Fig. 6 validation sweeps (p is swept freely there, which k/N
// cannot express for one server).
class BernoulliSchedule final : public Schedule {
 public:
  BernoulliSchedule(std::shared_ptr<const HashChain> chain, double p,
                    sim::SimTime epoch_length);

  int server_count() const override { return 1; }
  sim::SimTime epoch_length() const override { return m_; }
  bool is_active(int server, std::size_t epoch) const override;
  std::vector<int> active_servers(std::size_t epoch) const override;
  double honeypot_probability() const override { return p_; }

 private:
  std::shared_ptr<const HashChain> chain_;
  double p_;
  sim::SimTime m_;
};

}  // namespace hbp::honeypot
