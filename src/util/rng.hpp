// Deterministic random number generation.
//
// All randomness in a simulation flows from a single 64-bit master seed.
// A SplitMix64 stream derives independent sub-seeds for per-component
// xoshiro256** generators, so adding a new consumer of randomness never
// perturbs the draws seen by existing components (stream independence).
//
// We implement the generators ourselves instead of using <random> engines
// because the C++ standard does not pin down distribution algorithms across
// implementations, and reproducibility of experiment tables matters here.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace hbp::util {

// SplitMix64: used only for seeding other generators.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality, 2^256-1 period general-purpose PRNG.
class Rng {
 public:
  // Zero state would be a fixed point; SplitMix64 seeding avoids it.
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    HBP_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t below(std::uint64_t n) {
    HBP_ASSERT(n > 0);
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    HBP_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Exponential with the given mean (> 0).
  double exponential(double mean);

  // Sample an index according to (unnormalised, non-negative) weights.
  std::size_t weighted(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

  // Choose k distinct indices out of n (reservoir-free partial shuffle).
  std::vector<std::size_t> choose(std::size_t n, std::size_t k);

  // The partial Fisher-Yates shuffle behind choose(): moves k uniformly
  // drawn entries of `idx` into idx[0, k).  choose(n, k) is this over
  // 0..n-1, so callers with their own buffer draw the same k without
  // allocating.
  void partial_shuffle(std::span<std::size_t> idx, std::size_t k) {
    HBP_ASSERT(k <= idx.size());
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(idx[i], idx[i + below(idx.size() - i)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Derives named sub-seeds from a master seed; the same (master, tag) pair
// always yields the same sub-seed, independent of call order.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t tag);

}  // namespace hbp::util
