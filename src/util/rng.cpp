#include "util/rng.hpp"

#include <cmath>

namespace hbp::util {

double Rng::exponential(double mean) {
  HBP_ASSERT(mean > 0.0);
  // Avoid log(0): uniform() is in [0,1), so 1-u is in (0,1].
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::weighted(std::span<const double> weights) {
  HBP_ASSERT(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    HBP_ASSERT(w >= 0.0);
    total += w;
  }
  HBP_ASSERT(total > 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

std::vector<std::size_t> Rng::choose(std::size_t n, std::size_t k) {
  HBP_ASSERT(k <= n);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  partial_shuffle(idx, k);
  idx.resize(k);
  return idx;
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t tag) {
  SplitMix64 sm(master ^ (0x6a09e667f3bcc909ULL + tag * 0x9e3779b97f4a7c15ULL));
  sm.next();
  return sm.next();
}

}  // namespace hbp::util
