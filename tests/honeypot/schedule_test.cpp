#include "honeypot/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace hbp::honeypot {
namespace {

std::shared_ptr<HashChain> chain() {
  return std::make_shared<HashChain>(util::Sha256::hash("sched"), 512);
}

TEST(RoamingSchedule, ExactlyKActivePerEpoch) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 100; ++e) {
    const auto active = s.active_servers(e);
    EXPECT_EQ(active.size(), 3u);
    for (const int a : active) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, 5);
      EXPECT_TRUE(s.is_active(a, e));
    }
  }
}

TEST(RoamingSchedule, IsActiveConsistentWithActiveSet) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 50; ++e) {
    int active_count = 0;
    for (int srv = 0; srv < 5; ++srv) {
      active_count += s.is_active(srv, e) ? 1 : 0;
    }
    EXPECT_EQ(active_count, 3);
  }
}

TEST(RoamingSchedule, DeterministicAcrossInstances) {
  RoamingSchedule a(chain(), 5, 3, sim::SimTime::seconds(10));
  RoamingSchedule b(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 100; ++e) {
    EXPECT_EQ(a.active_servers(e), b.active_servers(e));
  }
}

TEST(RoamingSchedule, SetsVaryAcrossEpochs) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  int changes = 0;
  auto prev = s.active_servers(1);
  for (std::size_t e = 2; e <= 100; ++e) {
    const auto cur = s.active_servers(e);
    if (cur != prev) ++changes;
    prev = cur;
  }
  EXPECT_GT(changes, 50);  // the schedule actually roams
}

TEST(RoamingSchedule, HoneypotProbabilityMatchesFrequency) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  EXPECT_DOUBLE_EQ(s.honeypot_probability(), 0.4);
  int honeypot_epochs = 0;
  const int epochs = 500;
  for (std::size_t e = 1; e <= epochs; ++e) {
    honeypot_epochs += s.is_active(0, e) ? 0 : 1;
  }
  EXPECT_NEAR(honeypot_epochs / static_cast<double>(epochs), 0.4, 0.06);
}

TEST(RoamingSchedule, EpochArithmetic) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  EXPECT_EQ(s.epoch_of(sim::SimTime::zero()), 1u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(9.999)), 1u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(10)), 2u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(95)), 10u);
  EXPECT_EQ(s.epoch_start(1), sim::SimTime::zero());
  EXPECT_EQ(s.epoch_start(3), sim::SimTime::seconds(20));
  EXPECT_EQ(s.epoch_end(3), sim::SimTime::seconds(30));
}

TEST(RoamingSchedule, AllActiveWhenKEqualsN) {
  RoamingSchedule s(chain(), 5, 5, sim::SimTime::seconds(10));
  EXPECT_DOUBLE_EQ(s.honeypot_probability(), 0.0);
  for (std::size_t e = 1; e <= 20; ++e) {
    EXPECT_EQ(s.active_servers(e).size(), 5u);
  }
}

// Fairness property: over many epochs, every server serves (and plays
// honeypot) at about the same frequency k/N — no server is structurally
// favoured by the key-derived selection.
class ScheduleFairness
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ScheduleFairness, EveryServerActiveAtRateKOverN) {
  const auto [n, k] = GetParam();
  RoamingSchedule s(chain(), n, k, sim::SimTime::seconds(10));
  const int epochs = 2000;
  std::vector<int> active_count(static_cast<std::size_t>(n), 0);
  for (std::size_t e = 1; e <= epochs; ++e) {
    for (const int srv : s.active_servers(e)) {
      ++active_count[static_cast<std::size_t>(srv)];
    }
  }
  const double expected = static_cast<double>(k) / n;
  for (int srv = 0; srv < n; ++srv) {
    EXPECT_NEAR(active_count[static_cast<std::size_t>(srv)] /
                    static_cast<double>(epochs),
                expected, 0.05)
        << "server " << srv << " of " << n << " (k=" << k << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(NK, ScheduleFairness,
                         ::testing::Values(std::make_pair(5, 3),
                                           std::make_pair(5, 1),
                                           std::make_pair(8, 4),
                                           std::make_pair(10, 7),
                                           std::make_pair(3, 2)));

// The memoised active sets against the plain draw: for each epoch, the k
// servers Rng::choose(N, k) picks under the seed of key K_i, where i wraps
// around the chain.  Epochs run over two chain lengths, queried forward,
// backward and in random (epoch, server) order so the memo slots are
// filled, reused and evicted in every pattern.
enum class QueryOrder { kForward, kBackward, kRandom };

class ScheduleMemo
    : public ::testing::TestWithParam<std::tuple<std::pair<int, int>, QueryOrder>> {};

TEST_P(ScheduleMemo, IsActiveMatchesDirectDraw) {
  const auto [nk, order] = GetParam();
  const auto [n, k] = nk;
  constexpr std::size_t kChainLength = 40;
  const auto short_chain =
      std::make_shared<HashChain>(util::Sha256::hash("memo"), kChainLength);
  RoamingSchedule s(short_chain, n, k, sim::SimTime::seconds(10));

  const std::size_t epochs = 2 * kChainLength;
  auto expected = [&](std::size_t e) {
    const util::Digest& key = short_chain->key((e - 1) % kChainLength + 1);
    std::uint64_t seed = 0;
    for (int i = 0; i < 8; ++i) seed = (seed << 8) | key[static_cast<std::size_t>(i)];
    util::Rng rng(seed);
    std::vector<bool> active(static_cast<std::size_t>(n), false);
    for (const std::size_t c : rng.choose(static_cast<std::size_t>(n),
                                          static_cast<std::size_t>(k))) {
      active[c] = true;
    }
    return active;
  };

  std::vector<std::pair<std::size_t, int>> queries;
  for (std::size_t e = 1; e <= epochs; ++e) {
    for (int srv = 0; srv < n; ++srv) queries.emplace_back(e, srv);
  }
  if (order == QueryOrder::kBackward) {
    std::reverse(queries.begin(), queries.end());
  } else if (order == QueryOrder::kRandom) {
    util::Rng shuffle_rng(7);
    shuffle_rng.shuffle(queries);
  }

  for (const auto& [e, srv] : queries) {
    const std::vector<bool> want = expected(e);
    ASSERT_EQ(s.is_active(srv, e), want[static_cast<std::size_t>(srv)])
        << "epoch " << e << " server " << srv;
    if (srv == 0) {
      const std::vector<int> active = s.active_servers(e);
      ASSERT_EQ(active.size(), static_cast<std::size_t>(k));
      for (const int a : active) {
        ASSERT_TRUE(want[static_cast<std::size_t>(a)]) << "epoch " << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NKOrder, ScheduleMemo,
    ::testing::Combine(::testing::Values(std::make_pair(5, 3),
                                         std::make_pair(5, 5),
                                         std::make_pair(64, 1),
                                         std::make_pair(70, 35)),
                       ::testing::Values(QueryOrder::kForward,
                                         QueryOrder::kBackward,
                                         QueryOrder::kRandom)));

TEST(BernoulliSchedule, FrequencyMatchesP) {
  BernoulliSchedule s(chain(), 0.3, sim::SimTime::seconds(10));
  EXPECT_DOUBLE_EQ(s.honeypot_probability(), 0.3);
  int honeypots = 0;
  const int epochs = 500;
  for (std::size_t e = 1; e <= epochs; ++e) {
    honeypots += s.is_active(0, e) ? 0 : 1;
  }
  EXPECT_NEAR(honeypots / static_cast<double>(epochs), 0.3, 0.05);
}

TEST(BernoulliSchedule, ActiveSetMatchesIsActive) {
  BernoulliSchedule s(chain(), 0.5, sim::SimTime::seconds(5));
  for (std::size_t e = 1; e <= 50; ++e) {
    const auto active = s.active_servers(e);
    EXPECT_EQ(active.empty(), !s.is_active(0, e));
  }
}

TEST(BernoulliSchedule, ExtremeProbabilities) {
  BernoulliSchedule never(chain(), 0.0, sim::SimTime::seconds(5));
  BernoulliSchedule always(chain(), 1.0, sim::SimTime::seconds(5));
  for (std::size_t e = 1; e <= 50; ++e) {
    EXPECT_TRUE(never.is_active(0, e));
    EXPECT_FALSE(always.is_active(0, e));
  }
}

}  // namespace
}  // namespace hbp::honeypot
