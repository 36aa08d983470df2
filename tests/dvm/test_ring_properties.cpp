// Property tests for the consistent-hash ring (dvm/ring.hpp): load balance
// at several cluster sizes, minimal remapping on join/leave, and shard-map
// placement sanity. All properties are swept over placement seeds — the
// ring is fully deterministic per seed, so a passing sweep pins the
// behavior byte-for-byte.
#include "dvm/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace h2::dvm {
namespace {

constexpr std::uint64_t kSweepSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

std::vector<std::string> member_names(std::size_t count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

HashRing build_ring(std::size_t members, std::size_t vnodes, std::uint64_t seed) {
  HashRing ring(vnodes, seed);
  for (auto& name : member_names(members)) ring.add(std::move(name));
  return ring;
}

std::string token_name(std::size_t i) { return "shard/" + std::to_string(i); }

// ---- balance -----------------------------------------------------------------

// With vnodes virtual nodes per member, the primary-ownership load over a
// large token population stays within a constant factor of the mean. The
// bounds are empirical for this hash/seed family but hold across the whole
// sweep — a regression in point placement (e.g. correlated vnode points)
// blows straight through them.
void check_balance(std::size_t members, std::size_t vnodes, std::size_t tokens,
                   double max_over_mean, double min_over_mean) {
  for (std::uint64_t seed : kSweepSeeds) {
    HashRing ring = build_ring(members, vnodes, seed);
    std::map<std::string, std::size_t> load;
    for (std::size_t t = 0; t < tokens; ++t) ++load[ring.primary(token_name(t))];
    ASSERT_EQ(load.size(), members)
        << "seed=" << seed << ": some member owns zero tokens";
    const double mean = static_cast<double>(tokens) / static_cast<double>(members);
    for (const auto& [member, count] : load) {
      EXPECT_LE(static_cast<double>(count), max_over_mean * mean)
          << "seed=" << seed << " member=" << member;
      EXPECT_GE(static_cast<double>(count), min_over_mean * mean)
          << "seed=" << seed << " member=" << member;
    }
  }
}

TEST(RingBalance, SixteenMembers) { check_balance(16, 64, 4096, 1.75, 0.40); }
TEST(RingBalance, SixtyFourMembers) { check_balance(64, 64, 16384, 1.90, 0.30); }
TEST(RingBalance, TwoFiftySixMembers) { check_balance(256, 64, 65536, 2.10, 0.20); }

TEST(RingBalance, MoreVnodesTightenTheSpread) {
  // The balancing mechanism itself: at a fixed size, the worst-case
  // max/mean ratio over the sweep shrinks as vnodes grow.
  auto worst_ratio = [](std::size_t vnodes) {
    double worst = 0.0;
    for (std::uint64_t seed : kSweepSeeds) {
      HashRing ring = build_ring(64, vnodes, seed);
      std::map<std::string, std::size_t> load;
      for (std::size_t t = 0; t < 16384; ++t) ++load[ring.primary(token_name(t))];
      for (const auto& [member, count] : load) {
        worst = std::max(worst, static_cast<double>(count) / (16384.0 / 64.0));
      }
    }
    return worst;
  };
  EXPECT_LT(worst_ratio(64), worst_ratio(1));
}

// ---- minimal remapping -------------------------------------------------------

std::map<std::string, std::string> primaries(const HashRing& ring, std::size_t tokens) {
  std::map<std::string, std::string> owner;
  for (std::size_t t = 0; t < tokens; ++t) {
    std::string token = token_name(t);
    owner[token] = ring.primary(token);
  }
  return owner;
}

TEST(RingRemapping, JoinMovesOnlyItsShareAndOnlyToTheNewcomer) {
  constexpr std::size_t kTokens = 4096;
  for (std::size_t members : {16, 64}) {
    for (std::uint64_t seed : kSweepSeeds) {
      HashRing ring = build_ring(members, 64, seed);
      auto before = primaries(ring, kTokens);
      ring.add("newcomer");
      auto after = primaries(ring, kTokens);
      std::size_t moved = 0;
      for (const auto& [token, owner] : before) {
        if (after.at(token) != owner) {
          ++moved;
          // Every remapped token lands on the joiner — nothing shuffles
          // between existing members.
          EXPECT_EQ(after.at(token), "newcomer") << "seed=" << seed;
        }
      }
      // Expected share is T/(M+1); allow 2x for hash variance.
      EXPECT_LE(moved, 2 * kTokens / (members + 1))
          << "members=" << members << " seed=" << seed;
      EXPECT_GT(moved, 0u) << "members=" << members << " seed=" << seed;
    }
  }
}

TEST(RingRemapping, LeaveMovesOnlyTheDepartedShare) {
  constexpr std::size_t kTokens = 4096;
  for (std::size_t members : {16, 64}) {
    for (std::uint64_t seed : kSweepSeeds) {
      HashRing ring = build_ring(members, 64, seed);
      auto before = primaries(ring, kTokens);
      ring.remove("m0");
      auto after = primaries(ring, kTokens);
      std::size_t moved = 0;
      for (const auto& [token, owner] : before) {
        if (after.at(token) != owner) {
          ++moved;
          // Only tokens the departed member owned may move.
          EXPECT_EQ(owner, "m0") << "seed=" << seed << " token=" << token;
        }
      }
      EXPECT_LE(moved, 2 * kTokens / members)
          << "members=" << members << " seed=" << seed;
    }
  }
}

TEST(RingRemapping, RejoinRestoresTheExactPriorPlacement) {
  // Determinism across membership churn: remove + re-add reproduces the
  // original placement bit-for-bit (seeded points, no history).
  HashRing ring = build_ring(16, 32, 7);
  auto before = primaries(ring, 1024);
  ring.remove("m7");
  ring.add("m7");
  EXPECT_EQ(primaries(ring, 1024), before);
}

// ---- replica sets ------------------------------------------------------------

TEST(RingOwners, DistinctAndPrimaryFirst) {
  for (std::uint64_t seed : kSweepSeeds) {
    HashRing ring = build_ring(8, 16, seed);
    for (std::size_t t = 0; t < 64; ++t) {
      auto owners = ring.owners(token_name(t), 3);
      ASSERT_EQ(owners.size(), 3u);
      std::set<std::string> distinct(owners.begin(), owners.end());
      EXPECT_EQ(distinct.size(), 3u) << "seed=" << seed;
      EXPECT_EQ(owners.front(), ring.primary(token_name(t)));
    }
  }
}

TEST(RingOwners, CountClampsToMembership) {
  HashRing ring = build_ring(2, 8, 1);
  EXPECT_EQ(ring.owners("shard/0", 5).size(), 2u);
  HashRing empty(8, 1);
  EXPECT_TRUE(empty.owners("shard/0", 3).empty());
  EXPECT_EQ(empty.primary("shard/0"), "");
}

TEST(RingOwners, RemovalNeverEvictsSurvivingOwners) {
  // The handoff-correctness lemma: when a member leaves, every surviving
  // owner of every token keeps its copy assignment — replacements are only
  // appended. (A join can evict at most the last owner.)
  for (std::uint64_t seed : kSweepSeeds) {
    HashRing ring = build_ring(8, 16, seed);
    std::map<std::string, std::vector<std::string>> before;
    for (std::size_t t = 0; t < 64; ++t) {
      before[token_name(t)] = ring.owners(token_name(t), 3);
    }
    ring.remove("m3");
    for (const auto& [token, owners] : before) {
      auto after = ring.owners(token, 3);
      std::set<std::string> now(after.begin(), after.end());
      for (const auto& owner : owners) {
        if (owner == "m3") continue;
        EXPECT_TRUE(now.contains(owner))
            << "seed=" << seed << " token=" << token << " evicted " << owner;
      }
    }
  }
}

// ---- shard map ---------------------------------------------------------------

TEST(ShardMapTest, OwnersAreDistinctAliveAndSizedMinRM) {
  for (std::size_t members : {1, 2, 3, 5, 8}) {
    ShardConfig config{.shards = 16, .replicas = 3, .vnodes = 16, .seed = 42};
    ShardMap map(config);
    auto names = member_names(members);
    map.rebuild(names);
    const std::size_t expect = std::min<std::size_t>(3, members);
    for (std::size_t s = 0; s < map.shard_count(); ++s) {
      auto owners = map.owners(s);
      ASSERT_EQ(owners.size(), expect) << "members=" << members << " shard=" << s;
      std::set<std::string> distinct(owners.begin(), owners.end());
      EXPECT_EQ(distinct.size(), expect);
      for (const auto& owner : owners) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), owner) != names.end());
        EXPECT_TRUE(map.is_owner(s, owner));
      }
    }
  }
}

TEST(ShardMapTest, KeyRoutingMatchesShardOfKey) {
  ShardMap map(ShardConfig{.shards = 8});
  EXPECT_EQ(map.shard_of("app/phase"), shard_of_key("app/phase", 8));
  EXPECT_EQ(map.shard_of("app/phase"), map.shard_of("app/phase"));
  EXPECT_LT(map.shard_of("anything"), 8u);
}

TEST(ShardMapTest, RebuildIsDeterministicPerSeed) {
  ShardConfig config{.shards = 32, .replicas = 2, .vnodes = 8, .seed = 9};
  ShardMap a(config), b(config);
  auto names = member_names(6);
  a.rebuild(names);
  b.rebuild(names);
  for (std::size_t s = 0; s < 32; ++s) {
    EXPECT_EQ(std::vector<std::string>(a.owners(s).begin(), a.owners(s).end()),
              std::vector<std::string>(b.owners(s).begin(), b.owners(s).end()));
  }
}

TEST(ShardMapTest, DifferentSeedsProduceDifferentPlacements) {
  auto names = member_names(6);
  ShardMap a(ShardConfig{.shards = 64, .seed = 1});
  ShardMap b(ShardConfig{.shards = 64, .seed = 2});
  a.rebuild(names);
  b.rebuild(names);
  std::size_t differing = 0;
  for (std::size_t s = 0; s < 64; ++s) {
    if (a.owners(s).front() != b.owners(s).front()) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

}  // namespace
}  // namespace h2::dvm
