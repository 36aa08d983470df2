// Coherency protocol edge cases: degenerate cluster sizes, oversized
// neighborhoods, and erase visibility semantics.
#include <gtest/gtest.h>

#include <map>

#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "util/rng.hpp"

namespace h2::dvm {
namespace {

/// `prefix` followed by `n` ("k3").
std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

class CoherencyEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
  }

  std::unique_ptr<Dvm> build(std::unique_ptr<CoherencyProtocol> protocol,
                             std::size_t nodes) {
    auto dvm = std::make_unique<Dvm>("edge", std::move(protocol));
    for (std::size_t i = 0; i < nodes; ++i) {
      std::string name = "e";
      name += std::to_string(next_host_++);
      containers_.push_back(std::make_unique<container::Container>(
          name, repo_, net_, *net_.add_host(name)));
      EXPECT_TRUE(dvm->add_node(*containers_.back()).ok());
    }
    return dvm;
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  int next_host_ = 0;
};

TEST_F(CoherencyEdgeTest, SingleNodeDvmWorksUnderEveryProtocol) {
  for (auto factory : {+[] { return make_full_synchrony(); },
                       +[] { return make_decentralized(); },
                       +[] { return make_neighborhood(3); },
                       +[] { return make_sharded(ShardConfig{}); }}) {
    auto dvm = build(factory(), 1);
    auto name = dvm->node_names()[0];
    ASSERT_TRUE(dvm->set(name, "k", "v").ok());
    EXPECT_EQ(*dvm->get(name, "k"), "v");
    ASSERT_TRUE(dvm->erase(name, "k").ok());
    EXPECT_FALSE(dvm->get(name, "k").ok());
  }
}

TEST_F(CoherencyEdgeTest, NeighborhoodLargerThanClusterActsLikeFullSynchrony) {
  auto dvm = build(make_neighborhood(10), 3);
  auto names = dvm->node_names();
  net_.reset_stats();
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  // Replicated to every other member, exactly once each.
  EXPECT_EQ(net_.stats().calls, 2u);
  for (const auto& name : names) {
    EXPECT_TRUE(dvm->member(name)->state().get("k").has_value()) << name;
  }
  // Queries are local everywhere.
  net_.reset_stats();
  for (const auto& name : names) {
    EXPECT_TRUE(dvm->get(name, "k").ok());
  }
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(CoherencyEdgeTest, FullSynchronyEraseIsGlobal) {
  auto dvm = build(make_full_synchrony(), 3);
  auto names = dvm->node_names();
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  ASSERT_TRUE(dvm->erase(names[1], "k").ok());  // erase from a non-writer
  for (const auto& name : names) {
    EXPECT_FALSE(dvm->get(name, "k").ok()) << name;
  }
}

TEST_F(CoherencyEdgeTest, NeighborhoodEraseCoversItsReplicas) {
  auto dvm = build(make_neighborhood(1), 4);
  auto names = dvm->node_names();
  // Owner writes (replica lands on its ring successor), then owner erases.
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  ASSERT_TRUE(dvm->erase(names[0], "k").ok());
  for (const auto& name : names) {
    EXPECT_FALSE(dvm->get(name, "k").ok()) << name;
  }
}

TEST_F(CoherencyEdgeTest, OverwriteVisibleEverywhere) {
  for (auto factory : {+[] { return make_full_synchrony(); },
                       +[] { return make_neighborhood(2); },
                       +[] { return make_sharded(ShardConfig{.replicas = 2}); }}) {
    auto dvm = build(factory(), 3);
    auto names = dvm->node_names();
    ASSERT_TRUE(dvm->set(names[0], "k", "old").ok());
    ASSERT_TRUE(dvm->set(names[0], "k", "new").ok());
    for (const auto& name : names) {
      auto value = dvm->get(name, "k");
      ASSERT_TRUE(value.ok()) << name;
      EXPECT_EQ(*value, "new") << name;
    }
  }
}

TEST_F(CoherencyEdgeTest, FullSynchronyBatchIsOneCallPerMember) {
  // The batched write path: N keys replicate to M members in M-1 batched
  // calls (2(M-1) wire messages), not N*(M-1) — the EXP-BATCH bound.
  auto dvm = build(make_full_synchrony(), 4);
  auto names = dvm->node_names();
  const KV writes[] = {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"},
                       {"e", "5"}, {"f", "6"}, {"g", "7"}, {"h", "8"}};
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(names[0], writes).ok());
  EXPECT_EQ(net_.stats().calls, 3u);     // M-1, independent of N=8
  EXPECT_EQ(net_.stats().messages, 6u);  // request+reply per call <= M+N
  for (const auto& name : names) {
    for (const KV& kv : writes) {
      auto value = dvm->get(name, kv.key);
      ASSERT_TRUE(value.ok()) << name << "/" << kv.key;
      EXPECT_EQ(*value, kv.value);
    }
  }
}

TEST_F(CoherencyEdgeTest, BatchCoalescesToLastWritePerKey) {
  auto dvm = build(make_full_synchrony(), 3);
  auto names = dvm->node_names();
  // Three writes to "hot" must collapse into one replicated write carrying
  // the final value; "cold" rides along in the same batch.
  const KV writes[] = {
      {"hot", "v1"}, {"cold", "c"}, {"hot", "v2"}, {"hot", "v3"}};
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(names[0], writes).ok());
  EXPECT_EQ(net_.stats().calls, 2u);  // still M-1 batched calls
  for (const auto& name : names) {
    EXPECT_EQ(*dvm->get(name, "hot"), "v3") << name;
    EXPECT_EQ(*dvm->get(name, "cold"), "c") << name;
  }
}

TEST_F(CoherencyEdgeTest, NeighborhoodBatchReplicatesAlongTheRing) {
  auto dvm = build(make_neighborhood(1), 4);
  auto names = dvm->node_names();
  const KV writes[] = {{"x", "1"}, {"y", "2"}, {"z", "3"}};
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(names[0], writes).ok());
  EXPECT_EQ(net_.stats().calls, 1u);  // one batched call to the successor
  // Present on origin and its ring successor, absent elsewhere.
  EXPECT_TRUE(dvm->member(names[0])->state().get("x").has_value());
  EXPECT_TRUE(dvm->member(names[1])->state().get("x").has_value());
  EXPECT_FALSE(dvm->member(names[2])->state().get("x").has_value());
  EXPECT_FALSE(dvm->member(names[3])->state().get("x").has_value());
}

TEST_F(CoherencyEdgeTest, DecentralizedBatchStaysLocal) {
  auto dvm = build(make_decentralized(), 3);
  auto names = dvm->node_names();
  const KV writes[] = {{"k1", "v1"}, {"k2", "v2"}};
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(names[1], writes).ok());
  EXPECT_EQ(net_.stats().calls, 0u);
  EXPECT_TRUE(dvm->member(names[1])->state().get("k1").has_value());
  EXPECT_FALSE(dvm->member(names[0])->state().get("k1").has_value());
}

// make_decentralized() is make_neighborhood(0): one seeded mix of sets,
// write storms (with a key overwritten inside the storm), reads and
// erases leaves the same state on every node, reads the same answers and
// sends the same traffic under either factory. Both factories build the
// same class today, so this guards against a second decentralized class
// coming back with its own behaviour (e.g. a set_batch that applies
// writes one by one instead of coalescing them).
TEST_F(CoherencyEdgeTest, DecentralizedIsNeighborhoodOfZero) {
  struct Outcome {
    std::vector<std::map<std::string, std::string>> state;
    std::vector<std::string> reads;
    net::NetStats traffic;
  };
  auto run = [this](std::unique_ptr<CoherencyProtocol> protocol) {
    constexpr std::size_t kMembers = 4;
    net::SimNetwork net;
    std::vector<std::unique_ptr<container::Container>> containers;
    Dvm dvm("mix", std::move(protocol));
    for (std::size_t i = 0; i < kMembers; ++i) {
      std::string name = numbered("m", i);
      containers.push_back(
          std::make_unique<container::Container>(name, repo_, net, *net.add_host(name)));
      EXPECT_TRUE(dvm.add_node(*containers.back()).ok());
    }
    net.reset_stats();
    Rng rng(24);
    Outcome out;
    for (std::uint64_t op = 0; op < 400; ++op) {
      const std::string node = numbered("m", rng.next_below(kMembers));
      const std::string key = numbered("k", rng.next_below(6));
      const std::string other = numbered("k", rng.next_below(6));
      const std::string value = numbered("v", op);
      const std::string later = value + "'";
      switch (rng.next_below(4)) {
        case 0:
          EXPECT_TRUE(dvm.set(node, key, value).ok());
          break;
        case 1: {
          const KV writes[] = {{key, value}, {other, value}, {key, later}};
          EXPECT_TRUE(dvm.set_batch(node, writes).ok());
          break;
        }
        case 2: {
          auto got = dvm.get(node, key);
          out.reads.push_back(got.ok() ? *got : got.error().describe());
          break;
        }
        default:
          EXPECT_TRUE(dvm.erase(node, key).ok());
          break;
      }
    }
    for (const std::string& name : dvm.node_names()) {
      const StateStore& store = dvm.member(name)->state();
      std::map<std::string, std::string> state;
      for (const std::string& key : store.keys()) state[key] = *store.get(key);
      out.state.push_back(std::move(state));
    }
    out.traffic = net.stats();
    return out;
  };

  const Outcome decentralized = run(make_decentralized());
  const Outcome neighborhood = run(make_neighborhood(0));
  EXPECT_EQ(decentralized.state, neighborhood.state);
  EXPECT_EQ(decentralized.reads, neighborhood.reads);
  EXPECT_GT(decentralized.traffic.calls, 0u);  // remote reads happened
  EXPECT_EQ(decentralized.traffic.messages, neighborhood.traffic.messages);
  EXPECT_EQ(decentralized.traffic.bytes, neighborhood.traffic.bytes);
  EXPECT_EQ(decentralized.traffic.calls, neighborhood.traffic.calls);
  EXPECT_STREQ(make_neighborhood(0)->name(), "decentralized");
}

TEST_F(CoherencyEdgeTest, EmptyBatchIsANoOp) {
  auto dvm = build(make_full_synchrony(), 3);
  auto names = dvm->node_names();
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(names[0], {}).ok());
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(CoherencyEdgeTest, ShardedEraseIsGlobalViaTombstones) {
  auto dvm = build(make_sharded(ShardConfig{.shards = 8, .replicas = 2}), 3);
  auto names = dvm->node_names();
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  ASSERT_TRUE(dvm->erase(names[1], "k").ok());  // erase from a non-writer
  for (const auto& name : names) {
    auto value = dvm->get(name, "k");
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.error().code(), ErrorCode::kNotFound) << name;
  }
  // The tombstone outranks a stale resurrection attempt: an owner replica
  // that re-applies the old write version rejects it.
  const ShardMap* map = dvm->shard_map();
  const std::string owner = map->owners(map->shard_of("k")).front();
  auto* state = &dvm->member(owner)->state();
  EXPECT_FALSE(state->apply({"k", "v", {1, 1}, false}));
  EXPECT_FALSE(dvm->get(owner, "k").ok());
}

TEST_F(CoherencyEdgeTest, ShardedReplicasClampToClusterSize) {
  // R=3 on a 2-node cluster: every shard gets both members, and the API
  // contract still holds.
  auto dvm = build(make_sharded(ShardConfig{.shards = 8, .replicas = 3}), 2);
  auto names = dvm->node_names();
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  for (const auto& name : names) {
    EXPECT_EQ(*dvm->get(name, "k"), "v") << name;
    EXPECT_TRUE(dvm->member(name)->state().get("k").has_value()) << name;
  }
}

TEST_F(CoherencyEdgeTest, ShardedBatchIsEmptySafe) {
  auto dvm = build(make_sharded(ShardConfig{}), 3);
  net_.reset_stats();
  ASSERT_TRUE(dvm->set_batch(dvm->node_names()[0], {}).ok());
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(CoherencyEdgeTest, ShardedBatchCoalescesToLastWritePerKey) {
  auto dvm = build(make_sharded(ShardConfig{.shards = 8, .replicas = 2}), 3);
  auto names = dvm->node_names();
  const KV writes[] = {
      {"hot", "v1"}, {"cold", "c"}, {"hot", "v2"}, {"hot", "v3"}};
  ASSERT_TRUE(dvm->set_batch(names[0], writes).ok());
  for (const auto& name : names) {
    EXPECT_EQ(*dvm->get(name, "hot"), "v3") << name;
    EXPECT_EQ(*dvm->get(name, "cold"), "c") << name;
  }
}

TEST_F(CoherencyEdgeTest, ShardedJoinHandsOffAShardLargerThanOneWireFrame) {
  // One shard of 5000 writes (plus the founder's membership key) is more
  // than one XDR batch frame may carry (net::kMaxBatchCalls): the joiner
  // must still receive all of it in the handoff, with nothing parked as a
  // hint and nothing evicted.
  auto dvm = build(make_sharded(ShardConfig{.shards = 1, .replicas = 2}), 1);
  auto founder = dvm->node_names()[0];
  for (int i = 0; i < 5000; ++i) {
    std::string key = "bulk/";
    key += std::to_string(i);
    ASSERT_TRUE(dvm->set(founder, key, "v").ok());
  }
  containers_.push_back(std::make_unique<container::Container>(
      "late", repo_, net_, *net_.add_host("late")));
  ASSERT_TRUE(dvm->add_node(*containers_.back()).ok());
  EXPECT_EQ(net_.metrics().counter_value("h2.dvm.shard.handoff.entries"), 5001u);
  EXPECT_EQ(net_.metrics().counter_value("h2.dvm.shard.hints.parked"), 0u);
  EXPECT_EQ(net_.metrics().counter_value("h2.dvm.shard.hint_evictions"), 0u);
  EXPECT_EQ(dvm->member("late")->state().size(),
            dvm->member(founder)->state().size());
  EXPECT_TRUE(dvm->member("late")->state().shard_snapshot(0, 1) ==
              dvm->member(founder)->state().shard_snapshot(0, 1));
}

TEST_F(CoherencyEdgeTest, ProtocolObjectsAreReusableAcrossMembershipChanges) {
  auto dvm = build(make_full_synchrony(), 2);
  auto names = dvm->node_names();
  ASSERT_TRUE(dvm->set(names[0], "k", "v").ok());
  // Grow the cluster; the same protocol instance handles the new size.
  containers_.push_back(std::make_unique<container::Container>(
      "late", repo_, net_, *net_.add_host("late")));
  ASSERT_TRUE(dvm->add_node(*containers_.back()).ok());
  ASSERT_TRUE(dvm->set(names[0], "k2", "v2").ok());
  EXPECT_EQ(*dvm->get("late", "k2"), "v2");
  EXPECT_EQ(*dvm->get("late", "k"), "v");  // back-filled on join
}

}  // namespace
}  // namespace h2::dvm
