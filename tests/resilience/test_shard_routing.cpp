// ShardRoutedChannel: shard-map routing of DVM state calls, sticky-primary
// failover inside a shard's replica set, the kTimeout-only terminal error
// contract, and the kUnsupported guard on non-sharded DVMs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "resilience/failover.hpp"
#include "resilience/policy.hpp"

namespace h2::resil {
namespace {

class ShardRoutingTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<dvm::Dvm>(
        "sr", dvm::make_sharded(dvm::ShardConfig{.shards = 8, .replicas = 2}));
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
    policy_.max_attempts = 2;
  }

  std::vector<std::string> owners_of(std::string_view key) {
    const dvm::ShardMap* map = dvm_->shard_map();
    auto owners = map->owners(map->shard_of(key));
    return {owners.begin(), owners.end()};
  }

  /// A key whose owner set excludes the channel origin n0, so partitions
  /// between origin and the owners are expressible.
  std::string key_not_owned_by_origin() {
    for (int i = 0; i < 64; ++i) {
      std::string key = "probe/" + std::to_string(i);
      auto owners = owners_of(key);
      if (std::find(owners.begin(), owners.end(), "n0") == owners.end()) return key;
    }
    ADD_FAILURE() << "no shard without n0 among its owners";
    return "probe/0";
  }

  void cut(const std::string& a, const std::string& b) {
    ASSERT_TRUE(net_.partition(*net_.resolve(a), *net_.resolve(b)).ok());
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<dvm::Dvm> dvm_;
  CallPolicy policy_;
};

TEST_F(ShardRoutingTest, RequiresShardedCoherencyMode) {
  net::SimNetwork net;
  kernel::PluginRepository repo;
  ASSERT_TRUE(plugins::register_standard_plugins(repo).ok());
  dvm::Dvm plain("plain", dvm::make_full_synchrony());
  auto host = *net.add_host("solo");
  container::Container solo("solo", repo, net, host);
  ASSERT_TRUE(plain.add_node(solo).ok());

  ShardRoutedChannel channel(plain, solo, policy_);
  auto got = channel.get("k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code(), ErrorCode::kUnsupported);
  auto set = channel.set("k", "v");
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.error().code(), ErrorCode::kUnsupported);
}

TEST_F(ShardRoutingTest, SetRoutesToAnOwnerAndReplicates) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  ASSERT_TRUE(channel.set("user/k", "v").ok());
  auto owners = owners_of("user/k");
  // The serving node is a real owner of the key's shard…
  EXPECT_TRUE(std::find(owners.begin(), owners.end(),
                        channel.routed_node("user/k")) != owners.end());
  // …and the write reached every owner (replication leg), no one else.
  for (const auto& name : dvm_->node_names()) {
    const bool owner = std::find(owners.begin(), owners.end(), name) != owners.end();
    EXPECT_EQ(dvm_->member(name)->state().get("user/k").has_value(), owner) << name;
  }
  auto got = channel.get("user/k");
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v");
}

TEST_F(ShardRoutingTest, MissingKeyIsNotFound) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  auto got = channel.get("no/such/key");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code(), ErrorCode::kNotFound);
}

TEST_F(ShardRoutingTest, StickyPrimaryFailsOverWithinTheReplicaSet) {
  std::vector<std::string> events;
  auto subscription = containers_[0]->kernel().events().subscribe(
      "dvm/failover", [&](const Value& payload) {
        events.push_back(payload.as_string().ok() ? *payload.as_string() : "?");
      });

  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  const std::string key = key_not_owned_by_origin();
  ASSERT_TRUE(channel.set(key, "v1").ok());
  const std::string first = channel.routed_node(key);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(channel.failovers(), 0u);

  // Cut the origin off from the sticky owner. The map still lists it (no
  // membership change), so the walk must skip to the other replica.
  cut("n0", first);
  ASSERT_TRUE(channel.set(key, "v2").ok());
  const std::string second = channel.routed_node(key);
  EXPECT_NE(second, first);
  auto owners = owners_of(key);
  EXPECT_TRUE(std::find(owners.begin(), owners.end(), second) != owners.end());
  EXPECT_EQ(channel.failovers(), 1u);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.shard.failovers"), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "dvm-state:" + first + "->" + second);

  // Reads follow the same stickiness; the surviving owner serves v2.
  auto got = channel.get(key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v2");
}

TEST_F(ShardRoutingTest, AllOwnersUnreachableIsTimeout) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  const std::string key = key_not_owned_by_origin();
  for (const auto& owner : owners_of(key)) cut("n0", owner);
  auto set = channel.set(key, "v");
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.error().code(), ErrorCode::kTimeout);
  auto got = channel.get(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code(), ErrorCode::kTimeout);
}

TEST_F(ShardRoutingTest, CrashedOwnerIsRoutedAroundAfterMembershipChange) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  const std::string key = key_not_owned_by_origin();
  ASSERT_TRUE(channel.set(key, "v1").ok());
  const std::string first = channel.routed_node(key);

  // Hard crash + membership update: the map rebuilds without the victim,
  // and handoff re-homes its shards, so the next write routes cleanly.
  ASSERT_TRUE(dvm_->crash_node(first).ok());
  ASSERT_TRUE(channel.set(key, "v2").ok());
  EXPECT_NE(channel.routed_node(key), first);
  auto got = channel.get(key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v2");
}

TEST_F(ShardRoutingTest, BatchGroupsWritesPerRoutedOwner) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  const dvm::KV writes[] = {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"},
                            {"e", "5"}, {"f", "6"}, {"g", "7"}, {"h", "8"}};
  net_.reset_stats();
  ASSERT_TRUE(channel.set_batch(writes).ok());
  // 8 writes × R=2 owners would be 16 unbatched calls; grouping caps the
  // frame count at (routed owners) + (replication targets) ≤ 2 × nodes.
  EXPECT_LE(net_.stats().calls, 2 * kNodes);
  for (const dvm::KV& kv : writes) {
    auto got = channel.get(kv.key);
    ASSERT_TRUE(got.ok()) << kv.key;
    EXPECT_EQ(*got, kv.value);
  }
}

TEST_F(ShardRoutingTest, EmptyBatchIsANoOp) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  net_.reset_stats();
  ASSERT_TRUE(channel.set_batch({}).ok());
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(ShardRoutingTest, RoutedNodeIsEmptyBeforeFirstUse) {
  ShardRoutedChannel channel(*dvm_, *containers_[0], policy_);
  EXPECT_EQ(channel.routed_node("whatever"), "");
}

}  // namespace
}  // namespace h2::resil
