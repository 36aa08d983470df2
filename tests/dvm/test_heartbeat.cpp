// DVM heartbeat / failure detection: a loop-posted probe sweep discovers
// partitioned nodes and converts them into membership failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"

namespace h2::dvm {
namespace {

/// Loop-posted sweep; DVM loops here are eager (no driver attached), so
/// the completion runs before post_probe returns.
Result<std::vector<std::string>> probe(Dvm& dvm, std::string_view from) {
  std::optional<Result<std::vector<std::string>>> outcome;
  dvm.post_probe(from, [&outcome](Result<std::vector<std::string>> r) {
    outcome = std::move(r);
  });
  if (!outcome.has_value()) return err::internal("probe never completed");
  return std::move(*outcome);
}

class HeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<Dvm>("hb", make_full_synchrony());
    for (const char* name : {"A", "B", "C", "D"}) {
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
  }

  void isolate(const char* victim) {
    for (const char* other : {"A", "B", "C", "D"}) {
      if (std::string(other) == victim) continue;
      ASSERT_TRUE(net_.partition(*net_.resolve(victim), *net_.resolve(other)).ok());
    }
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<Dvm> dvm_;
};

TEST_F(HeartbeatTest, HealthyClusterReportsNothing) {
  auto failed = probe(*dvm_, "A");
  ASSERT_TRUE(failed.ok());
  EXPECT_TRUE(failed->empty());
  EXPECT_EQ(dvm_->node_count(), 4u);
}

TEST_F(HeartbeatTest, DetectsIsolatedNode) {
  isolate("C");
  auto failed = probe(*dvm_, "A");
  ASSERT_TRUE(failed.ok());
  ASSERT_EQ(failed->size(), 1u);
  EXPECT_EQ((*failed)[0], "C");
  EXPECT_EQ(dvm_->node_count(), 3u);
  EXPECT_FALSE(dvm_->is_member("C"));
  // The failure is recorded in survivor state.
  auto state = dvm_->get("A", "node/C");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "failed");
}

TEST_F(HeartbeatTest, DetectsMultipleFailures) {
  isolate("B");
  isolate("D");
  auto failed = probe(*dvm_, "A");
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->size(), 2u);
  EXPECT_EQ(dvm_->node_count(), 2u);
}

TEST_F(HeartbeatTest, SurvivorsStillCoherentAfterSweep) {
  isolate("D");
  ASSERT_TRUE(probe(*dvm_, "A").ok());
  ASSERT_TRUE(dvm_->set("B", "post", "ok").ok());
  auto value = dvm_->get("C", "post");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "ok");
}

TEST_F(HeartbeatTest, ProbeFromUnknownNodeFails) {
  EXPECT_FALSE(probe(*dvm_, "Z").ok());
}

TEST_F(HeartbeatTest, ProbeIsIdempotent) {
  isolate("C");
  ASSERT_TRUE(probe(*dvm_, "A").ok());
  auto second = probe(*dvm_, "A");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->empty());  // already removed, not re-reported
}

TEST_F(HeartbeatTest, MembershipEventOnDetection) {
  int failures = 0;
  auto sub = containers_[0]->kernel().events().subscribe(
      "dvm/membership", [&failures](const Value& v) {
        auto text = v.as_string();
        if (text.ok() && text->starts_with("failed:")) ++failures;
      });
  isolate("B");
  ASSERT_TRUE(probe(*dvm_, "A").ok());
  EXPECT_EQ(failures, 1);
}

// ---- shard-aware heartbeat ----------------------------------------------------
// Under the sharded protocol a probe pings only the origin's shard peers
// (members co-owning at least one shard), falling back to broadcast when
// the origin shares no shard with anyone.

class ShardHeartbeatTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 6;

  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    // Few shards on purpose: with 2 shards × R=2 over 6 nodes, most pairs
    // share no shard, so the peer set is a strict subset of the cluster.
    dvm_ = std::make_unique<Dvm>(
        "hb", make_sharded(ShardConfig{.shards = 2, .replicas = 2}));
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
  }

  /// Shard peers of `origin` per the live map (empty → broadcast applies).
  std::set<std::string> shard_peers(const std::string& origin) {
    const ShardMap* map = dvm_->shard_map();
    std::set<std::string> peers;
    for (std::size_t s = 0; s < map->shard_count(); ++s) {
      auto owners = map->owners(s);
      if (std::find(owners.begin(), owners.end(), origin) == owners.end()) continue;
      for (const auto& owner : owners) {
        if (owner != origin) peers.insert(owner);
      }
    }
    return peers;
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<Dvm> dvm_;
};

TEST_F(ShardHeartbeatTest, ProbePingsExactlyTheShardPeers) {
  bool checked_subset = false;
  for (const auto& origin : dvm_->node_names()) {
    auto peers = shard_peers(origin);
    const std::size_t expected = peers.empty() ? kNodes - 1 : peers.size();
    net_.reset_stats();
    auto failed = probe(*dvm_, origin);
    ASSERT_TRUE(failed.ok()) << origin;
    EXPECT_TRUE(failed->empty()) << origin;
    EXPECT_EQ(net_.stats().calls, expected) << origin;
    if (!peers.empty() && peers.size() < kNodes - 1) checked_subset = true;
  }
  // The config above must actually produce a restricted peer set for at
  // least one origin, or this test proves nothing.
  EXPECT_TRUE(checked_subset);
}

TEST_F(ShardHeartbeatTest, IsolatedShardPeerIsDetected) {
  // Pick an origin with a nonempty peer set and isolate one of its peers.
  for (const auto& origin : dvm_->node_names()) {
    auto peers = shard_peers(origin);
    if (peers.empty()) continue;
    const std::string victim = *peers.begin();
    for (const auto& other : dvm_->node_names()) {
      if (other == victim) continue;
      ASSERT_TRUE(net_.partition(*net_.resolve(victim), *net_.resolve(other)).ok());
    }
    auto failed = probe(*dvm_, origin);
    ASSERT_TRUE(failed.ok());
    ASSERT_EQ(failed->size(), 1u);
    EXPECT_EQ((*failed)[0], victim);
    EXPECT_FALSE(dvm_->is_member(victim));
    // Membership state readable from the survivors' shard owners.
    auto state = dvm_->get(origin, "node/" + victim);
    ASSERT_TRUE(state.ok()) << state.error().describe();
    EXPECT_EQ(*state, "failed");
    return;
  }
  FAIL() << "no origin with shard peers in this placement";
}

TEST_F(ShardHeartbeatTest, NonShardedProtocolsStillBroadcast) {
  // The default heartbeat_peers keeps the legacy behavior byte-identical:
  // full synchrony probes ping every other member.
  net::SimNetwork net;
  kernel::PluginRepository repo;
  ASSERT_TRUE(plugins::register_standard_plugins(repo).ok());
  auto dvm = std::make_unique<Dvm>("hb2", make_full_synchrony());
  std::vector<std::unique_ptr<container::Container>> containers;
  for (const char* name : {"A", "B", "C"}) {
    auto host = *net.add_host(name);
    containers.push_back(
        std::make_unique<container::Container>(name, repo, net, host));
    ASSERT_TRUE(dvm->add_node(*containers.back()).ok());
  }
  net.reset_stats();
  ASSERT_TRUE(probe(*dvm, "A").ok());
  EXPECT_EQ(net.stats().calls, 2u);
}

}  // namespace
}  // namespace h2::dvm
