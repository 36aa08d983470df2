// DVM tests: membership, deployment, unified name space — and the paper's
// promise that the DVM API behaves identically under every coherency
// protocol (parameterized suite), while the protocols differ in *where*
// state lives and what traffic they generate.
#include "dvm/dvm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "dvm/merkle.hpp"
#include "plugins/standard.hpp"

namespace h2::dvm {
namespace {

/// Loop-posted anti-entropy pass; the DVM loop is eager here (no driver),
/// so the completion runs before post_anti_entropy returns.
Result<AntiEntropyReport> run_anti_entropy(Dvm& dvm) {
  std::optional<Result<AntiEntropyReport>> outcome;
  dvm.post_anti_entropy(
      [&outcome](Result<AntiEntropyReport> r) { outcome = std::move(r); });
  if (!outcome.has_value()) return err::internal("anti-entropy never completed");
  return std::move(*outcome);
}

enum class Mode { kFullSynchrony, kDecentralized, kNeighborhood, kSharded };

std::unique_ptr<CoherencyProtocol> make_protocol(Mode mode) {
  switch (mode) {
    case Mode::kFullSynchrony: return make_full_synchrony();
    case Mode::kDecentralized: return make_decentralized();
    case Mode::kNeighborhood: return make_neighborhood(1);
    case Mode::kSharded: return make_sharded(ShardConfig{.shards = 16, .replicas = 2});
  }
  return nullptr;
}

class DvmFixtureBase : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  void build(Mode mode) {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<Dvm>("dvm1", make_protocol(mode));
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = std::string(1, static_cast<char>('A' + i));
      auto host = *net_.add_host(name);
      containers_.push_back(std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<Dvm> dvm_;
};

class DvmAllProtocols : public DvmFixtureBase,
                        public ::testing::WithParamInterface<Mode> {
 protected:
  void SetUp() override { build(GetParam()); }
};

TEST_P(DvmAllProtocols, MembershipBasics) {
  EXPECT_EQ(dvm_->node_count(), kNodes);
  EXPECT_TRUE(dvm_->is_member("A"));
  EXPECT_FALSE(dvm_->is_member("Z"));
  EXPECT_EQ(dvm_->node_names(), (std::vector<std::string>{"A", "B", "C", "D"}));
  EXPECT_TRUE(dvm_->member("B").ok());
  auto missing = dvm_->member("Z");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kNotFound);
}

TEST_P(DvmAllProtocols, DuplicateEnrollmentRejected) {
  auto again = dvm_->add_node(*containers_[0]);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);
}

TEST_P(DvmAllProtocols, SetThenGetFromAnyNode) {
  // The API contract that must hold under EVERY protocol.
  ASSERT_TRUE(dvm_->set("B", "app/phase", "3").ok());
  for (const auto& node : dvm_->node_names()) {
    auto value = dvm_->get(node, "app/phase");
    ASSERT_TRUE(value.ok()) << node << ": " << value.error().describe();
    EXPECT_EQ(*value, "3") << node;
  }
}

TEST_P(DvmAllProtocols, SetBatchLargerThanOneWireFrameReachesEveryMember) {
  // More writes than one XDR batch frame may carry (net::kMaxBatchCalls):
  // the replication legs must still land whole on every peer.
  constexpr std::size_t kWrites = 5000;
  std::vector<std::string> keys;
  keys.reserve(kWrites);
  for (std::size_t i = 0; i < kWrites; ++i) {
    std::string key = "bulk/";
    key += std::to_string(i);
    keys.push_back(std::move(key));
  }
  std::vector<KV> writes;
  writes.reserve(kWrites);
  for (const std::string& key : keys) writes.push_back({key, key});
  auto status = dvm_->set_batch("A", writes);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  for (const auto& node : dvm_->node_names()) {
    for (const std::string& key : keys) {
      auto value = dvm_->get(node, key);
      ASSERT_TRUE(value.ok()) << node << " " << key << ": " << value.error().describe();
      EXPECT_EQ(*value, key) << node;
    }
  }
}

TEST_P(DvmAllProtocols, MissingKeyIsNotFoundEverywhere) {
  for (const auto& node : dvm_->node_names()) {
    auto value = dvm_->get(node, "no/such/key");
    ASSERT_FALSE(value.ok()) << node;
    EXPECT_EQ(value.error().code(), ErrorCode::kNotFound) << node;
  }
}

TEST_P(DvmAllProtocols, MembershipVisibleInGlobalState) {
  auto value = dvm_->get("A", "node/C");
  ASSERT_TRUE(value.ok()) << value.error().describe();
  EXPECT_EQ(*value, "alive");
}

TEST_P(DvmAllProtocols, DeployAndLocate) {
  auto qualified = dvm_->deploy("C", "time");
  ASSERT_TRUE(qualified.ok()) << qualified.error().describe();
  EXPECT_TRUE(qualified->starts_with("dvm1/C/time-"));
  EXPECT_EQ(containers_[2]->component_count(), 1u);

  auto where = dvm_->locate("A", *qualified);
  ASSERT_TRUE(where.ok()) << where.error().describe();
  EXPECT_EQ(*where, "C");
}

TEST_P(DvmAllProtocols, UndeployRemovesComponentAndState) {
  auto qualified = dvm_->deploy("B", "ping");
  ASSERT_TRUE(qualified.ok());
  ASSERT_TRUE(dvm_->undeploy(*qualified).ok());
  EXPECT_EQ(containers_[1]->component_count(), 0u);
  EXPECT_FALSE(dvm_->undeploy(*qualified).ok());
  EXPECT_FALSE(dvm_->undeploy("wrongdvm/B/x").ok());
}

TEST_P(DvmAllProtocols, DeployEverywhereReplicatesBaseline) {
  ASSERT_TRUE(dvm_->deploy_everywhere("p2p").ok());
  for (const auto& container : containers_) {
    EXPECT_EQ(container->component_count(), 1u) << container->name();
  }
  EXPECT_EQ(dvm_->status().components, kNodes);
}

TEST_P(DvmAllProtocols, FindServiceAcrossDvm) {
  ASSERT_TRUE(dvm_->deploy("D", "mmul").ok());
  auto defs = dvm_->find_service("MatMulService");
  ASSERT_TRUE(defs.ok()) << defs.error().describe();
  EXPECT_EQ(defs->name, "MatMul");
  EXPECT_FALSE(dvm_->find_service("Ghost").ok());
}

TEST_P(DvmAllProtocols, GracefulRemoveUpdatesMembership) {
  ASSERT_TRUE(dvm_->remove_node("D").ok());
  EXPECT_EQ(dvm_->node_count(), kNodes - 1);
  EXPECT_FALSE(dvm_->is_member("D"));
  EXPECT_FALSE(dvm_->set("D", "x", "1").ok());
  auto status = dvm_->status();
  EXPECT_EQ(status.nodes_alive, kNodes - 1);
  EXPECT_EQ(status.nodes_failed, 1u);
}

TEST_P(DvmAllProtocols, FailedNodeExcludedAndSurvivorsWork) {
  // Partition D away, then declare it failed.
  for (const char* other : {"A", "B", "C"}) {
    ASSERT_TRUE(net_.partition(*net_.resolve("D"), *net_.resolve(other)).ok());
  }
  ASSERT_TRUE(dvm_->mark_failed("D").ok());
  EXPECT_EQ(dvm_->node_count(), kNodes - 1);

  // Survivors continue to agree on state.
  ASSERT_TRUE(dvm_->set("A", "after/failure", "yes").ok());
  auto value = dvm_->get("C", "after/failure");
  ASSERT_TRUE(value.ok()) << value.error().describe();
  EXPECT_EQ(*value, "yes");
  // And the failure is recorded.
  auto node_state = dvm_->get("A", "node/D");
  ASSERT_TRUE(node_state.ok());
  EXPECT_EQ(*node_state, "failed");
}

TEST_P(DvmAllProtocols, MembershipEventsAnnounced) {
  int events = 0;
  auto sub = containers_[0]->kernel().events().subscribe(
      "dvm/membership", [&events](const Value&) { ++events; });
  auto extra_host = *net_.add_host("E");
  auto extra =
      std::make_unique<container::Container>("E", repo_, net_, extra_host);
  ASSERT_TRUE(dvm_->add_node(*extra).ok());
  EXPECT_EQ(events, 1);
  ASSERT_TRUE(dvm_->remove_node("E").ok());
  EXPECT_EQ(events, 2);
  containers_.push_back(std::move(extra));
}

TEST_P(DvmAllProtocols, StatusSnapshot) {
  auto status = dvm_->status();
  EXPECT_EQ(status.name, "dvm1");
  EXPECT_EQ(status.nodes_alive, kNodes);
  EXPECT_EQ(status.components, 0u);
  EXPECT_FALSE(status.coherency.empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, DvmAllProtocols,
                         ::testing::Values(Mode::kFullSynchrony, Mode::kDecentralized,
                                           Mode::kNeighborhood, Mode::kSharded),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           switch (info.param) {
                             case Mode::kFullSynchrony: return "full_synchrony";
                             case Mode::kDecentralized: return "decentralized";
                             case Mode::kNeighborhood: return "neighborhood";
                             case Mode::kSharded: return "sharded";
                           }
                           return "?";
                         });

// ---- protocol-specific cost/placement semantics --------------------------------

class FullSynchronyTest : public DvmFixtureBase {
 protected:
  void SetUp() override { build(Mode::kFullSynchrony); }
};

TEST_F(FullSynchronyTest, UpdateReplicatesToAllNodesImmediately) {
  net_.reset_stats();
  ASSERT_TRUE(dvm_->set("A", "k", "v").ok());
  // One synchronous replication round: (kNodes-1) calls.
  EXPECT_EQ(net_.stats().calls, kNodes - 1);
  for (const auto& container : containers_) {
    SCOPED_TRACE(container->name());
    // Every local store holds the value (read without any network).
  }
  net_.reset_stats();
  auto value = dvm_->get("D", "k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(net_.stats().calls, 0u);  // queries are free
}

TEST_F(FullSynchronyTest, JoinBackFillsNewcomer) {
  ASSERT_TRUE(dvm_->set("A", "pre-join", "42").ok());
  auto host = *net_.add_host("E");
  container::Container extra("E", repo_, net_, host);
  ASSERT_TRUE(dvm_->add_node(extra).ok());
  net_.reset_stats();
  auto value = dvm_->get("E", "pre-join");
  ASSERT_TRUE(value.ok()) << value.error().describe();
  EXPECT_EQ(*value, "42");
  EXPECT_EQ(net_.stats().calls, 0u);  // it was back-filled, read is local
  // Clean removal before `extra` goes out of scope.
  ASSERT_TRUE(dvm_->remove_node("E").ok());
}

TEST_F(FullSynchronyTest, PartitionMakesUpdateFail) {
  ASSERT_TRUE(net_.partition(*net_.resolve("A"), *net_.resolve("B")).ok());
  auto status = dvm_->set("A", "k", "v");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kUnavailable);
}

class DecentralizedTest : public DvmFixtureBase {
 protected:
  void SetUp() override { build(Mode::kDecentralized); }
};

TEST_F(DecentralizedTest, UpdateIsLocalOnly) {
  net_.reset_stats();
  ASSERT_TRUE(dvm_->set("B", "k", "v").ok());
  EXPECT_EQ(net_.stats().calls, 0u);
  // The value lives only on B.
  EXPECT_TRUE(dvm_->member("B")->state().get("k").has_value());
  EXPECT_FALSE(dvm_->member("A")->state().get("k").has_value());
}

TEST_F(DecentralizedTest, QueryTriggersDistributedSearch) {
  ASSERT_TRUE(dvm_->set("D", "k", "v").ok());
  net_.reset_stats();
  auto value = dvm_->get("A", "k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v");
  EXPECT_GT(net_.stats().calls, 0u);  // had to span the DVM
}

TEST_F(DecentralizedTest, PartitionOnlyHurtsQueriesThatCrossIt) {
  ASSERT_TRUE(dvm_->set("D", "k", "v").ok());
  ASSERT_TRUE(net_.partition(*net_.resolve("A"), *net_.resolve("D")).ok());
  // Updates still succeed anywhere.
  EXPECT_TRUE(dvm_->set("A", "other", "1").ok());
  // The distributed query from A dies at the partition.
  EXPECT_FALSE(dvm_->get("A", "k").ok());
  // But from B it still works.
  EXPECT_TRUE(dvm_->get("B", "k").ok());
}

class NeighborhoodTest : public DvmFixtureBase {
 protected:
  void SetUp() override { build(Mode::kNeighborhood); }  // k = 1
};

TEST_F(NeighborhoodTest, ReplicationStopsAtNeighborhoodBoundary) {
  ASSERT_TRUE(dvm_->set("A", "k", "v").ok());
  EXPECT_TRUE(dvm_->member("A")->state().get("k").has_value());
  EXPECT_TRUE(dvm_->member("B")->state().get("k").has_value());   // ring neighbour
  EXPECT_FALSE(dvm_->member("C")->state().get("k").has_value());  // beyond k=1
}

class ShardedTest : public DvmFixtureBase {
 protected:
  void SetUp() override { build(Mode::kSharded); }
};

TEST_F(ShardedTest, WriteTouchesOnlyTheReplicaSet) {
  // O(R) write fan-out: at most R vset calls (R-1 when the origin is
  // itself an owner), never the M-1 of full synchrony.
  net_.reset_stats();
  ASSERT_TRUE(dvm_->set("A", "user/k", "v").ok());
  EXPECT_LE(net_.stats().calls, 2u);  // R = 2
  EXPECT_GE(net_.stats().calls, 1u);
}

TEST_F(ShardedTest, ValueLivesExactlyOnTheOwners) {
  ASSERT_TRUE(dvm_->set("A", "user/k", "v").ok());
  const ShardMap* map = dvm_->shard_map();
  ASSERT_NE(map, nullptr);
  auto owners = map->owners(map->shard_of("user/k"));
  ASSERT_EQ(owners.size(), 2u);
  for (const auto& name : dvm_->node_names()) {
    const bool is_owner =
        std::find(owners.begin(), owners.end(), name) != owners.end();
    EXPECT_EQ(dvm_->member(name)->state().get("user/k").has_value(), is_owner)
        << name;
  }
}

TEST_F(ShardedTest, ReadFromNonOwnerWalksTheOwnerSet) {
  ASSERT_TRUE(dvm_->set("A", "user/k", "v").ok());
  const ShardMap* map = dvm_->shard_map();
  auto owners = map->owners(map->shard_of("user/k"));
  for (const auto& name : dvm_->node_names()) {
    if (std::find(owners.begin(), owners.end(), name) != owners.end()) continue;
    net_.reset_stats();
    auto value = dvm_->get(name, "user/k");
    ASSERT_TRUE(value.ok()) << name;
    EXPECT_EQ(*value, "v");
    EXPECT_GT(net_.stats().calls, 0u) << name;  // had to reach an owner
    return;
  }
  FAIL() << "no non-owner in a 4-node cluster with R=2";
}

TEST_F(ShardedTest, BatchGroupsWritesPerOwnerNode) {
  // N writes fan out as at most one batched call per distinct remote
  // owner (≤ M-1 targets), not N×R individual calls.
  const KV writes[] = {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"},
                       {"e", "5"}, {"f", "6"}, {"g", "7"}, {"h", "8"}};
  net_.reset_stats();
  ASSERT_TRUE(dvm_->set_batch("A", writes).ok());
  EXPECT_LE(net_.stats().calls, kNodes - 1);
  for (const KV& kv : writes) {
    auto value = dvm_->get("C", kv.key);
    ASSERT_TRUE(value.ok()) << kv.key;
    EXPECT_EQ(*value, kv.value);
  }
}

TEST_F(ShardedTest, AntiEntropyRepairsAManuallyDivergedReplica) {
  ASSERT_TRUE(dvm_->set("A", "user/k", "v1").ok());
  const ShardMap* map = dvm_->shard_map();
  auto owners = map->owners(map->shard_of("user/k"));
  ASSERT_EQ(owners.size(), 2u);
  // Hand one replica a newer version behind the protocol's back.
  auto& store = dvm_->member(owners[1])->state();
  auto version = store.version_of("user/k");
  ASSERT_TRUE(version.has_value());
  store.apply({"user/k", "v2", {version->ts + 10, version->writer}, false});
  EXPECT_NE(dvm_->member(owners[0])->state().get("user/k"),
            dvm_->member(owners[1])->state().get("user/k"));

  auto report = run_anti_entropy(*dvm_);
  ASSERT_TRUE(report.ok()) << report.error().describe();
  EXPECT_EQ(report->shards_checked, map->shard_count());
  EXPECT_GE(report->shards_divergent, 1u);
  EXPECT_GE(report->entries_repaired, 1u);
  EXPECT_EQ(report->exchange_failures, 0u);
  // LWW: the newer version wins on every owner.
  for (const auto& owner : owners) {
    EXPECT_EQ(dvm_->member(owner)->state().get("user/k"), "v2") << owner;
  }
}

TEST_F(ShardedTest, AntiEntropyOnConvergedClusterReportsNoDivergence) {
  ASSERT_TRUE(dvm_->set("B", "k1", "v").ok());
  ASSERT_TRUE(run_anti_entropy(*dvm_).ok());  // converge first
  auto report = run_anti_entropy(*dvm_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->shards_divergent, 0u);
  EXPECT_EQ(report->entries_repaired, 0u);
}

TEST(ShardedAdaptiveMerkle, MaxBucketsGrowsWithShardSize) {
  // Adaptive leaf sizing: an empty cluster digests at kMerkleMinBuckets;
  // once a shard passes kMerkleMinBuckets * kMerkleEntriesPerBucket (256)
  // entries its bucket count (surfaced via AntiEntropyReport::max_buckets)
  // doubles.
  net::SimNetwork net;
  kernel::PluginRepository repo;
  ASSERT_TRUE(plugins::register_standard_plugins(repo).ok());
  Dvm dvm("am", make_sharded(ShardConfig{.shards = 2, .replicas = 2}));
  std::vector<std::unique_ptr<container::Container>> containers;
  for (const char* name : {"A", "B"}) {
    auto host = *net.add_host(name);
    containers.push_back(
        std::make_unique<container::Container>(name, repo, net, host));
    ASSERT_TRUE(dvm.add_node(*containers.back()).ok());
  }

  auto before = run_anti_entropy(dvm);
  ASSERT_TRUE(before.ok()) << before.error().describe();
  EXPECT_EQ(before->max_buckets, kMerkleMinBuckets);  // empty shards sit at the floor

  for (int i = 0; i < 640; ++i) {
    std::string key = "am/";
    key += std::to_string(i);
    ASSERT_TRUE(dvm.set("A", key, "v").ok());
  }
  auto after = run_anti_entropy(dvm);
  ASSERT_TRUE(after.ok()) << after.error().describe();
  // ~320 entries per shard at 8 per bucket wants 40 leaves: the next
  // power of two is 64.
  EXPECT_EQ(after->max_buckets, 64u);
}

TEST_F(ShardedTest, LeaveHandsOffToTheReplacementOwner) {
  // Write a spread of keys, remove a node, and require every key to stay
  // readable: departures trigger bounded handoff to the new owner sets.
  for (int i = 0; i < 12; ++i) {
    std::string key = "key/" + std::to_string(i);
    std::string value = "v";
    value += std::to_string(i);
    ASSERT_TRUE(dvm_->set("A", key, value).ok());
  }
  ASSERT_TRUE(dvm_->remove_node("D").ok());
  const ShardMap* map = dvm_->shard_map();
  EXPECT_EQ(map->members().size(), kNodes - 1);
  for (int i = 0; i < 12; ++i) {
    std::string key = "key/" + std::to_string(i);
    auto value = dvm_->get("A", key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.error().describe();
    std::string expected = "v";
    expected += std::to_string(i);
    EXPECT_EQ(*value, expected);
    // And the new owner set really holds it.
    for (const auto& owner : map->owners(map->shard_of(key))) {
      EXPECT_TRUE(dvm_->member(owner)->state().get(key).has_value())
          << key << " missing on " << owner;
    }
  }
}

TEST_F(ShardedTest, ShardWriteMetricsAccumulate) {
  ASSERT_TRUE(dvm_->set("A", "m1", "v").ok());
  ASSERT_TRUE(dvm_->set("B", "m2", "v").ok());
  EXPECT_GE(net_.metrics().counter_value("h2.dvm.shard.writes"), 2u);
  (void)run_anti_entropy(*dvm_);
  EXPECT_GE(net_.metrics().counter_value("h2.dvm.shard.ae_rounds"), 1u);
}

TEST_F(NeighborhoodTest, NeighborReadIsLocalFarReadIsQuery) {
  ASSERT_TRUE(dvm_->set("A", "k", "v").ok());
  net_.reset_stats();
  ASSERT_TRUE(dvm_->get("B", "k").ok());
  EXPECT_EQ(net_.stats().calls, 0u);  // replica within the neighborhood
  ASSERT_TRUE(dvm_->get("D", "k").ok());
  EXPECT_GT(net_.stats().calls, 0u);  // distributed query for farther hosts
}

}  // namespace
}  // namespace h2::dvm
