// Read-repair on the sharded query path: a reachable owner that answers
// not-found while another owner holds the key is stale (it missed a
// write behind a partition) and gets the winning entry applied on its
// container's loop — inline in eager mode, deferred under a SimDriver.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "loop/sim_driver.hpp"
#include "plugins/standard.hpp"

namespace h2::dvm {
namespace {

class ReadRepairTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<Dvm>(
        "rr", make_sharded(ShardConfig{.shards = 8, .replicas = 2}));
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
  }

  std::vector<std::string> owners_of(std::string_view key) {
    const ShardMap* map = dvm_->shard_map();
    auto owners = map->owners(map->shard_of(key));
    return {owners.begin(), owners.end()};
  }

  /// A key with two distinct owners, neither of them n0 — so a write
  /// from n0 crosses the wire to both and a partition can starve one.
  std::string key_with_remote_owners(std::string* victim, std::string* survivor) {
    for (int i = 0; i < 128; ++i) {
      std::string key = "rr/" + std::to_string(i);
      auto owners = owners_of(key);
      if (owners.size() != 2) continue;
      if (std::find(owners.begin(), owners.end(), "n0") != owners.end()) continue;
      *victim = owners[0];
      *survivor = owners[1];
      return key;
    }
    ADD_FAILURE() << "no shard with two non-n0 owners";
    return "";
  }

  void cut(const std::string& a, const std::string& b) {
    ASSERT_TRUE(net_.partition(*net_.resolve(a), *net_.resolve(b)).ok());
  }
  void heal(const std::string& a, const std::string& b) {
    ASSERT_TRUE(net_.heal(*net_.resolve(a), *net_.resolve(b)).ok());
  }

  std::uint64_t repairs() {
    return net_.metrics().counter_value("h2.dvm.shard.read_repairs");
  }

  /// Writes `key` from n0 while `victim` is cut off, so exactly one owner
  /// (the survivor) lands the write. Returns with the partition healed.
  void write_past_victim(const std::string& key, const std::string& victim) {
    cut("n0", victim);
    ASSERT_TRUE(dvm_->set("n0", key, "v1").ok());  // partial landing: ok
    EXPECT_FALSE(dvm_->member(victim)->state().get(key).has_value());
    heal("n0", victim);
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<Dvm> dvm_;
};

TEST_F(ReadRepairTest, StaleOwnerRepairedInlineInEagerMode) {
  std::string victim;
  std::string survivor;
  const std::string key = key_with_remote_owners(&victim, &survivor);
  write_past_victim(key, victim);

  // Read from the stale owner's own vantage: local miss, remote hit on
  // the survivor, repair dispatched — and in eager mode applied before
  // get() even returns.
  auto got = dvm_->get(victim, key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v1");
  auto repaired = dvm_->member(victim)->state().get(key);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, "v1");
  EXPECT_GE(repairs(), 1u);

  // The next read is a pure local fast-path hit: no more repairs.
  const std::uint64_t before = repairs();
  ASSERT_TRUE(dvm_->get(victim, key).ok());
  EXPECT_EQ(repairs(), before);
}

TEST_F(ReadRepairTest, NonOwnerReadRepairsTheStaleOwnerItWalked) {
  std::string victim;
  std::string survivor;
  const std::string key = key_with_remote_owners(&victim, &survivor);
  write_past_victim(key, victim);

  // Reading from n0 (not an owner) walks the owner list. Whichever of
  // the two owners answers first, the walk terminates with the value and
  // any stale owner probed along the way is repaired.
  auto got = dvm_->get("n0", key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v1");
  // The victim was either repaired (walked before the hit) or never
  // probed (walked after) — it must not hold a wrong value either way.
  auto local = dvm_->member(victim)->state().get(key);
  if (local.has_value()) {
    EXPECT_EQ(*local, "v1");
    EXPECT_GE(repairs(), 1u);
  }
}

TEST_F(ReadRepairTest, ConsistentReplicasNeverTriggerRepair) {
  ASSERT_TRUE(dvm_->set("n0", "clean/key", "v").ok());
  for (const auto& owner : owners_of("clean/key")) {
    auto got = dvm_->get(owner, "clean/key");
    ASSERT_TRUE(got.ok()) << owner;
    EXPECT_EQ(*got, "v");
  }
  ASSERT_TRUE(dvm_->get("n0", "clean/key").ok());
  EXPECT_EQ(repairs(), 0u);
}

TEST_F(ReadRepairTest, UnreachableOwnerIsNotTreatedAsStale) {
  std::string victim;
  std::string survivor;
  const std::string key = key_with_remote_owners(&victim, &survivor);
  ASSERT_TRUE(dvm_->set("n0", key, "v1").ok());

  // Cut the reader off from one owner. The walk still finds the value on
  // the other owner, and the unreachable one — which actually HOLDS the
  // key — must not be queued for a "repair" it does not need.
  cut("n0", victim);
  const std::uint64_t before = repairs();
  auto got = dvm_->get("n0", key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v1");
  EXPECT_EQ(repairs(), before);
}

TEST_F(ReadRepairTest, RepairIsDeferredUnderSimDriver) {
  std::string victim;
  std::string survivor;
  const std::string key = key_with_remote_owners(&victim, &survivor);
  write_past_victim(key, victim);

  // Queued mode: the repair rides the victim's container loop and only
  // lands when the driver pumps — the read itself stays synchronous.
  loop::SimDriver driver(net_.clock());
  driver.add_loop(dvm_->loop());
  for (auto& container : containers_) driver.add_loop(container->loop());

  auto got = dvm_->get(victim, key);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(*got, "v1");
  EXPECT_FALSE(dvm_->member(victim)->state().get(key).has_value());
  EXPECT_EQ(repairs(), 0u);

  EXPECT_GT(driver.run_ready(), 0u);
  auto repaired = dvm_->member(victim)->state().get(key);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, "v1");
  EXPECT_EQ(repairs(), 1u);
}

TEST_F(ReadRepairTest, LwwApplyIgnoresAnEntryTheOwnerAlreadySupersedes) {
  std::string victim;
  std::string survivor;
  const std::string key = key_with_remote_owners(&victim, &survivor);
  write_past_victim(key, victim);

  // Defer the repair, then let a NEWER write land on the victim before
  // the pump. The queued repair carries the older version; LWW apply
  // must drop it and must not count a repair that did nothing.
  loop::SimDriver driver(net_.clock());
  driver.add_loop(dvm_->loop());
  for (auto& container : containers_) driver.add_loop(container->loop());

  ASSERT_TRUE(dvm_->get(victim, key).ok());    // queues repair with v1
  ASSERT_TRUE(dvm_->set("n0", key, "v2").ok());  // all owners reachable now
  (void)driver.run_ready();
  auto local = dvm_->member(victim)->state().get(key);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(*local, "v2");
  EXPECT_EQ(repairs(), 0u);
}

}  // namespace
}  // namespace h2::dvm
