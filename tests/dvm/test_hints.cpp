// Hinted-handoff plumbing: the TokenBucket that meters recovery traffic
// (both axes, zero-means-unlimited, per-tick refill) and the HintStore's
// bookkeeping — per-coordinator FIFOs, newest-version dedup, bounded
// memory with oldest-first eviction, and the introspection surface
// (coordinators/keys) the replay pass and the durability invariant read.
#include "dvm/hints.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"

namespace h2::dvm {
namespace {

VersionedEntry entry(std::string key, std::string value, std::uint64_t ts) {
  return {std::move(key), std::move(value), {ts, /*writer=*/7}, false};
}

// ---- TokenBucket -------------------------------------------------------------

TEST(TokenBucket, ZeroCapsAreUnlimited) {
  TokenBucket bucket(0, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bucket.try_consume(1 << 20));
  }
}

TEST(TokenBucket, ByteAxisExhaustsAndRefills) {
  TokenBucket bucket(100, 0);
  EXPECT_TRUE(bucket.try_consume(60));
  EXPECT_TRUE(bucket.try_consume(40));
  EXPECT_FALSE(bucket.try_consume(1));  // bytes gone
  bucket.refill();
  EXPECT_TRUE(bucket.try_consume(100));
}

TEST(TokenBucket, MessageAxisExhaustsIndependently) {
  TokenBucket bucket(0, 2);
  EXPECT_TRUE(bucket.try_consume(1 << 20));  // bytes unlimited
  EXPECT_TRUE(bucket.try_consume(1 << 20));
  EXPECT_FALSE(bucket.try_consume(1));  // two messages spent
  bucket.refill();
  EXPECT_TRUE(bucket.try_consume(1));
}

TEST(TokenBucket, BothAxesMustHaveRoom) {
  TokenBucket bucket(100, 10);
  EXPECT_FALSE(bucket.try_consume(101));  // message budget fine, bytes not
  EXPECT_EQ(bucket.msgs_left(), 10u);     // a refused consume charges nothing
  EXPECT_EQ(bucket.bytes_left(), 100u);
  EXPECT_TRUE(bucket.try_consume(100));
  EXPECT_EQ(bucket.msgs_left(), 9u);
}

TEST(TokenBucket, OversizedMessageNeverFitsButDoesNotWedgeTheTick) {
  // A single hint larger than the whole byte budget can never be sent —
  // the caller must skip it (and count it deferred), not spin.
  TokenBucket bucket(64, 0);
  EXPECT_FALSE(bucket.try_consume(65));
  EXPECT_TRUE(bucket.try_consume(64));  // the budget itself is intact
}

TEST(TokenBucket, SplitAxesChargeIndependently) {
  // Batched replay collects entries against the byte axis, then charges
  // one message per wire frame: neither split consume touches the other
  // axis.
  TokenBucket bucket(100, 2);
  EXPECT_TRUE(bucket.try_consume_bytes(100));
  EXPECT_EQ(bucket.msgs_left(), 2u);  // bytes spent, messages untouched
  EXPECT_FALSE(bucket.try_consume_bytes(1));
  EXPECT_TRUE(bucket.try_consume_msg());
  EXPECT_TRUE(bucket.try_consume_msg());
  EXPECT_FALSE(bucket.try_consume_msg());
  EXPECT_EQ(bucket.bytes_left(), 0u);
  bucket.refill();
  EXPECT_TRUE(bucket.try_consume_bytes(100));
  EXPECT_TRUE(bucket.try_consume_msg());
}

TEST(TokenBucket, SplitAxesAreUnlimitedAtZeroCap) {
  TokenBucket bucket(0, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.try_consume_bytes(1 << 20));
    EXPECT_TRUE(bucket.try_consume_msg());
  }
}

// ---- HintStore ---------------------------------------------------------------

TEST(HintStore, ParksAndCountsPerCoordinator) {
  HintStore store;
  EXPECT_TRUE(store.park("node-a", "node-x", entry("k1", "v1", 1)));
  EXPECT_TRUE(store.park("node-a", "node-y", entry("k1", "v1", 1)));
  EXPECT_TRUE(store.park("node-b", "node-x", entry("k2", "v2", 2)));
  EXPECT_EQ(store.pending(), 3u);
  EXPECT_EQ(store.pending_for("node-a"), 2u);
  EXPECT_EQ(store.pending_for("node-b"), 1u);
  EXPECT_EQ(store.pending_for("node-c"), 0u);
  EXPECT_EQ(store.parked_total(), 3u);
  EXPECT_EQ(store.coordinators(), (std::vector<std::string>{"node-a", "node-b"}));
}

TEST(HintStore, NewerVersionSupersedesInPlace) {
  HintStore store;
  EXPECT_TRUE(store.park("node-a", "node-x", entry("k", "old", 1)));
  EXPECT_FALSE(store.park("node-a", "node-x", entry("k", "new", 5)));
  EXPECT_EQ(store.pending(), 1u);  // replaced, not appended
  const auto& queue = store.hints_for("node-a");
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().entry.value, "new");
  EXPECT_EQ(queue.front().entry.version.ts, 5u);
}

TEST(HintStore, SameKeyDifferentTargetsAreDistinctHints) {
  HintStore store;
  EXPECT_TRUE(store.park("node-a", "node-x", entry("k", "v", 1)));
  EXPECT_TRUE(store.park("node-a", "node-y", entry("k", "v", 1)));
  EXPECT_EQ(store.pending(), 2u);
}

TEST(HintStore, OverflowEvictsOldestFirst) {
  HintStore store(/*max_per_coordinator=*/3);
  for (int i = 0; i < 5; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    store.park("node-a", "node-x", entry(std::move(key), "v", 1));
  }
  EXPECT_EQ(store.pending_for("node-a"), 3u);
  EXPECT_EQ(store.evicted(), 2u);
  const auto& queue = store.hints_for("node-a");
  EXPECT_EQ(queue.front().entry.key, "k2");  // k0, k1 evicted oldest-first
  EXPECT_EQ(queue.back().entry.key, "k4");
}

TEST(HintStore, KeysAreDistinctSortedAcrossCoordinators) {
  HintStore store;
  store.park("node-b", "node-x", entry("kb", "v", 1));
  store.park("node-a", "node-x", entry("ka", "v", 1));
  store.park("node-a", "node-y", entry("ka", "v", 1));  // same key, two targets
  store.park("node-a", "node-z", entry("kc", "v", 1));
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"ka", "kb", "kc"}));
}

TEST(HintStore, OwnersAtParkAreStampedAndSupersededWithTheEntry) {
  // The park-time owner set travels with the hint (replay uses it to skip
  // owners that already took the write) and is replaced wholesale when a
  // newer version supersedes the hint in place.
  HintStore store;
  store.park("node-a", "node-x", entry("k", "v1", 1), {"node-x", "node-y"});
  {
    const auto& queue = store.hints_for("node-a");
    ASSERT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.front().owners_at_park,
              (std::vector<std::string>{"node-x", "node-y"}));
  }
  store.park("node-a", "node-x", entry("k", "v2", 5), {"node-x", "node-z"});
  {
    const auto& queue = store.hints_for("node-a");
    ASSERT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.front().entry.value, "v2");
    EXPECT_EQ(queue.front().owners_at_park,
              (std::vector<std::string>{"node-x", "node-z"}));
  }
  // An older version neither supersedes the entry nor the stamp.
  store.park("node-a", "node-x", entry("k", "v0", 2), {"node-q"});
  const auto& queue = store.hints_for("node-a");
  EXPECT_EQ(queue.front().entry.value, "v2");
  EXPECT_EQ(queue.front().owners_at_park,
            (std::vector<std::string>{"node-x", "node-z"}));
}

TEST(HintStore, ParkWithoutOwnersLeavesTheStampEmpty) {
  // An empty stamp means "unknown": replay falls back to delivering to
  // the whole current owner set.
  HintStore store;
  store.park("node-a", "node-x", entry("k", "v", 1));
  EXPECT_TRUE(store.hints_for("node-a").front().owners_at_park.empty());
}

TEST(HintStore, DropCoordinatorForgetsItsQueueOnly) {
  HintStore store;
  store.park("node-a", "node-x", entry("k1", "v", 1));
  store.park("node-b", "node-x", entry("k2", "v", 1));
  store.drop_coordinator("node-a");
  EXPECT_EQ(store.pending(), 1u);
  EXPECT_EQ(store.pending_for("node-a"), 0u);
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"k2"}));
}

TEST(HintStore, ForcedEvictionBumpsTheSharedCounter) {
  // The h2.dvm.shard.hint_evictions surface: cut one coordinator off
  // from every peer, push far more distinct keys than its per-target
  // hint budget, and the overflow must show up as evictions — capacity
  // pressure is durability silently lost until anti-entropy, so it has
  // to be visible to operators, not just to HintStore::evicted().
  net::SimNetwork net;
  kernel::PluginRepository repo;
  ASSERT_TRUE(plugins::register_standard_plugins(repo).ok());
  auto dvm = std::make_unique<Dvm>(
      "ev", make_sharded(ShardConfig{
                .shards = 4, .replicas = 2, .hint_capacity = 2}));
  std::vector<std::unique_ptr<container::Container>> containers;
  for (std::size_t i = 0; i < 4; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    auto host = *net.add_host(name);
    containers.push_back(
        std::make_unique<container::Container>(name, repo, net, host));
    ASSERT_TRUE(dvm->add_node(*containers.back()).ok());
  }
  for (std::size_t i = 1; i < 4; ++i) {
    std::string peer = "n";
    peer += std::to_string(i);
    ASSERT_TRUE(net.partition(*net.resolve("n0"), *net.resolve(peer)).ok());
  }
  // Every remote owner is unreachable from n0, so each write parks one
  // hint per missed owner; with a 2-entry budget the surplus evicts.
  for (int i = 0; i < 64; ++i) {
    (void)dvm->set("n0", "ev/" + std::to_string(i), "v");
  }
  EXPECT_GE(net.metrics().counter_value("h2.dvm.shard.hints.parked"), 3u);
  EXPECT_GE(net.metrics().counter_value("h2.dvm.shard.hint_evictions"), 1u);
}

}  // namespace
}  // namespace h2::dvm
