// Merkle-tree anti-entropy: tree construction properties (equal stores ⇔
// equal roots, a single mutation dirties exactly one leaf), the wire
// exchange's two promises — byte-equal convergence, at O(diff) transfer
// cost when the divergence is small — and the state service's bounds on
// what a hostile peer sends (bucket counts, shard blob counts). The
// bandwidth claims are asserted here with the exchange's own byte
// accounting; bench_sharding measures them against a whole-shard exchange
// on the sim network.
#include "dvm/merkle.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dvm/state.hpp"
#include "transport/rpc.hpp"
#include "transport/simnet.hpp"

namespace h2::dvm {
namespace {

constexpr std::size_t kShards = 1;  // one shard keeps the whole store in view
constexpr std::size_t kBuckets = 64;

std::string key_of(std::size_t i) { return "key/" + std::to_string(i); }

void fill(StateStore& store, std::size_t count, std::uint64_t writer) {
  for (std::size_t i = 0; i < count; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    store.apply({key_of(i), std::move(value), {10 + i, writer}, false});
  }
}

std::vector<std::uint64_t> leaves_of(const StateStore& store) {
  MerkleTree tree = build_merkle_tree(store, 0, kShards, kBuckets);
  std::vector<std::uint64_t> out;
  out.reserve(tree.buckets());
  for (std::size_t i = 0; i < tree.buckets(); ++i) {
    out.push_back(tree.node(tree.depth(), i));
  }
  return out;
}

TEST(MerkleTree, BucketCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(merkle_bucket_count(0), 1u);
  EXPECT_EQ(merkle_bucket_count(1), 1u);
  EXPECT_EQ(merkle_bucket_count(3), 4u);
  EXPECT_EQ(merkle_bucket_count(32), 32u);
  EXPECT_EQ(merkle_bucket_count(33), 64u);
}

TEST(MerkleTree, AdaptiveBucketsScaleWithShardSize) {
  // Floor: small shards stay at kMerkleMinBuckets.
  EXPECT_EQ(adaptive_merkle_buckets(0), kMerkleMinBuckets);
  EXPECT_EQ(adaptive_merkle_buckets(100), 32u);  // 13 wanted < floor
  // Growth: nearest power of two at or above entries/8.
  EXPECT_EQ(adaptive_merkle_buckets(256), 32u);
  EXPECT_EQ(adaptive_merkle_buckets(257), 64u);
  EXPECT_EQ(adaptive_merkle_buckets(10'000), 2048u);  // 1250 → 2048
  // Cap: runaway shard sizes cannot blow up the digest exchange.
  EXPECT_EQ(adaptive_merkle_buckets(1'000'000'000), kMaxMerkleBuckets);
}

TEST(MerkleTree, BucketOfKeyStaysInRange) {
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_LT(bucket_of_key(key_of(i), kBuckets), kBuckets);
  }
}

TEST(MerkleTree, EqualStoresHaveEqualTreesDivergedStoresDiffer) {
  StateStore a, b;
  fill(a, 200, 1);
  fill(b, 200, 1);
  MerkleTree ta = build_merkle_tree(a, 0, kShards, kBuckets);
  MerkleTree tb = build_merkle_tree(b, 0, kShards, kBuckets);
  EXPECT_EQ(ta.root(), tb.root());
  for (std::size_t level = 0; level <= ta.depth(); ++level) {
    for (std::size_t i = 0; i < (std::size_t{1} << level); ++i) {
      EXPECT_EQ(ta.node(level, i), tb.node(level, i)) << level << "/" << i;
    }
  }

  b.apply({key_of(7), "mutated", {999, 2}, false});
  EXPECT_NE(ta.root(), build_merkle_tree(b, 0, kShards, kBuckets).root());
}

TEST(MerkleTree, SingleMutationDirtiesExactlyOneLeaf) {
  // Property over many mutation points: whichever key changes, only the
  // leaf bucket that key hashes into may disagree — the descent's whole
  // bandwidth argument rests on this locality.
  StateStore base;
  fill(base, 300, 1);
  auto before = leaves_of(base);
  for (std::size_t i = 0; i < 300; i += 17) {
    StateStore mutated;
    fill(mutated, 300, 1);
    mutated.apply({key_of(i), "changed", {5000 + i, 2}, false});
    auto after = leaves_of(mutated);
    std::size_t diffs = 0;
    std::size_t where = 0;
    for (std::size_t leaf = 0; leaf < before.size(); ++leaf) {
      if (before[leaf] != after[leaf]) {
        ++diffs;
        where = leaf;
      }
    }
    EXPECT_EQ(diffs, 1u) << "mutating " << key_of(i);
    EXPECT_EQ(where, bucket_of_key(key_of(i), kBuckets)) << "mutating " << key_of(i);
  }
}

TEST(MerkleTree, EmptyStoreBuildsAndMatchesOtherEmptyStore) {
  StateStore a, b;
  EXPECT_EQ(build_merkle_tree(a, 0, kShards, kBuckets).root(),
            build_merkle_tree(b, 0, kShards, kBuckets).root());
  b.apply({"k", "v", {1, 1}, false});
  EXPECT_NE(build_merkle_tree(a, 0, kShards, kBuckets).root(),
            build_merkle_tree(b, 0, kShards, kBuckets).root());
}

// ---- the wire exchange -------------------------------------------------------

class MerkleSyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    remote_ = std::make_shared<StateStore>();
    handle_ = *net::serve_xdr(net_, server_, 9001,
                              make_state_service(remote_, /*writer=*/1));
    channel_ =
        net::make_xdr_channel(net_, client_, *net::Endpoint::parse("xdr://server:9001"));
  }

  net::SimNetwork net_;
  net::HostId client_ = 0, server_ = 0;
  std::shared_ptr<StateStore> remote_;
  std::optional<net::ServerHandle> handle_;
  std::unique_ptr<net::Channel> channel_;
  StateStore local_;
};

TEST_F(MerkleSyncTest, IdenticalReplicasExchangeOnlyTheRoot) {
  fill(local_, 500, 1);
  fill(*remote_, 500, 1);
  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_FALSE(stats->differed);
  EXPECT_EQ(stats->digest_queries, 1u);  // root agreed; no descent
  EXPECT_EQ(stats->buckets_diverged, 0u);
  EXPECT_EQ(stats->bytes_pulled, 0u);
}

TEST_F(MerkleSyncTest, BothEmptyIsACleanNoOp) {
  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_FALSE(stats->differed);
}

TEST_F(MerkleSyncTest, SingleKeyStoresConverge) {
  remote_->apply({"only", "remote", {5, 1}, false});
  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_TRUE(stats->differed);
  EXPECT_EQ(stats->buckets_diverged, 1u);
  EXPECT_EQ(local_.get("only"), "remote");
  EXPECT_TRUE(local_.shard_snapshot(0, kShards) == remote_->shard_snapshot(0, kShards));
}

TEST_F(MerkleSyncTest, LwwConvergenceMatchesTheFlatExchange) {
  // The postcondition the whole-shard exchange had: newest version wins
  // in both directions, tombstones outrank stale values, both replicas
  // end byte-equal.
  fill(local_, 50, 1);
  fill(*remote_, 50, 1);
  local_.apply({key_of(3), "local-wins", {900, 2}, false});
  remote_->apply({key_of(8), "remote-wins", {901, 1}, false});
  local_.apply({key_of(11), "", {902, 2}, true});  // tombstone
  remote_->apply({"only-remote", "fresh", {10, 1}, false});

  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_TRUE(stats->differed);
  EXPECT_TRUE(local_.shard_snapshot(0, kShards) == remote_->shard_snapshot(0, kShards));
  EXPECT_EQ(local_.get(key_of(3)), "local-wins");
  EXPECT_EQ(remote_->get(key_of(3)), "local-wins");
  EXPECT_EQ(local_.get(key_of(8)), "remote-wins");
  EXPECT_FALSE(local_.get(key_of(11)).has_value());
  EXPECT_FALSE(remote_->get(key_of(11)).has_value());
  EXPECT_EQ(local_.get("only-remote"), "fresh");

  // Converged replicas: the second pass stops at the root.
  auto again = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBuckets);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->differed);
  EXPECT_EQ(again->digest_queries, 1u);
}

TEST_F(MerkleSyncTest, SmallDivergenceMovesASmallFractionOfTheShard) {
  // 1000 keys, ~1% diverged: the pull bytes must be a small fraction of
  // the whole-shard blob a one-bucket exchange would move. 1024 buckets ≈ one
  // key per bucket, so ~10 diverged keys pull ~10 buckets.
  constexpr std::size_t kKeys = 1000;
  constexpr std::size_t kBigBuckets = 1024;
  fill(local_, kKeys, 1);
  fill(*remote_, kKeys, 1);
  for (std::size_t i = 0; i < kKeys; i += 100) {  // 10 keys diverge
    remote_->apply({key_of(i), "newer-" + std::to_string(i), {5000 + i, 2}, false});
  }
  const std::size_t whole_shard_bytes =
      encode_entries(remote_->shard_snapshot(0, kShards)).size();

  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBigBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_TRUE(stats->differed);
  EXPECT_LE(stats->buckets_diverged, 10u);
  EXPECT_TRUE(local_.shard_snapshot(0, kShards) == remote_->shard_snapshot(0, kShards));
  // The acceptance bar: repair traffic ≤ 10% of a whole-shard pull.
  EXPECT_LE(stats->bytes_pulled * 10, whole_shard_bytes)
      << "pulled " << stats->bytes_pulled << " of " << whole_shard_bytes;
}

TEST_F(MerkleSyncTest, OneBucketDegeneratesToWholeShardPull) {
  fill(local_, 40, 1);
  fill(*remote_, 40, 1);
  remote_->apply({key_of(0), "newer", {999, 2}, false});
  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, 1);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_TRUE(stats->differed);
  EXPECT_EQ(stats->buckets_diverged, 1u);
  EXPECT_EQ(stats->pulled, remote_->shard_snapshot(0, kShards).size());
  EXPECT_TRUE(local_.shard_snapshot(0, kShards) == remote_->shard_snapshot(0, kShards));
}

TEST_F(MerkleSyncTest, LargeStoreConvergesAndStaysBounded) {
  constexpr std::size_t kKeys = 10'000;
  constexpr std::size_t kBigBuckets = 1024;
  fill(local_, kKeys, 1);
  fill(*remote_, kKeys, 1);
  remote_->apply({key_of(4242), "newer", {1'000'000, 2}, false});
  const std::size_t whole_shard_bytes =
      encode_entries(remote_->shard_snapshot(0, kShards)).size();

  auto stats = merkle_sync_shard_with_peer(*channel_, local_, 0, kShards, kBigBuckets);
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  EXPECT_TRUE(stats->differed);
  EXPECT_TRUE(local_.shard_snapshot(0, kShards) == remote_->shard_snapshot(0, kShards));
  // One hot key out of 10k: the transfer is two orders of magnitude
  // below a whole-shard pull.
  EXPECT_LE(stats->bytes_pulled * 100, whole_shard_bytes);
}

TEST_F(MerkleSyncTest, HostileBucketCountsAreTypedErrors) {
  // -1 on the wire is 2^64 - 1 once cast: rounding it up to a power of
  // two would never finish, and 2^40 would size a tree of 2^41 nodes.
  // Each op rejects them before building anything.
  fill(*remote_, 10, 1);
  for (std::int64_t buckets :
       {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1} << 40,
        static_cast<std::int64_t>(kMaxMerkleBuckets) + 1,
        std::numeric_limits<std::int64_t>::min()}) {
    const std::vector<Value> head{Value::of_int(0, "shard"), Value::of_int(1, "shards"),
                                  Value::of_int(buckets, "buckets")};
    std::vector<Value> mnode = head, mnodes = head, mpull = head;
    mnode.push_back(Value::of_int(0, "level"));
    mnode.push_back(Value::of_int(0, "index"));
    mnodes.push_back(Value::of_int(0, "level"));
    mnodes.push_back(Value::of_string(std::string(8, '\0'), "indexes"));
    mpull.push_back(Value::of_int(0, "bucket"));
    for (const auto& [op, params] : {std::pair{"mnode", &mnode},
                                     std::pair{"mnodes", &mnodes},
                                     std::pair{"mpull", &mpull}}) {
      auto reply = channel_->invoke(op, *params);
      ASSERT_FALSE(reply.ok()) << op << " buckets=" << buckets;
      EXPECT_EQ(reply.error().code(), ErrorCode::kInvalidArgument) << op;
      EXPECT_NE(reply.error().message().find("buckets"), std::string::npos)
          << reply.error().describe();
    }
  }
  // The largest legal count still serves.
  std::vector<Value> top{Value::of_int(0, "shard"), Value::of_int(1, "shards"),
                         Value::of_int(static_cast<std::int64_t>(kMaxMerkleBuckets),
                                       "buckets"),
                         Value::of_int(0, "level"), Value::of_int(0, "index")};
  EXPECT_TRUE(channel_->invoke("mnode", top).ok());
}

TEST(ShardBlob, CountsThePayloadCannotHoldAreTypedErrors) {
  // The count prefix is the peer's claim; it must not size an allocation
  // (2^64 - 1 would throw length_error, 4e9 bad_alloc) before the bytes
  // that follow are checked.
  for (const char* blob : {"H2SH 18446744073709551615\n", "H2SH 4000000000\n",
                           "H2SH 2\n0 0 0 1 1\nkv"}) {
    auto entries = decode_entries(blob);
    ASSERT_FALSE(entries.ok()) << blob;
    EXPECT_EQ(entries.error().code(), ErrorCode::kInvalidArgument) << blob;
    EXPECT_TRUE(entries.error().message().starts_with("shard blob:"))
        << entries.error().describe();
  }
  // Entries of the smallest encoding (empty key and value) still decode at
  // exactly the bound.
  std::vector<VersionedEntry> smallest(3);
  auto round_trip = decode_entries(encode_entries(smallest));
  ASSERT_TRUE(round_trip.ok()) << round_trip.error().describe();
  EXPECT_TRUE(*round_trip == smallest);
}

}  // namespace
}  // namespace h2::dvm
