// Merkle-tree anti-entropy for the sharded DVM — its only repair
// exchange. A shard's entries are hashed into leaf buckets (key → bucket
// by a second, decorrelated hash); leaf digests chain the bucket's
// key-sorted entries and internal nodes combine their children, so two
// replicas with equal roots hold byte-equal shards. Repair probes the root
// (`mnode`), then walks the tree top-down with one packed `mnodes` frame
// per level — child indexes and digests as 8-byte big-endian blobs, so the
// descent costs ~16 wire bytes per node instead of a named-param call each
// — descending only into subtrees whose digests disagree, and finally
// transfers just the diverged leaf buckets (`mpull` + a vset push-back of
// what the peer was shown to be missing) — bandwidth O(diff). At one
// bucket the exchange degenerates to a whole-shard digest and pull.
#pragma once

#include <cstdint>
#include <vector>

#include "dvm/state.hpp"

namespace h2::dvm {

/// Rounds a requested leaf count up to a power of two (minimum 1) so the
/// tree is a complete binary tree and node indexing is pure arithmetic.
constexpr std::size_t merkle_bucket_count(std::size_t requested) {
  std::size_t buckets = 1;
  while (buckets < requested) buckets <<= 1;
  return buckets;
}

/// Upper bound on adaptive bucket counts: a 64k-leaf tree is ~1MB of
/// digests per shard, plenty of resolution for any shard the sim runs.
/// The state service rejects a wire `buckets` above it.
constexpr std::size_t kMaxMerkleBuckets = std::size_t{1} << 16;

/// Sizing of the sharded mode's trees: never fewer than 32 leaves, and
/// about 8 entries per leaf once a shard outgrows 256 entries.
constexpr std::size_t kMerkleMinBuckets = 32;
constexpr std::size_t kMerkleEntriesPerBucket = 8;

/// Bucket count for a shard of `entries` entries: the power of two
/// covering entries/kMerkleEntriesPerBucket, floored at kMerkleMinBuckets
/// and capped at kMaxMerkleBuckets, so a shard that grew 100x diffs at the
/// same per-leaf granularity.
constexpr std::size_t adaptive_merkle_buckets(std::size_t entries) {
  std::size_t want = merkle_bucket_count(
      (entries + kMerkleEntriesPerBucket - 1) / kMerkleEntriesPerBucket);
  if (want < kMerkleMinBuckets) want = kMerkleMinBuckets;
  return want < kMaxMerkleBuckets ? want : kMaxMerkleBuckets;
}

/// Which leaf bucket a key hashes into. mix64 decorrelates this from the
/// shard placement hash (shard_of_key uses raw hash64), so keys of one
/// shard spread evenly over the buckets. `buckets` must be a power of two.
constexpr std::size_t bucket_of_key(std::string_view key, std::size_t buckets) {
  return static_cast<std::size_t>(mix64(hash64(key))) & (buckets - 1);
}

/// A complete binary hash tree over one shard's leaf buckets. Level 0 is
/// the root; level `depth()` holds the `buckets()` leaves; node (L, i)
/// covers leaves [i << (depth-L), (i+1) << (depth-L)).
class MerkleTree {
 public:
  /// `leaves.size()` must be a power of two (use merkle_bucket_count).
  explicit MerkleTree(std::vector<std::uint64_t> leaves);

  std::size_t buckets() const { return (nodes_.size() + 1) / 2; }
  std::size_t depth() const { return depth_; }
  std::uint64_t node(std::size_t level, std::size_t index) const {
    return nodes_[(std::size_t{1} << level) - 1 + index];
  }
  std::uint64_t root() const { return nodes_[0]; }

 private:
  std::vector<std::uint64_t> nodes_;  ///< heap layout: level L starts at 2^L - 1
  std::size_t depth_;
};

/// Hashes one shard of `store` into a tree of `buckets` leaves (power of
/// two). Leaf digests chain entries in key order, so equal leaves ⇔
/// byte-equal bucket contents (keys, values, versions, tombstones).
MerkleTree build_merkle_tree(const StateStore& store, std::size_t shard,
                             std::size_t shard_count, std::size_t buckets);

/// Stats of one Merkle-repaired shard synchronization.
struct MerkleSyncStats {
  bool differed = false;           ///< roots disagreed before the exchange
  std::size_t digest_queries = 0;  ///< tree nodes queried (root + descent)
  std::size_t buckets_diverged = 0;
  std::size_t pulled = 0;  ///< entries fetched from the peer's diverged buckets
  std::size_t merged = 0;  ///< pulled entries that won locally (LWW)
  std::size_t pushed = 0;  ///< entries sent back to the peer
  std::size_t bytes_pulled = 0;  ///< blob bytes of the pulled buckets
  std::size_t bytes_pushed = 0;  ///< blob-equivalent bytes of the push-back
};

/// One Merkle anti-entropy exchange against a peer's state service:
/// compare roots, descend into disagreeing subtrees level by level (one
/// packed mnodes frame per level), then pull the diverged leaf buckets,
/// LWW-merge them into `local` and push back only the entries the pull
/// showed the peer to be missing or behind on. After a clean exchange
/// both replicas hold identical shard snapshots, at O(diff) transfer cost.
Result<MerkleSyncStats> merkle_sync_shard_with_peer(net::Channel& peer,
                                                    StateStore& local,
                                                    std::size_t shard,
                                                    std::size_t shard_count,
                                                    std::size_t buckets);

}  // namespace h2::dvm
