#include "dvm/merkle.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace h2::dvm {

namespace {

constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

std::uint64_t chain_entry(std::uint64_t h, const VersionedEntry& entry) {
  h = mix64(h ^ hash64(entry.key));
  h = mix64(h ^ entry.version.ts);
  h = mix64(h ^ entry.version.writer);
  h = mix64(h ^ (entry.deleted ? 1u : 0u));
  if (!entry.deleted) h = mix64(h ^ hash64(entry.value));
  return h;
}

std::uint64_t combine(std::uint64_t left, std::uint64_t right) {
  std::uint64_t h = kDigestSeed;
  h = mix64(h ^ left);
  h = mix64(h ^ right);
  return h;
}

std::string shard_label(std::size_t shard) {
  return "merkle, shard " + std::to_string(shard);
}

}  // namespace

MerkleTree::MerkleTree(std::vector<std::uint64_t> leaves) {
  std::size_t buckets = leaves.size();
  depth_ = 0;
  while ((std::size_t{1} << depth_) < buckets) ++depth_;
  nodes_.resize(2 * buckets - 1);
  std::copy(leaves.begin(), leaves.end(), nodes_.begin() + (buckets - 1));
  for (std::size_t i = buckets - 1; i-- > 0;) {
    nodes_[i] = combine(nodes_[2 * i + 1], nodes_[2 * i + 2]);
  }
}

MerkleTree build_merkle_tree(const StateStore& store, std::size_t shard,
                             std::size_t shard_count, std::size_t buckets) {
  std::vector<std::uint64_t> leaves(buckets, kDigestSeed);
  for (const VersionedEntry& entry : store.shard_snapshot(shard, shard_count)) {
    std::size_t bucket = bucket_of_key(entry.key, buckets);
    leaves[bucket] = chain_entry(leaves[bucket], entry);
  }
  return MerkleTree(std::move(leaves));
}

Result<MerkleSyncStats> merkle_sync_shard_with_peer(net::Channel& peer,
                                                    StateStore& local,
                                                    std::size_t shard,
                                                    std::size_t shard_count,
                                                    std::size_t buckets) {
  MerkleSyncStats stats;
  buckets = merkle_bucket_count(buckets);
  MerkleTree tree = build_merkle_tree(local, shard, shard_count, buckets);

  auto mnode_params = [&](std::size_t level, std::size_t index) {
    return std::vector<Value>{
        Value::of_int(static_cast<std::int64_t>(shard), "shard"),
        Value::of_int(static_cast<std::int64_t>(shard_count), "shards"),
        Value::of_int(static_cast<std::int64_t>(buckets), "buckets"),
        Value::of_int(static_cast<std::int64_t>(level), "level"),
        Value::of_int(static_cast<std::int64_t>(index), "index")};
  };

  auto root = peer.invoke("mnode", mnode_params(0, 0));
  ++stats.digest_queries;
  if (!root.ok()) return root.error().context(shard_label(shard) + " root");
  auto root_digest = root->as_int();
  if (!root_digest.ok()) return root_digest.error();
  if (static_cast<std::uint64_t>(*root_digest) == tree.root()) {
    return stats;  // replicas already byte-equal
  }
  stats.differed = true;

  // Top-down descent: ONE packed "mnodes" call per level — child indexes
  // as an 8-byte big-endian blob, digests back the same way — keeping
  // only the children whose digests disagree. The frontier that survives
  // to the leaf level is exactly the set of diverged buckets. (The named
  // per-node "mnode" framing stays for the root probe and point queries;
  // packing the descent keeps its wire cost at ~16 bytes per node, which
  // is what makes the exchange O(diff) in bytes and not just in entries.)
  std::vector<std::size_t> frontier{0};
  for (std::size_t level = 1; level <= tree.depth() && !frontier.empty(); ++level) {
    std::vector<std::size_t> children;
    children.reserve(2 * frontier.size());
    std::string indexes;
    indexes.reserve(16 * frontier.size());
    for (std::size_t parent : frontier) {
      for (std::size_t child : {2 * parent, 2 * parent + 1}) {
        children.push_back(child);
        auto index = static_cast<std::uint64_t>(child);
        for (std::size_t b = 8; b-- > 0;) {
          indexes.push_back(static_cast<char>((index >> (8 * b)) & 0xFF));
        }
      }
    }
    std::vector<Value> params{
        Value::of_int(static_cast<std::int64_t>(shard), "shard"),
        Value::of_int(static_cast<std::int64_t>(shard_count), "shards"),
        Value::of_int(static_cast<std::int64_t>(buckets), "buckets"),
        Value::of_int(static_cast<std::int64_t>(level), "level"),
        Value::of_string(std::move(indexes), "indexes")};
    auto reply = peer.invoke("mnodes", params);
    if (!reply.ok()) return reply.error().context(shard_label(shard) + " descent");
    stats.digest_queries += children.size();
    auto digests = reply->as_string();
    if (!digests.ok()) return digests.error();
    if (digests->size() != 8 * children.size()) {
      return err::internal(shard_label(shard) + " descent: digest blob size " +
                           std::to_string(digests->size()) + ", expected " +
                           std::to_string(8 * children.size()));
    }
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < children.size(); ++i) {
      std::uint64_t digest = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        digest = (digest << 8) | static_cast<std::uint8_t>((*digests)[8 * i + b]);
      }
      if (digest != tree.node(level, children[i])) {
        next.push_back(children[i]);
      }
    }
    frontier = std::move(next);
  }
  stats.buckets_diverged = frontier.size();
  if (frontier.empty()) return stats;  // divergence resolved under us

  // Pull only the diverged buckets (one batch frame) and LWW-merge them;
  // newer local entries survive. Remember the exact version the peer sent
  // for every key — those entries are the peer's current state, and
  // pushing them back would be pure echo.
  std::map<std::string, Version, std::less<>> peer_has;
  {
    std::vector<net::BatchItem> calls;
    calls.reserve(frontier.size());
    for (std::size_t bucket : frontier) {
      net::BatchItem item;
      item.operation = "mpull";
      item.params = {Value::of_int(static_cast<std::int64_t>(shard), "shard"),
                     Value::of_int(static_cast<std::int64_t>(shard_count), "shards"),
                     Value::of_int(static_cast<std::int64_t>(buckets), "buckets"),
                     Value::of_int(static_cast<std::int64_t>(bucket), "bucket")};
      calls.push_back(std::move(item));
    }
    std::vector<Result<Value>> results;
    if (auto status = peer.invoke_batch(calls, results); !status.ok()) {
      return status.error().context(shard_label(shard) + " pull");
    }
    for (const auto& result : results) {
      if (!result.ok()) return result.error().context(shard_label(shard) + " pull");
      auto blob = result->as_string();
      if (!blob.ok()) return blob.error();
      stats.bytes_pulled += blob->size();
      auto entries = decode_entries(*blob);
      if (!entries.ok()) return entries.error();
      stats.pulled += entries->size();
      for (const VersionedEntry& entry : *entries) {
        peer_has.insert_or_assign(entry.key, entry.version);
        if (local.apply(entry)) ++stats.merged;
      }
    }
  }

  // Push back only what the peer is actually missing: entries in the
  // diverged buckets whose version differs from the copy the peer just
  // sent (or that the peer never sent at all). Re-sending the rest would
  // double the exchange for nothing — the peer's LWW merge would drop
  // every one of them.
  std::set<std::size_t> diverged(frontier.begin(), frontier.end());
  std::vector<VersionedEntry> push;
  for (VersionedEntry& entry : local.shard_snapshot(shard, shard_count)) {
    if (!diverged.contains(bucket_of_key(entry.key, buckets))) continue;
    if (auto it = peer_has.find(entry.key);
        it != peer_has.end() && it->second == entry.version) {
      continue;  // peer already holds this exact version
    }
    push.push_back(std::move(entry));
  }
  if (!push.empty()) {
    stats.bytes_pushed += encode_entries(push).size();
    std::vector<net::BatchItem> calls;
    calls.reserve(push.size());
    for (const VersionedEntry& entry : push) calls.push_back(vset_item(entry));
    const std::string label = shard_label(shard) + " push";
    if (auto status = push_batch(peer, calls, label, [&](std::size_t) { return label; });
        !status.ok()) {
      return status.error();
    }
    stats.pushed = push.size();
  }
  return stats;
}

}  // namespace h2::dvm
