// Consistent-hash ring and shard map for the sharded DVM coherency mode.
// The keyspace is split into a fixed number of shards (key → shard by
// hash); each shard token is placed on a ring of member virtual nodes, and
// the R distinct members clockwise from the token own the shard's
// replicas. Virtual nodes smooth the load (balance within a few percent at
// vnodes ≈ 8–64); seeded placement keeps simulation runs deterministic and
// lets the property tests sweep placements. Joins and leaves move only the
// shards whose owner set actually changed — the "minimal remapping"
// property test pins the ≈1/M bound.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace h2::dvm {

/// FNV-1a, the ring's stable key hash. Never change the constants: shard
/// placement (and therefore which replicas hold which keys) depends on it.
constexpr std::uint64_t hash64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Finalizing mix (splitmix64) — decorrelates vnode points that share a
/// member-name prefix so each virtual node lands independently.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Which shard a state key belongs to.
constexpr std::size_t shard_of_key(std::string_view key, std::size_t shard_count) {
  return shard_count == 0 ? 0 : static_cast<std::size_t>(hash64(key) % shard_count);
}

/// The ring proper: members × vnodes points sorted by position; owners()
/// walks clockwise from a token collecting distinct members.
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 8, std::uint64_t seed = 0x4841524e45535332ULL);

  void add(std::string member);
  void remove(std::string_view member);
  bool contains(std::string_view member) const;
  std::size_t size() const { return members_.size(); }
  const std::vector<std::string>& members() const { return members_; }

  /// Up to `count` distinct members clockwise from hash(token); fewer when
  /// the ring has fewer members. The first entry is the token's primary.
  std::vector<std::string> owners(std::string_view token, std::size_t count) const;
  /// owners(token, 1).front(), or "" on an empty ring.
  std::string primary(std::string_view token) const;

 private:
  std::uint64_t point_of(std::string_view member, std::size_t vnode) const;
  void rebuild_points();

  std::size_t vnodes_;
  std::uint64_t seed_;
  std::vector<std::string> members_;                        ///< sorted
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;  ///< (pos, member idx), sorted
};

/// Sharded-mode placement parameters. Defaults suit the 4–8 node clusters
/// the tests and sim scenarios run; bench_sharding scales them up.
struct ShardConfig {
  std::size_t shards = 16;    ///< fixed shard count (key → shard by hash)
  std::size_t replicas = 2;   ///< R owners per shard
  std::size_t vnodes = 8;     ///< virtual nodes per member on the ring
  std::uint64_t seed = 0x4841524e45535332ULL;  ///< ring placement seed

  /// Hinted-handoff capacity per coordinator (entries kept for each
  /// unreachable owner before the oldest are evicted). Matches the
  /// HintStore default; lowered in tests to force evictions.
  std::size_t hint_capacity = 1024;

  /// Rebalance budget: bytes/messages of recovery traffic (join/leave
  /// handoff + hint replay) allowed per tick. 0 = unlimited on that axis.
  /// Handoff entries beyond the budget are deferred as hints and drained
  /// by later replay ticks instead of moving in one burst.
  std::size_t rebalance_bytes_per_tick = 0;
  std::size_t rebalance_msgs_per_tick = 0;
};

/// shard → owner-list map derived from a HashRing over the current
/// membership. rebuild() recomputes all owner lists (shard tokens are
/// fixed strings "shard/<i>", so only membership changes move them).
class ShardMap {
 public:
  explicit ShardMap(ShardConfig config);

  const ShardConfig& config() const { return config_; }
  std::size_t shard_count() const { return config_.shards; }
  std::size_t shard_of(std::string_view key) const {
    return shard_of_key(key, config_.shards);
  }

  void rebuild(std::span<const std::string> members);
  const std::vector<std::string>& members() const { return ring_.members(); }

  /// Owner names of a shard, primary first. Size min(R, members).
  std::span<const std::string> owners(std::size_t shard) const;
  bool is_owner(std::size_t shard, std::string_view member) const;

 private:
  ShardConfig config_;
  HashRing ring_;
  std::vector<std::vector<std::string>> owners_;  ///< per shard
};

}  // namespace h2::dvm
