// Per-node DVM state: a string key/value store plus the network service
// that exposes it to peer nodes (set/get/del over the XDR binding). The
// coherency protocols in coherency.hpp are built from exactly these two
// primitives — local access and remote access — combined in different
// proportions. The sharded mode adds versioned last-write-wins entries
// (logical timestamp + writer id, tombstones for deletes) and the Merkle
// node/bucket operations (mnode, mnodes, mpull; merkle.hpp), the wire
// surface of anti-entropy repair.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "dvm/ring.hpp"
#include "transport/rpc.hpp"

namespace h2::dvm {

/// Well-known port of the DVM state service.
inline constexpr std::uint16_t kStatePort = 7400;

/// Where `node`'s state service listens: xdr://<node>:kStatePort. The one
/// place that address is built, for DvmNode and the shard-routing layer.
net::Endpoint state_endpoint(std::string_view node);

/// One key/value write. Batched replication (CoherencyProtocol::
/// update_batch, DvmNode::remote_set_batch) moves spans of these; the
/// views borrow the caller's storage for the duration of the call.
struct KV {
  std::string_view key;
  std::string_view value;
};

/// Last-write-wins version: logical timestamp ordered first, writer id as
/// the deterministic tiebreak (the paper-adjacent replica-catalog rule).
struct Version {
  std::uint64_t ts = 0;
  std::uint64_t writer = 0;

  friend constexpr bool operator==(const Version&, const Version&) = default;
  friend constexpr bool operator<(const Version& a, const Version& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.writer < b.writer;
  }
};

/// One versioned entry as it crosses the wire (vset, mpull) and as the
/// convergence invariant compares replicas. `deleted` entries are
/// tombstones: the version survives so a late stale write loses.
struct VersionedEntry {
  std::string key;
  std::string value;  ///< empty for tombstones
  Version version;
  bool deleted = false;

  friend bool operator==(const VersionedEntry&, const VersionedEntry&) = default;
};

/// Stable id a member stamps into versions it originates.
inline std::uint64_t writer_id(std::string_view member_name) {
  return hash64(member_name);
}

/// The local (per-node) slice of global DVM state.
class StateStore {
 public:
  void set(std::string key, std::string value) { map_[std::move(key)] = std::move(value); }
  std::optional<std::string> get(std::string_view key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool erase(std::string_view key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    map_.erase(it);
    return true;
  }
  std::size_t size() const { return map_.size(); }
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto& [k, v] : map_) out.push_back(k);
    return out;
  }

  // ---- versioned (sharded-mode) access ---------------------------------------

  /// LWW merge: applies iff `entry.version` is newer than what this store
  /// holds for the key (absent counts as oldest). Always advances the
  /// logical clock to at least entry.version.ts. Returns whether applied.
  bool apply(const VersionedEntry& entry);

  /// Locally originated write/delete: stamps the next logical timestamp
  /// (greater than every version this store has seen) and applies.
  Version assign_and_apply(std::string_view key, std::string_view value,
                           std::uint64_t writer, bool deleted = false);

  std::optional<Version> version_of(std::string_view key) const;
  /// Full versioned record of one key (tombstones included), or nullopt
  /// when the key was never versioned here — the unit `vget` serves and
  /// the read-repair path applies.
  std::optional<VersionedEntry> ventry(std::string_view key) const;
  std::uint64_t clock() const { return clock_; }

  /// Every versioned entry of one shard (tombstones included), key-sorted —
  /// the unit anti-entropy hashes, pulls and compares.
  std::vector<VersionedEntry> shard_snapshot(std::size_t shard,
                                             std::size_t shard_count) const;

  /// How many versioned entries (tombstones included) one shard holds —
  /// what the adaptive Merkle sizing feeds on. O(versioned entries).
  std::size_t shard_entry_count(std::size_t shard, std::size_t shard_count) const;

 private:
  struct Meta {
    Version version;
    bool deleted = false;
  };
  std::map<std::string, std::string, std::less<>> map_;
  std::map<std::string, Meta, std::less<>> versions_;  ///< sharded-mode entries only
  std::uint64_t clock_ = 0;  ///< Lamport: max ts seen or assigned
};

/// Wire codec for shard transfers: a length-prefixed, binary-safe blob of
/// VersionedEntry records (one "mpull" reply carries a leaf bucket, one
/// "vget" reply a single entry). decode_entries takes a peer's bytes: a
/// count the payload cannot hold is a "shard blob:" error, not a reserve.
std::string encode_entries(std::span<const VersionedEntry> entries);
Result<std::vector<VersionedEntry>> decode_entries(std::string_view blob);

/// One "vset" sub-call of a batched LWW push — shared by the Merkle
/// push-back, replication, handoff and the hint-replay path.
net::BatchItem vset_item(const VersionedEntry& entry);

/// The one DVM batch push: applies `calls` on a peer's state service as
/// one invoke_batch (the XDR channel frames it at the wire's call limit,
/// so a batch of any size lands). Fails on the transport error, prefixed
/// with `context`, or on the first failed sub-call, prefixed with
/// `item_context(i)`.
Status push_batch(net::Channel& peer, std::span<const net::BatchItem> calls,
                  std::string_view context,
                  const std::function<std::string(std::size_t)>& item_context);

/// Builds the state service dispatcher over `store`: the classic
/// set/get/ping/del plus the sharded-mode surface — vset (LWW delta),
/// vget (versioned read), wset (server-assigned version, stamped with
/// `self_writer`) and the Merkle ops mnode, mnodes and mpull, which reject
/// a `buckets` outside [1, kMaxMerkleBuckets] before building a tree.
/// Factored out of DvmNode so tests can serve the same service over any
/// Transport (the sim/tcp/uds-parametrized anti-entropy suite).
std::shared_ptr<net::DispatcherMux> make_state_service(
    std::shared_ptr<StateStore> store, std::uint64_t self_writer);

/// One enrolled DVM member: a borrowed container plus this node's state
/// store and its state service endpoint.
class DvmNode {
 public:
  /// Borrows `container`; it must outlive the node.
  explicit DvmNode(container::Container& container);

  /// Binds the state service at (host, kStatePort).
  Status start();
  void stop();

  container::Container& container() { return container_; }
  const std::string& name() const { return container_.name(); }
  net::HostId host() const { return container_.host(); }
  net::SimNetwork& network() { return container_.network(); }
  StateStore& state() { return *state_; }
  const StateStore& state() const { return *state_; }

  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  // ---- remote state access (used by the coherency protocols) -----------------

  /// set on a peer node's store, issued from this node.
  Status remote_set(DvmNode& target, std::string_view key, std::string_view value);
  /// All of `writes` applied on a peer as ONE batch (an XDR "H2RB" frame
  /// of "set" sub-calls per kMaxBatchCalls writes) — the transport leg of
  /// write coalescing.
  Status remote_set_batch(DvmNode& target, std::span<const KV> writes);
  /// get from a peer node's store, issued from this node.
  Result<std::string> remote_get(DvmNode& target, std::string_view key);
  /// del on a peer node's store, issued from this node.
  Status remote_del(DvmNode& target, std::string_view key);
  /// Liveness probe of a peer's state service (the heartbeat primitive).
  Status remote_ping(DvmNode& target);

  /// Versioned LWW delta to a peer (sharded mode). Returns whether the
  /// peer applied it (false: the peer already held something newer).
  Result<bool> remote_vset(DvmNode& target, const VersionedEntry& entry);
  /// Versioned read from a peer (sharded mode): the full entry including
  /// version and tombstone flag — what the read-repair path compares.
  Result<VersionedEntry> remote_vget(DvmNode& target, std::string_view key);
  /// All of `entries` LWW-applied on a peer as ONE batch (push_batch).
  Status remote_vset_batch(DvmNode& target, std::span<const VersionedEntry> entries);
  /// Channel to a peer's state service, from this node's vantage — the
  /// handle merkle_sync_shard_with_peer and the shard-routing layer drive.
  std::unique_ptr<net::Channel> open_state_channel(DvmNode& target);

 private:
  Result<Value> invoke_on(DvmNode& target, std::string_view operation,
                          std::span<const Value> params);

  container::Container& container_;
  std::shared_ptr<StateStore> state_;
  std::shared_ptr<net::DispatcherMux> service_;
  std::optional<net::ServerHandle> server_;
  bool alive_ = true;
};

}  // namespace h2::dvm
