// Global-state coherency protocols (paper Section 6):
//
//   "In the full synchrony scheme, the entire state information is
//    replicated across all participating nodes. All system events are
//    synchronously distributed to maintain coherency. ... may be
//    appropriate for relatively small DVMs running applications with many
//    critical components.
//
//    In contrast, in a fully decentralized scheme state change events are
//    not propagated to other nodes. Instead, every request for state
//    information triggers a distributed query spanning across the DVM. ...
//    appropriate for loosely coupled, massively distributed applications
//    such as Seti@home.
//
//    Mixed solutions are possible as well. For example, mesh-structured
//    applications may benefit from a scheme that provides full synchrony
//    across small neighborhoods but facilitates distributed queries for
//    farther hosts."
//
// All three are implemented behind one interface; the DVM API never
// depends on which is plugged in ("they always expose the same functional
// interface ... so that applications can be deployed and run on any
// Harness II DVM regardless of the underlying state management solution").
// bench_state_coherency (EXP-COHER) measures the update/query crossovers.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dvm/hints.hpp"
#include "dvm/ring.hpp"
#include "dvm/state.hpp"

namespace h2::dvm {

/// What one anti-entropy pass did (sharded mode; zeroes elsewhere).
struct AntiEntropyReport {
  std::size_t shards_checked = 0;    ///< shards with ≥2 alive owners examined
  std::size_t shards_divergent = 0;  ///< shards whose digests disagreed
  std::size_t entries_repaired = 0;  ///< LWW merges applied across all replicas
  std::size_t exchange_failures = 0; ///< pairwise syncs that errored (tolerated)
  std::size_t buckets_diverged = 0;  ///< Merkle leaf buckets that transferred
  std::size_t bytes_transferred = 0; ///< blob bytes moved by the repairs
  std::size_t max_buckets = 0;       ///< largest adaptive Merkle leaf count used
};

class CoherencyProtocol {
 public:
  virtual ~CoherencyProtocol() = default;
  virtual const char* name() const = 0;

  /// A state change originated at members[origin].
  virtual Status update(std::span<DvmNode* const> members, std::size_t origin,
                        std::string_view key, std::string_view value) = 0;

  /// A storm of state changes originated at members[origin], presented
  /// together so the protocol can coalesce the wire traffic. The default
  /// keeps exact update() semantics — one call per write. Replicating
  /// protocols override it to send each destination ONE batched message
  /// carrying the last-written value per key (first-write order), cutting
  /// an N-write storm from N×M messages to M. Each such protocol keeps ONE
  /// write fan-out behind update() and update_batch(); the two differ only
  /// in the send step they pass it (a singleton frame per write, or one
  /// batch frame per destination, even for a batch of one).
  virtual Status update_batch(std::span<DvmNode* const> members, std::size_t origin,
                              std::span<const KV> writes) {
    for (const KV& kv : writes) {
      if (auto status = update(members, origin, kv.key, kv.value); !status.ok()) {
        return status;
      }
    }
    return Status::success();
  }

  /// A state query issued at members[origin].
  virtual Result<std::string> query(std::span<DvmNode* const> members,
                                    std::size_t origin, std::string_view key) = 0;

  /// A deletion originated at members[origin].
  virtual Status erase(std::span<DvmNode* const> members, std::size_t origin,
                       std::string_view key) = 0;

  /// A new member joined as members[joined]. Protocols that replicate
  /// state proactively back-fill the newcomer here; the default does
  /// nothing (decentralized semantics).
  virtual Status on_join(std::span<DvmNode* const> members, std::size_t joined) {
    (void)members;
    (void)joined;
    return Status::success();
  }

  /// A member left (graceful leave or declared failure); `members` is the
  /// surviving membership. Protocols that place state by membership (the
  /// sharded ring) hand off the departed member's shards here; the default
  /// does nothing.
  virtual Status on_leave(std::span<DvmNode* const> members,
                          std::string_view departed) {
    (void)members;
    (void)departed;
    return Status::success();
  }

  /// Which members the heartbeat prober at members[origin] should contact.
  /// The default is every other member (broadcast heartbeat); the sharded
  /// protocol narrows it to replica-set peers.
  virtual std::vector<std::size_t> heartbeat_peers(
      std::span<DvmNode* const> members, std::size_t origin) {
    std::vector<std::size_t> out;
    out.reserve(members.size() > 0 ? members.size() - 1 : 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != origin) out.push_back(i);
    }
    return out;
  }

  /// One anti-entropy repair pass over `members`. Replica digests are
  /// compared per shard and divergent shards LWW-merged to byte-equal.
  /// Default: nothing to repair (broadcast protocols converge on write).
  virtual Result<AntiEntropyReport> anti_entropy(std::span<DvmNode* const> members) {
    (void)members;
    return AntiEntropyReport{};
  }

  /// The live shard→owners map, or nullptr when the protocol does not
  /// shard (everything except make_sharded). The shard-routed resilient
  /// channel reads placement through this.
  virtual const ShardMap* shard_map() const { return nullptr; }

  /// Parks a hinted-handoff entry at `coordinator` for a replication leg
  /// that never reached `target` (sharded mode). The shard-routed
  /// resilient channel calls this when a replica write fails; the default
  /// drops it — non-sharded protocols converge through their own fan-out.
  virtual void park_hint(std::string_view coordinator, std::string_view target,
                         const VersionedEntry& entry) {
    (void)coordinator;
    (void)target;
    (void)entry;
  }

  /// One hint-replay pass: each alive coordinator redelivers its parked
  /// hints to their targets, within the rebalance budget (one refill per
  /// pass). Default: nothing pending.
  virtual Result<HintReplayReport> replay_hints(std::span<DvmNode* const> members) {
    (void)members;
    return HintReplayReport{};
  }

  /// Hints currently parked across all coordinators (sharded mode).
  virtual std::size_t pending_hints() const { return 0; }

  /// Distinct keys with a parked hint (sharded mode): their replication
  /// debt is recorded and will be paid by replay, so durability checks
  /// must not count them as lost.
  virtual std::vector<std::string> hinted_keys() const { return {}; }
};

/// Last-write-wins per key, first-occurrence order: what a destination
/// must end up storing after an in-order write storm, minus the
/// overwritten intermediates it never needs to see. Shared by every
/// protocol's update_batch override.
std::vector<KV> coalesce_writes(std::span<const KV> writes);

/// Full replication, synchronous fan-out on every change; local reads.
std::unique_ptr<CoherencyProtocol> make_full_synchrony();

/// No propagation; every non-local read is a DVM-spanning query.
std::unique_ptr<CoherencyProtocol> make_decentralized();

/// Full synchrony within a ring k-neighborhood, distributed query beyond.
std::unique_ptr<CoherencyProtocol> make_neighborhood(std::size_t k);

/// Sharded mode: consistent-hash ring placement, LWW deltas to the R
/// shard owners only, periodic anti-entropy digest exchange for repair.
std::unique_ptr<CoherencyProtocol> make_sharded(ShardConfig config);

/// TEST ONLY. Sharded mode with a deliberately planted repair bug: the
/// anti-entropy pass silently skips `skip_shard`, so divergence in that
/// shard is never repaired. `drop_hints` additionally discards parked
/// hints (see make_sharded_hint_drop_for_test) — the AE-skip sweeps set
/// it so hinted handoff cannot repair what the broken AE pass left
/// behind. The shard sim sweeps use this to prove the
/// shard-convergence/no-lost-keys invariants catch real repair gaps.
std::unique_ptr<CoherencyProtocol> make_sharded_buggy_for_test(
    ShardConfig config, std::size_t skip_shard, bool drop_hints = false);

/// TEST ONLY. Sharded mode with a deliberately planted durability bug:
/// park_hint silently discards every hint, so a write that missed an
/// owner is never redelivered by replay — only anti-entropy can repair
/// it. The hint-drop sim scenario uses it to prove the
/// no-under-replicated-writes invariant catches real handoff gaps.
std::unique_ptr<CoherencyProtocol> make_sharded_hint_drop_for_test(ShardConfig config);

/// TEST ONLY. Full synchrony with a deliberately planted coherency bug:
/// the replication fan-out silently skips the last member, so its replica
/// goes stale on every update. The simulation suite uses this to prove
/// the invariant checkers catch real coherency violations (and that a
/// failing seed replays them). Never wire into production paths.
std::unique_ptr<CoherencyProtocol> make_full_synchrony_buggy_for_test();

}  // namespace h2::dvm
