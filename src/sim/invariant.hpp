// Pluggable invariant checkers. SimHarness runs every registered
// invariant at each settle point (chaos paused, partitions healed, queues
// pumped); a failed check aborts the run with the seed and a replayable
// trace. Invariants observe the system through the harness accessors —
// the DVM's membership/epoch, each node's local state store, and the
// harness's own ledger of acknowledged writes and deployments.
#pragma once

#include <memory>
#include <string>

#include "util/error.hpp"

namespace h2::sim {

class SimHarness;

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual const char* name() const = 0;

  /// Called at settle points. Returns an error describing the violation;
  /// the harness wraps it with scenario/seed/step context.
  virtual Status check(SimHarness& harness) = 0;

  /// Pre-anti-entropy invariants run after the settle-time hint-replay
  /// drain but BEFORE the settle anti-entropy pass: they judge what
  /// hinted handoff alone restored, so an AE backstop cannot mask a
  /// dropped hint. Default: checked at the normal (post-AE) point.
  virtual bool pre_anti_entropy() const { return false; }
};

/// Every alive replica holds the ledger value of every cleanly-acknowledged
/// key — the replicated-state contract of the full-synchrony protocol.
/// Skipped (vacuously true) under other protocols.
std::unique_ptr<Invariant> make_coherency_convergence();

/// No acknowledged write disappears: every ledger key is still readable
/// from the vantage of the protocol that stored it.
std::unique_ptr<Invariant> make_no_lost_keys();

/// Every component the harness successfully deployed on a currently-alive
/// node is still locatable through the DVM name space and describable by
/// its hosting container.
std::unique_ptr<Invariant> make_registry_consistency();

/// The DVM epoch is monotonic and advances exactly once per membership
/// event the harness performed (join, failure, rejoin).
std::unique_ptr<Invariant> make_monotonic_epoch();

/// The observability layer agrees with the network's own accounting:
/// every h2.net.* counter in the metrics registry equals the matching
/// SimNetwork::stats() field. stats() is read from those counters, so
/// this pins that a sim run, which never resets, reports them unchanged.
std::unique_ptr<Invariant> make_metrics_consistency();

/// No lost events: at a settle point (all loops pumped to quiescence)
/// every event loop in the cluster — the DVM's and each alive member's —
/// has an empty queue and has executed exactly as many tasks as were
/// posted. A gap means a cross-loop post was dropped or double-counted.
std::unique_ptr<Invariant> make_no_lost_events();

/// At-most-once: no counter replica has ever executed the same logical
/// add() twice. Retries, network duplicates and failovers all funnel
/// through the idempotency machinery; a nonzero `dups` reading on any
/// replica means a side effect was double-applied. Vacuous when the
/// scenario deploys no counter witness.
std::unique_ptr<Invariant> make_rpc_at_most_once();

/// Resilience error contract: every rcall the schedule issued either
/// succeeded or failed with kTimeout ("fate unknown"). Any other failure
/// leaked a transient transport error past the retry/failover stack.
std::unique_ptr<Invariant> make_rpc_timeout_only();

/// Availability: every rcall succeeded outright. Only meaningful for
/// scenarios (like failover-cascade) where some replica is always alive
/// and reply loss is off, so failover must mask every crash completely.
std::unique_ptr<Invariant> make_rpc_availability();

/// Sharded replication contract: after the settle-time anti-entropy pass,
/// every alive owner of every shard holds a byte-identical shard snapshot
/// (keys, values, versions and tombstones). Vacuous unless the scenario
/// runs the sharded protocol. This is the invariant the planted
/// skip-one-shard anti-entropy bug must trip.
std::unique_ptr<Invariant> make_shard_convergence();

/// No acknowledged sharded write disappears: every cleanly-acknowledged
/// ledger key reads back with its acknowledged value from EVERY alive
/// node's vantage (the shard query walks the owner set, so this also
/// exercises read routing). Vacuous unless sharded.
std::unique_ptr<Invariant> make_no_lost_keys_sharded();

/// Placement sanity: the live shard map equals a freshly rebuilt map over
/// the current membership, and each shard has exactly min(R, alive)
/// distinct, alive owners. Vacuous unless sharded.
std::unique_ptr<Invariant> make_single_owner_per_shard();

/// Degraded-mode durability (pre-anti-entropy): after the settle-time
/// hint-replay drain, every cleanly-acknowledged key is either held by
/// EVERY alive owner of its shard or still has a parked hint recording
/// the debt. An under-replicated key with no hint means a failed
/// replication leg was silently forgotten — the violation the planted
/// hint-drop bug must produce. Vacuous unless sharded.
std::unique_ptr<Invariant> make_no_under_replicated_writes();

/// By name, for scenario definitions and the simrunner CLI:
/// "coherency-convergence", "no-lost-keys", "registry-consistency",
/// "monotonic-epoch", "metrics-consistency", "rpc-at-most-once",
/// "rpc-timeout-only", "rpc-availability", "shard-convergence",
/// "no-lost-keys-sharded", "single-owner-per-shard",
/// "no-under-replicated-writes".
Result<std::unique_ptr<Invariant>> make_invariant(std::string_view name);

}  // namespace h2::sim
