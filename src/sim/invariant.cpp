#include "sim/invariant.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "sim/harness.hpp"

namespace h2::sim {

namespace {

/// Full-synchrony contract: every alive replica can locally serve the
/// ledger value of every cleanly-acknowledged key. Vacuous for protocols
/// that only promise reachability, not replication.
class CoherencyConvergence final : public Invariant {
 public:
  const char* name() const override { return "coherency-convergence"; }

  Status check(SimHarness& harness) override {
    if (harness.config().protocol != SimConfig::Protocol::kFullSynchrony) {
      return Status::success();
    }
    for (const std::string& node : harness.dvm().node_names()) {
      for (const auto& [key, entry] : harness.ledger()) {
        if (!entry.clean) continue;
        auto value = harness.dvm().get(node, key);
        if (!value.ok()) {
          return err::internal("replica " + node + " is missing key " + key +
                               " (acknowledged '" + entry.value +
                               "'): " + value.error().message());
        }
        if (*value != entry.value) {
          return err::internal("replica " + node + " diverged on " + key + ": holds '" +
                               *value + "', acknowledged '" + entry.value + "'");
        }
      }
    }
    return Status::success();
  }
};

/// No acknowledged write disappears. The vantage point matters: under
/// decentralized/neighborhood coherency an overwrite from node X leaves
/// stale copies on earlier writers, and a distributed query may surface
/// them — that is the protocol's documented trade-off, not a lost key. The
/// one read every protocol guarantees is from the last write's origin
/// (local copy wins), so that is what we check; when the origin is dead
/// (only kept in the ledger under full synchrony) any replica must serve
/// it.
class NoLostKeys final : public Invariant {
 public:
  const char* name() const override { return "no-lost-keys"; }

  Status check(SimHarness& harness) override {
    auto names = harness.dvm().node_names();
    if (names.empty()) return err::internal("no alive nodes to read from");
    for (const auto& [key, entry] : harness.ledger()) {
      if (!entry.clean) continue;
      const std::string& vantage = harness.dvm().is_member(entry.origin_node)
                                       ? entry.origin_node
                                       : names.front();
      auto value = harness.dvm().get(vantage, key);
      if (!value.ok()) {
        return err::internal("key " + key + " (origin " + entry.origin_node +
                             ", acknowledged '" + entry.value +
                             "') is gone: " + value.error().message());
      }
      if (*value != entry.value) {
        return err::internal("key " + key + " holds stale '" + *value +
                             "', acknowledged '" + entry.value + "'");
      }
    }
    return Status::success();
  }
};

/// Every component deployed on a currently-alive node is still locatable
/// through the DVM name space and describable by its hosting container.
class RegistryConsistency final : public Invariant {
 public:
  const char* name() const override { return "registry-consistency"; }

  Status check(SimHarness& harness) override {
    auto names = harness.dvm().node_names();
    if (names.empty()) return err::internal("no alive nodes to query from");
    for (const auto& component : harness.deployed()) {
      if (!harness.dvm().is_member(component.node)) continue;  // host is down
      auto located = harness.dvm().locate(names.front(), component.qualified);
      if (!located.ok()) {
        return err::internal("component " + component.qualified +
                             " vanished from the name space: " +
                             located.error().message());
      }
      auto node = harness.dvm().member(component.node);
      if (!node.ok()) {
        return err::internal("alive node " + component.node + " has no DvmNode");
      }
      auto wsdl = node->container().describe(component.instance);
      if (!wsdl.ok()) {
        return err::internal("container " + component.node + " lost instance " +
                             component.instance + ": " + wsdl.error().message());
      }
    }
    return Status::success();
  }
};

/// The DVM epoch never decreases and matches the number of membership
/// events the schedule performed (joins, failures, rejoins).
class MonotonicEpoch final : public Invariant {
 public:
  const char* name() const override { return "monotonic-epoch"; }

  Status check(SimHarness& harness) override {
    std::uint64_t epoch = harness.dvm().epoch();
    if (epoch < last_seen_) {
      return err::internal("epoch went backwards: " + std::to_string(last_seen_) +
                           " -> " + std::to_string(epoch));
    }
    last_seen_ = epoch;
    if (epoch != harness.membership_events()) {
      return err::internal("epoch " + std::to_string(epoch) + " != " +
                           std::to_string(harness.membership_events()) +
                           " membership events the harness performed");
    }
    return Status::success();
  }

 private:
  std::uint64_t last_seen_ = 0;
};

/// The h2.net.* counters must mirror SimNetwork::stats() exactly. The
/// counters are cumulative since network construction and the harness
/// never calls reset_stats(), so any divergence means stats() no longer
/// reports the counters it is read from.
class MetricsConsistency final : public Invariant {
 public:
  const char* name() const override { return "metrics-consistency"; }

  Status check(SimHarness& harness) override {
    const net::NetStats stats = harness.net().stats();
    const auto& metrics = harness.net().metrics();
    const struct {
      const char* metric;
      std::uint64_t expect;
    } pairs[] = {
        {"h2.net.messages", stats.messages}, {"h2.net.bytes", stats.bytes},
        {"h2.net.calls", stats.calls},       {"h2.net.drops", stats.drops},
        {"h2.net.faults", stats.faults},
    };
    for (const auto& pair : pairs) {
      std::uint64_t got = metrics.counter_value(pair.metric);
      if (got != pair.expect) {
        return err::internal(std::string(pair.metric) + " counter reads " +
                             std::to_string(got) + " but NetStats says " +
                             std::to_string(pair.expect));
      }
    }
    return Status::success();
  }
};

/// No-lost-events: checked after the settle pump, when every loop must be
/// quiescent. `pending` catches stuck queues (a task enqueued but never
/// drained); `posted == executed` catches the accounting variant — a
/// cross-loop post that was consumed without running or ran twice.
class NoLostEvents final : public Invariant {
 public:
  const char* name() const override { return "no-lost-events"; }

  Status check(SimHarness& harness) override {
    auto inspect = [](const loop::EventLoop& loop) -> Status {
      const loop::LoopStats stats = loop.stats();
      if (stats.pending != 0) {
        return err::internal("loop '" + std::string(loop.name()) + "' still has " +
                             std::to_string(stats.pending) +
                             " queued tasks after the settle pump");
      }
      if (stats.posted != stats.executed) {
        return err::internal("loop '" + std::string(loop.name()) + "' posted " +
                             std::to_string(stats.posted) + " tasks but executed " +
                             std::to_string(stats.executed));
      }
      return Status::success();
    };
    if (auto status = inspect(harness.dvm().loop()); !status.ok()) return status;
    for (const std::string& name : harness.dvm().node_names()) {
      auto member = harness.dvm().member(name);
      if (!member.ok()) continue;
      if (auto status = inspect(member->container().loop()); !status.ok()) {
        return status;
      }
    }
    return Status::success();
  }
};

/// At-most-once for the resilient RPC workload: ask every alive counter
/// replica (through its own container's local binding — no network, so the
/// check itself cannot be disturbed by chaos) how many duplicate logical
/// operations it has executed. The answer must always be zero: retried and
/// network-duplicated calls are absorbed by the server-side idempotency
/// cache, and failover only ever abandons an endpoint where no handler ran.
class RpcAtMostOnce final : public Invariant {
 public:
  const char* name() const override { return "rpc-at-most-once"; }

  Status check(SimHarness& harness) override {
    for (const std::string& name : harness.dvm().node_names()) {
      auto node = harness.dvm().member(name);
      if (!node.ok()) continue;
      auto record = node->container().find_local("CounterService");
      if (!record.ok()) continue;  // scenario runs no counter witness here
      auto channel = node->container().open_channel(record->wsdl);
      if (!channel.ok()) {
        return err::internal("cannot open counter on " + name + ": " +
                             channel.error().message());
      }
      auto dups = (*channel)->invoke("dups", std::span<const Value>{});
      if (!dups.ok()) {
        return err::internal("cannot read dups on " + name + ": " +
                             dups.error().message());
      }
      auto count = dups->as_int();
      if (!count.ok()) return count.error();
      if (*count != 0) {
        return err::internal("replica " + name + " executed " +
                             std::to_string(*count) +
                             " duplicate add(s) — a retried or duplicated "
                             "call was applied more than once");
      }
    }
    return Status::success();
  }
};

/// The resilience layer's error contract: callers only ever see success or
/// kTimeout. Anything in RpcStats::failed means a transient transport
/// error (kUnavailable and friends) escaped the retry/failover stack.
class RpcTimeoutOnly final : public Invariant {
 public:
  const char* name() const override { return "rpc-timeout-only"; }

  Status check(SimHarness& harness) override {
    const SimHarness::RpcStats& stats = harness.rpc_stats();
    if (stats.failed != 0) {
      return err::internal(std::to_string(stats.failed) + " of " +
                           std::to_string(stats.issued) +
                           " rcall(s) failed with a code other than kTimeout"
                           " (last: " + harness.last_rpc_error() + ")");
    }
    return Status::success();
  }
};

/// Full availability: with at least one replica alive at all times and no
/// reply loss, failover must mask every crash — all rcalls succeed.
class RpcAvailability final : public Invariant {
 public:
  const char* name() const override { return "rpc-availability"; }

  Status check(SimHarness& harness) override {
    const SimHarness::RpcStats& stats = harness.rpc_stats();
    if (stats.succeeded != stats.issued) {
      return err::internal(std::to_string(stats.succeeded) + " of " +
                           std::to_string(stats.issued) +
                           " rcall(s) succeeded (" +
                           std::to_string(stats.timed_out) + " timed out, " +
                           std::to_string(stats.failed) + " failed: " +
                           harness.last_rpc_error() + ")");
    }
    return Status::success();
  }
};

/// Sharded replication contract: with anti-entropy settled, every alive
/// owner of a shard holds the identical shard snapshot — same keys, same
/// values, same versions, same tombstones. A skipped or broken repair
/// pass leaves replicas diverged and fails here.
class ShardConvergence final : public Invariant {
 public:
  const char* name() const override { return "shard-convergence"; }

  Status check(SimHarness& harness) override {
    if (harness.config().protocol != SimConfig::Protocol::kSharded) {
      return Status::success();
    }
    const dvm::ShardMap* map = harness.dvm().shard_map();
    if (map == nullptr) {
      return err::internal("sharded protocol exposes no shard map");
    }
    for (std::size_t s = 0; s < map->shard_count(); ++s) {
      std::string reference_owner;
      std::vector<dvm::VersionedEntry> reference;
      for (const std::string& owner : map->owners(s)) {
        auto node = harness.dvm().member(owner);
        if (!node.ok()) continue;  // owner died between map rebuilds
        auto snapshot = node->state().shard_snapshot(s, map->shard_count());
        if (reference_owner.empty()) {
          reference_owner = owner;
          reference = std::move(snapshot);
          continue;
        }
        if (snapshot != reference) {
          return err::internal(
              "shard " + std::to_string(s) + ": replica " + owner + " (" +
              std::to_string(snapshot.size()) + " entries) diverges from " +
              reference_owner + " (" + std::to_string(reference.size()) +
              " entries) after anti-entropy settled");
        }
      }
    }
    return Status::success();
  }
};

/// Sharded no-lost-keys: every cleanly-acknowledged write reads back with
/// its acknowledged value from every alive vantage point — the shard
/// query must route to an owner holding the key no matter where it is
/// issued.
class NoLostKeysSharded final : public Invariant {
 public:
  const char* name() const override { return "no-lost-keys-sharded"; }

  Status check(SimHarness& harness) override {
    if (harness.config().protocol != SimConfig::Protocol::kSharded) {
      return Status::success();
    }
    auto names = harness.dvm().node_names();
    if (names.empty()) return err::internal("no alive nodes to read from");
    for (const auto& [key, entry] : harness.ledger()) {
      if (!entry.clean) continue;
      for (const std::string& vantage : names) {
        auto value = harness.dvm().get(vantage, key);
        if (!value.ok()) {
          return err::internal("key " + key + " (acknowledged '" + entry.value +
                               "') unreadable from " + vantage + ": " +
                               value.error().message());
        }
        if (*value != entry.value) {
          return err::internal("key " + key + " reads '" + *value + "' from " +
                               vantage + ", acknowledged '" + entry.value + "'");
        }
      }
    }
    return Status::success();
  }
};

/// Placement sanity: the protocol's live shard map must equal a freshly
/// rebuilt map over the current membership (no stale routing), and every
/// shard must have exactly min(R, alive) distinct alive owners.
class SingleOwnerPerShard final : public Invariant {
 public:
  const char* name() const override { return "single-owner-per-shard"; }

  Status check(SimHarness& harness) override {
    if (harness.config().protocol != SimConfig::Protocol::kSharded) {
      return Status::success();
    }
    const dvm::ShardMap* map = harness.dvm().shard_map();
    if (map == nullptr) {
      return err::internal("sharded protocol exposes no shard map");
    }
    auto names = harness.dvm().node_names();
    std::sort(names.begin(), names.end());
    dvm::ShardMap fresh(map->config());
    fresh.rebuild(names);
    const std::size_t expected =
        std::min(map->config().replicas, names.size());
    for (std::size_t s = 0; s < map->shard_count(); ++s) {
      auto live = map->owners(s);
      auto want = fresh.owners(s);
      if (!std::equal(live.begin(), live.end(), want.begin(), want.end())) {
        return err::internal("shard " + std::to_string(s) +
                             " has a stale owner list (live map disagrees "
                             "with a rebuild over current membership)");
      }
      if (live.size() != expected) {
        return err::internal("shard " + std::to_string(s) + " has " +
                             std::to_string(live.size()) + " owners, expected " +
                             std::to_string(expected));
      }
      std::set<std::string_view> seen;
      for (const std::string& owner : live) {
        if (!harness.dvm().is_member(owner)) {
          return err::internal("shard " + std::to_string(s) + " owner " + owner +
                               " is not an alive member");
        }
        if (!seen.insert(owner).second) {
          return err::internal("shard " + std::to_string(s) +
                               " lists owner " + owner + " twice");
        }
      }
    }
    return Status::success();
  }
};

/// Degraded-mode durability, checked BEFORE the settle anti-entropy pass
/// (pre_anti_entropy), after the harness drained hint replay: every
/// cleanly-acknowledged key must be held (with the acknowledged value) by
/// every alive owner of its shard, unless a parked hint still records the
/// debt — hints survive while their coordinator is dead or the rebalance
/// budget is exhausted, and that is accounted-for, not lost. A key that is
/// both under-replicated and unhinted means a failed replication leg was
/// silently forgotten: exactly what the planted hint-drop bug does, and
/// what anti-entropy would otherwise quietly mask.
class NoUnderReplicatedWrites final : public Invariant {
 public:
  const char* name() const override { return "no-under-replicated-writes"; }

  bool pre_anti_entropy() const override { return true; }

  Status check(SimHarness& harness) override {
    if (harness.config().protocol != SimConfig::Protocol::kSharded) {
      return Status::success();
    }
    const dvm::ShardMap* map = harness.dvm().shard_map();
    if (map == nullptr) {
      return err::internal("sharded protocol exposes no shard map");
    }
    auto hinted_list = harness.dvm().hinted_keys();
    std::set<std::string_view> hinted(hinted_list.begin(), hinted_list.end());
    for (const auto& [key, entry] : harness.ledger()) {
      if (!entry.clean) continue;
      if (hinted.count(key) != 0) continue;  // debt recorded; replay owes it
      for (const std::string& owner : map->owners(map->shard_of(key))) {
        auto node = harness.dvm().member(owner);
        if (!node.ok()) continue;  // owner died between map rebuilds
        auto value = node->state().get(key);
        if (!value.has_value()) {
          return err::internal(
              "owner " + owner + " is missing key " + key + " (acknowledged '" +
              entry.value +
              "') with no parked hint — the failed replication leg was "
              "forgotten");
        }
        if (*value != entry.value) {
          return err::internal("owner " + owner + " holds stale " + key + "='" +
                               *value + "', acknowledged '" + entry.value +
                               "', with no parked hint");
        }
      }
    }
    return Status::success();
  }
};

}  // namespace

std::unique_ptr<Invariant> make_coherency_convergence() {
  return std::make_unique<CoherencyConvergence>();
}
std::unique_ptr<Invariant> make_no_lost_keys() {
  return std::make_unique<NoLostKeys>();
}
std::unique_ptr<Invariant> make_registry_consistency() {
  return std::make_unique<RegistryConsistency>();
}
std::unique_ptr<Invariant> make_monotonic_epoch() {
  return std::make_unique<MonotonicEpoch>();
}
std::unique_ptr<Invariant> make_metrics_consistency() {
  return std::make_unique<MetricsConsistency>();
}
std::unique_ptr<Invariant> make_no_lost_events() {
  return std::make_unique<NoLostEvents>();
}
std::unique_ptr<Invariant> make_rpc_at_most_once() {
  return std::make_unique<RpcAtMostOnce>();
}
std::unique_ptr<Invariant> make_rpc_timeout_only() {
  return std::make_unique<RpcTimeoutOnly>();
}
std::unique_ptr<Invariant> make_rpc_availability() {
  return std::make_unique<RpcAvailability>();
}
std::unique_ptr<Invariant> make_shard_convergence() {
  return std::make_unique<ShardConvergence>();
}
std::unique_ptr<Invariant> make_no_lost_keys_sharded() {
  return std::make_unique<NoLostKeysSharded>();
}
std::unique_ptr<Invariant> make_single_owner_per_shard() {
  return std::make_unique<SingleOwnerPerShard>();
}
std::unique_ptr<Invariant> make_no_under_replicated_writes() {
  return std::make_unique<NoUnderReplicatedWrites>();
}

Result<std::unique_ptr<Invariant>> make_invariant(std::string_view name) {
  if (name == "coherency-convergence") return make_coherency_convergence();
  if (name == "no-lost-keys") return make_no_lost_keys();
  if (name == "registry-consistency") return make_registry_consistency();
  if (name == "monotonic-epoch") return make_monotonic_epoch();
  if (name == "metrics-consistency") return make_metrics_consistency();
  if (name == "no-lost-events") return make_no_lost_events();
  if (name == "rpc-at-most-once") return make_rpc_at_most_once();
  if (name == "rpc-timeout-only") return make_rpc_timeout_only();
  if (name == "rpc-availability") return make_rpc_availability();
  if (name == "shard-convergence") return make_shard_convergence();
  if (name == "no-lost-keys-sharded") return make_no_lost_keys_sharded();
  if (name == "single-owner-per-shard") return make_single_owner_per_shard();
  if (name == "no-under-replicated-writes") return make_no_under_replicated_writes();
  return err::not_found("unknown invariant '" + std::string(name) + "'");
}

}  // namespace h2::sim
