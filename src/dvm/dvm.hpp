// The Distributed Virtual Machine — the distributed component container of
// Figure 6 (top layer) and the execution context of Figure 1. "It supplies
// a unified name space, status query, lookup service and a management
// point for a set of component containers. In effect, that level of
// abstraction introduces the notion of a distributed global state."
//
// The DVM is constructed exactly as the paper describes: created with a
// symbolic name, then nodes are added, then plugins/components are
// deployed on nodes. Global state lives behind a pluggable
// CoherencyProtocol; the DVM API is identical for all protocols.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dvm/coherency.hpp"
#include "loop/event_loop.hpp"
#include "obs/metrics.hpp"

namespace h2::dvm {

/// Status snapshot returned by Dvm::status().
struct DvmStatus {
  std::string name;
  std::size_t nodes_alive = 0;
  std::size_t nodes_failed = 0;
  std::size_t components = 0;
  std::string coherency;
};

class Dvm {
 public:
  /// `name` is the DVM's symbolic name, unique in the Harness name space.
  Dvm(std::string name, std::unique_ptr<CoherencyProtocol> protocol);
  ~Dvm();

  Dvm(const Dvm&) = delete;
  Dvm& operator=(const Dvm&) = delete;

  const std::string& name() const { return name_; }
  const char* coherency() const { return protocol_->name(); }

  // ---- membership ------------------------------------------------------------

  /// Enrolls a container as a DVM node: starts its state service, records
  /// membership in global state, and announces a "dvm/membership" event on
  /// every member's kernel event bus. Container must outlive the DVM.
  Result<std::size_t> add_node(container::Container& container);

  /// Graceful removal: departure is recorded and announced.
  Status remove_node(std::string_view node_name);

  /// Failure handling: marks the node dead without talking to it (it may
  /// be unreachable); membership state is updated on the survivors.
  Status mark_failed(std::string_view node_name);

  /// Abrupt node death: the member's container endpoints go dark
  /// (container::Container::crash()) and the node is marked failed — the
  /// simulation harness's "kill -9". Survivors record the failure.
  Status crash_node(std::string_view node_name);

  /// Brings a failed member back: its container restarts on the original
  /// addresses, the state service re-binds, and the coherency protocol's
  /// join back-fill runs so the returnee converges with the survivors.
  /// Returns the node's index among the alive members.
  Result<std::size_t> rejoin(std::string_view node_name);

  std::size_t node_count() const;  ///< alive nodes
  std::vector<std::string> node_names() const;

  /// Alive member by name. The primary lookup: success means the node is
  /// enrolled and alive.
  Result<DvmNode&> member(std::string_view node_name);

  bool is_member(std::string_view node_name) const;

  /// Every enrolled member, dead ones included — the observable membership
  /// history the simulation invariants check against.
  std::vector<const DvmNode*> all_members() const;

  /// Monotonic membership epoch: bumped by every join, departure, failure
  /// and rejoin. Never decreases; simulation invariants assert exactly
  /// one bump per membership event.
  std::uint64_t epoch() const { return epoch_; }

  // ---- distributed global state ------------------------------------------------

  /// Writes a global state entry, originated at `node_name`.
  Status set(std::string_view node_name, std::string_view key, std::string_view value);

  /// Applies all of `writes` as one coherency round from `node_name`.
  /// Replicating protocols coalesce the storm (last write per key) and
  /// send each destination ONE batched message instead of one per write.
  Status set_batch(std::string_view node_name, std::span<const KV> writes);
  /// Reads a global state entry from the vantage point of `node_name`.
  Result<std::string> get(std::string_view node_name, std::string_view key);
  /// Deletes a global state entry.
  Status erase(std::string_view node_name, std::string_view key);

  // ---- event-loop dispatch -------------------------------------------------------

  /// The DVM's dispatch loop: probe / anti-entropy completions and the
  /// periodic membership timers run here. Eager (inline) until a driver
  /// is attached — the sim harness attaches its SimDriver, real
  /// deployments an EpollDriver.
  loop::EventLoop& loop() { return loop_; }
  const loop::EventLoop& loop() const { return loop_; }

  using ProbeCompletion = std::function<void(Result<std::vector<std::string>>)>;
  using AntiEntropyCompletion = std::function<void(Result<AntiEntropyReport>)>;
  using HintReplayCompletion = std::function<void(Result<HintReplayReport>)>;

  /// Loop-posted heartbeat sweep: `from_node` probes its heartbeat peers
  /// on the DVM loop; the names of nodes newly declared failed are
  /// delivered to `done` there. Eager mode completes before returning;
  /// under a driver the completion runs when the loop is next pumped.
  void post_probe(std::string_view from_node, ProbeCompletion done);

  /// Loop-posted anti-entropy pass; the repair report reaches `done` on
  /// the DVM loop (sharded coherency; a no-op report under the
  /// broadcast protocols).
  void post_anti_entropy(AntiEntropyCompletion done);

  /// Arms a periodic heartbeat on the timer wheel: each firing probes
  /// from the next alive member (round-robin) and reports the names of
  /// nodes the sweep newly declared failed — usually empty — to
  /// `on_failures`, so the owner can account for membership changes.
  /// Cancel with loop().cancel_timer().
  loop::TimerId start_heartbeat(
      Nanos period,
      std::function<void(const std::vector<std::string>&)> on_failures = {});

  /// Arms periodic anti-entropy repair on the timer wheel.
  loop::TimerId start_anti_entropy(
      Nanos period, std::function<void(const AntiEntropyReport&)> on_report = {});

  /// Loop-posted hint-replay pass: the coherency protocol's parked
  /// hinted-handoff entries are redelivered (within the rebalance budget)
  /// and the report reaches `done` on the DVM loop. A no-op report under
  /// protocols without hinted handoff.
  void post_hint_replay(HintReplayCompletion done);

  /// Arms periodic hint replay on the timer wheel — the loop half of
  /// hinted handoff: each firing drains one budget's worth of parked
  /// hints back to owners that have come back.
  loop::TimerId start_hint_replay(
      Nanos period, std::function<void(const HintReplayReport&)> on_report = {});

  /// Hinted-handoff entries currently parked (0 for protocols without
  /// hinted handoff).
  std::size_t pending_hints() const { return protocol_->pending_hints(); }

  /// Distinct keys with a parked hint: replication debt that replay still
  /// owes. Durability invariants exempt these from full-replication checks.
  std::vector<std::string> hinted_keys() const { return protocol_->hinted_keys(); }

  /// Parks a hint at `coordinator` for a replica write that never reached
  /// `target` — the resilience layer's entry point when a shard-routed
  /// replication leg fails.
  void park_hint(std::string_view coordinator, std::string_view target,
                 const VersionedEntry& entry) {
    protocol_->park_hint(coordinator, target, entry);
  }

  /// Live shard→owners placement, or nullptr when the plugged-in protocol
  /// does not shard. The shard-routed resilient channel reads this.
  const ShardMap* shard_map() const { return protocol_->shard_map(); }

  // ---- component deployment and the unified name space ---------------------------

  /// Deploys a plugin on one node and records it in global state under
  /// "component/<qualified-name>". Returns the qualified name
  /// "<dvm>/<node>/<instance>".
  Result<std::string> deploy(std::string_view node_name, std::string_view plugin,
                             const container::DeployOptions& options = {});

  /// Deploys a plugin on every alive node (the replicated baseline set of
  /// Fig 1: message passing, process management, ... on all nodes).
  Status deploy_everywhere(std::string_view plugin,
                           const container::DeployOptions& options = {});

  /// Undeploys a component by qualified name.
  Status undeploy(std::string_view qualified_name);

  /// Which node hosts a component (queried from `from_node`'s vantage).
  Result<std::string> locate(std::string_view from_node,
                             std::string_view qualified_name);

  /// DVM-wide service lookup: searches every alive member's local registry
  /// and returns the first WSDL match (the Fig 4 lookup service).
  Result<wsdl::Definitions> find_service(std::string_view service_name) const;

  /// All alive replicas of a service, in membership order — the candidate
  /// list a FailoverChannel walks when its primary endpoint dies. Empty
  /// vector (not an error) when nothing matches.
  std::vector<wsdl::Definitions> find_all_services(std::string_view service_name) const;

  /// Announces a completed client failover on every member's event bus
  /// (topic "dvm/failover", payload "service:from->to"). Emitted by the
  /// resilience layer, observable by tests and operators alike.
  void announce_failover(std::string_view service_name, std::string_view from_node,
                         std::string_view to_node);

  // ---- status -----------------------------------------------------------------

  DvmStatus status() const;

 private:
  struct Member {
    std::unique_ptr<DvmNode> node;
  };

  std::vector<DvmNode*> alive_members() const;
  Result<std::size_t> alive_index(std::string_view node_name) const;
  /// Blocking bodies behind the loop-posted entry points (which run them
  /// with loop affinity).
  Result<std::vector<std::string>> probe_now(std::string_view from_node);
  Result<AntiEntropyReport> anti_entropy_now();
  Result<HintReplayReport> hint_replay_now();
  void announce(std::string_view topic, const std::string& message);
  DvmNode* lookup_alive(std::string_view node_name);
  /// Runs `round()` — one protocol call issued at `at` — as one measured
  /// coherency round (h2.dvm.<name>.coherency.*): round count, message
  /// fan-out (net-stats delta across the call) and convergence time
  /// (virtual ns the round consumed). Returns what `round()` returned.
  template <typename Round>
  auto measured(DvmNode& at, Round round);

  std::string name_;
  std::unique_ptr<CoherencyProtocol> protocol_;
  loop::EventLoop loop_;
  std::vector<Member> members_;
  std::size_t components_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t heartbeat_rr_ = 0;  ///< round-robin prober for start_heartbeat
  // Coherency metric handles, cached on first use (all members share one
  // SimNetwork; re-resolved if the network ever differs).
  net::SimNetwork* metrics_net_ = nullptr;
  obs::Counter* c_rounds_ = nullptr;
  obs::Counter* c_fanout_ = nullptr;
  obs::Histogram* h_convergence_ = nullptr;
};

}  // namespace h2::dvm
