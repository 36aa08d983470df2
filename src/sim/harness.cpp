#include "sim/harness.hpp"

#include <algorithm>
#include <optional>

#include "plugins/standard.hpp"
#include "resilience/failover.hpp"
#include "sim/invariant.hpp"

namespace h2::sim {

namespace {

/// One-way datagram port the harness's noise traffic targets. Every host
/// gets a counting sink here so dup/delay/reorder chaos is exercised by
/// real deliveries, not just dropped frames.
constexpr std::uint16_t kNoisePort = 7700;

const char* protocol_label(SimConfig::Protocol protocol) {
  switch (protocol) {
    case SimConfig::Protocol::kFullSynchrony:
      return "full-synchrony";
    case SimConfig::Protocol::kDecentralized:
      return "decentralized";
    case SimConfig::Protocol::kNeighborhood:
      return "neighborhood";
    case SimConfig::Protocol::kSharded:
      return "sharded";
  }
  return "?";
}

}  // namespace

SimHarness::SimHarness(SimConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed), rng_(seed) {}

SimHarness::~SimHarness() = default;

void SimHarness::add_invariant(std::unique_ptr<Invariant> invariant) {
  invariants_.push_back(std::move(invariant));
}

std::string SimHarness::node_name(std::size_t index) const {
  std::string name = "n";
  name += std::to_string(index);
  return name;
}

std::string SimHarness::key_name(std::size_t index) const {
  std::string key = "k";
  key += std::to_string(index);
  return key;
}

std::string SimHarness::random_alive_node() {
  auto names = dvm_->node_names();
  return names[rng_.next_below(names.size())];
}

Status SimHarness::setup() {
  if (config_.nodes < 2) return err::invalid_argument("sim: need at least 2 nodes");
  if (auto status = plugins::register_standard_plugins(repo_); !status.ok()) {
    return status;
  }
  std::unique_ptr<dvm::CoherencyProtocol> protocol;
  switch (config_.protocol) {
    case SimConfig::Protocol::kFullSynchrony:
      protocol = config_.buggy_coherency ? dvm::make_full_synchrony_buggy_for_test()
                                         : dvm::make_full_synchrony();
      break;
    case SimConfig::Protocol::kDecentralized:
      protocol = dvm::make_decentralized();
      break;
    case SimConfig::Protocol::kNeighborhood:
      protocol = dvm::make_neighborhood(config_.neighborhood_k);
      break;
    case SimConfig::Protocol::kSharded:
      if (config_.buggy_shard) {
        protocol = dvm::make_sharded_buggy_for_test(
            config_.shard, dvm::shard_of_key(key_name(0), config_.shard.shards),
            config_.buggy_hint_drop);
      } else if (config_.buggy_hint_drop) {
        protocol = dvm::make_sharded_hint_drop_for_test(config_.shard);
      } else {
        protocol = dvm::make_sharded(config_.shard);
      }
      break;
  }
  dvm_ = std::make_unique<dvm::Dvm>(config_.scenario, std::move(protocol));

  trace_.record(0, "boot",
                config_.scenario + " nodes=" + std::to_string(config_.nodes) +
                    " protocol=" + protocol_label(config_.protocol) +
                    (config_.buggy_coherency ? "(buggy)" : "") +
                    (config_.buggy_shard ? "(buggy-ae)" : "") +
                    (config_.buggy_hint_drop ? "(buggy-hints)" : "") +
                    " seed=" + std::to_string(seed_));
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    std::string name = node_name(i);
    auto host = net_.add_host(name);
    if (!host.ok()) return host.error();
    if (auto status = net_.listen(*host, kNoisePort,
                                  [this](std::span<const std::uint8_t>) -> Result<ByteBuffer> {
                                    ++noise_delivered_;
                                    return ByteBuffer{};
                                  });
        !status.ok()) {
      return status;
    }
    containers_.push_back(
        std::make_unique<container::Container>(name, repo_, net_, *host));
    auto index = dvm_->add_node(*containers_.back());
    if (!index.ok()) return index.error();
    ++membership_events_;
    trace_.record(net_.clock().now(), "join", name);
  }

  if (config_.weights.rcall > 0 || config_.weights.batch > 0) {
    // The resilience workload: a counter replica on every node (the
    // side-effect witness), called through one FailoverChannel per origin.
    // The XDR-only preference forces calls onto the simulated network so
    // chaos, retries and the idempotency cache are actually exercised —
    // the local bindings would short-circuit all of it.
    container::DeployOptions options;
    options.expose_xdr = true;
    if (auto status = dvm_->deploy_everywhere("counter", options); !status.ok()) {
      return status.error().context("sim: deploying the counter witness");
    }
    if (config_.disable_dedup) {
      for (auto& c : containers_) c->set_dedup_enabled(false);
    }
    resil::CallPolicy policy;
    for (std::size_t i = 0; i < config_.nodes; ++i) {
      if (config_.weights.rcall > 0) {
        rcall_channels_[node_name(i)] = resil::make_failover_channel(
            *dvm_, *containers_[i], "CounterService", policy,
            {wsdl::BindingKind::kXdr});
      }
      if (config_.weights.batch > 0) {
        // Batched variant of the same stack: the BatchChannel packs each
        // storm into one H2RB frame, the failover/resilient layers below
        // retry and re-route it as a unit under the SAME sub-call ids.
        batch_channels_[node_name(i)] = net::make_batch_channel(
            resil::make_failover_channel(*dvm_, *containers_[i], "CounterService",
                                         policy, {wsdl::BindingKind::kXdr}),
            net_, net::BatchPolicy{.max_batch = 64});
      }
    }
    trace_.record(net_.clock().now(), "rcall-setup",
                  "counter replicas on " + std::to_string(config_.nodes) +
                      " nodes" + (config_.disable_dedup ? " (dedup OFF)" : ""));
  }

  if (config_.loop_driver) {
    // Attach after enrolment so setup traffic matches the eager schedule.
    // Registration order (DVM loop, then containers by index) is the
    // deterministic service order for the whole run.
    loop_driver_ = std::make_unique<loop::SimDriver>(net_.clock());
    loop_driver_->add_loop(dvm_->loop());
    for (auto& container : containers_) loop_driver_->add_loop(container->loop());
    if (config_.heartbeat_period > 0) {
      dvm_->start_heartbeat(config_.heartbeat_period,
                            [this](const std::vector<std::string>& failed) {
                              ++heartbeat_fires_;
                              note_failures(failed);
                              trace_.record(net_.clock().now(), "heartbeat",
                                            "timer sweep found " +
                                                std::to_string(failed.size()) +
                                                " failed");
                            });
    }
    if (config_.anti_entropy_period > 0) {
      dvm_->start_anti_entropy(
          config_.anti_entropy_period, [this](const dvm::AntiEntropyReport& report) {
            ++anti_entropy_fires_;
            trace_.record(net_.clock().now(), "anti-entropy",
                          "timer divergent=" + std::to_string(report.shards_divergent) +
                              " repaired=" + std::to_string(report.entries_repaired));
          });
    }
    if (config_.hint_replay_period > 0) {
      dvm_->start_hint_replay(
          config_.hint_replay_period, [this](const dvm::HintReplayReport& report) {
            ++hint_replay_fires_;
            trace_.record(net_.clock().now(), "hint-replay",
                          "timer delivered=" + std::to_string(report.delivered) +
                              " requeued=" + std::to_string(report.requeued));
          });
    }
    trace_.record(net_.clock().now(), "loop-driver",
                  "sim driver over " + std::to_string(loop_driver_->loop_count()) +
                      " loops");
  }
  return Status::success();
}

void SimHarness::pump_loops() {
  if (loop_driver_ != nullptr) (void)loop_driver_->run_ready();
}

Result<dvm::AntiEntropyReport> SimHarness::run_anti_entropy() {
  auto outcome = std::make_shared<std::optional<Result<dvm::AntiEntropyReport>>>();
  dvm_->post_anti_entropy(
      [outcome](Result<dvm::AntiEntropyReport> report) { *outcome = std::move(report); });
  pump_loops();
  if (!outcome->has_value()) {
    return err::internal("sim: anti-entropy completion never delivered");
  }
  return std::move(**outcome);
}

Result<dvm::HintReplayReport> SimHarness::run_hint_replay() {
  auto outcome = std::make_shared<std::optional<Result<dvm::HintReplayReport>>>();
  dvm_->post_hint_replay(
      [outcome](Result<dvm::HintReplayReport> report) { *outcome = std::move(report); });
  pump_loops();
  if (!outcome->has_value()) {
    return err::internal("sim: hint-replay completion never delivered");
  }
  return std::move(**outcome);
}

void SimHarness::install_chaos() {
  const MessageChaos& chaos = config_.plan.message_chaos();
  if (!chaos.enabled()) return;
  net_.set_fault_hook([this, chaos](const net::MessageInfo& info) {
    net::FaultDecision decision;
    // Fixed draw order (drop, dup, delay, reply-loss) keeps the PRNG
    // stream identical no matter which faults fire.
    decision.drop = rng_.next_bool(chaos.drop_p);
    bool duplicate = rng_.next_bool(chaos.dup_p);
    bool delayed = rng_.next_bool(chaos.delay_p);
    bool reply_lost = rng_.next_bool(chaos.drop_reply_p);
    if (duplicate) decision.duplicates = 1;
    if (info.is_call) {
      // Calls can be refused, duplicated (the handler runs again — what
      // the idempotency cache must absorb), or answered into the void.
      decision.drop_reply = reply_lost;
      return decision;
    }
    if (delayed && chaos.max_delay > 0) {
      decision.delay = static_cast<Nanos>(
          rng_.next_below(static_cast<std::uint64_t>(chaos.max_delay)));
    }
    return decision;
  });
}

void SimHarness::uninstall_chaos() { net_.set_fault_hook(nullptr); }

void SimHarness::prune_ledger_for_dead_node(const std::string& node) {
  // Only full synchrony guarantees a key outlives its origin; the other
  // protocols legitimately lose keys with the node that wrote them.
  if (config_.protocol == SimConfig::Protocol::kFullSynchrony) return;
  // Sharded keys are owned by their shard's replica set, not their origin:
  // they survive the writer. Genuine loss (every owner copy gone) is
  // detected by the settle-time owner scan, which dirties the key so the
  // repair pass rewrites it.
  if (config_.protocol == SimConfig::Protocol::kSharded) return;
  for (auto it = ledger_.begin(); it != ledger_.end();) {
    if (it->second.origin_node == node) {
      it = ledger_.erase(it);
    } else {
      ++it;
    }
  }
}

void SimHarness::note_failures(const std::vector<std::string>& failed) {
  for (const std::string& name : failed) {
    ++membership_events_;
    prune_ledger_for_dead_node(name);
    trace_.record(net_.clock().now(), "failed", name);
  }
}

Status SimHarness::apply_action(const FaultAction& action, std::size_t step) {
  Nanos now = net_.clock().now();
  switch (action.kind) {
    case FaultAction::Kind::kPartition: {
      auto a = static_cast<net::HostId>(action.a);
      auto b = static_cast<net::HostId>(action.b);
      if (auto status = net_.partition(a, b); !status.ok()) return status;
      partitions_.emplace_back(action.a, action.b);
      trace_.record(now, "partition", node_name(action.a) + "|" + node_name(action.b));
      break;
    }
    case FaultAction::Kind::kHeal: {
      auto a = static_cast<net::HostId>(action.a);
      auto b = static_cast<net::HostId>(action.b);
      if (auto status = net_.heal(a, b); !status.ok()) return status;
      std::erase(partitions_, std::make_pair(action.a, action.b));
      trace_.record(now, "heal", node_name(action.a) + "|" + node_name(action.b));
      break;
    }
    case FaultAction::Kind::kCrash: {
      std::string name = node_name(action.a);
      if (!dvm_->is_member(name)) {
        trace_.record(now, "crash-skip", name + " already dead");
        break;
      }
      if (auto status = dvm_->crash_node(name); !status.ok()) return status;
      ++membership_events_;
      prune_ledger_for_dead_node(name);
      trace_.record(now, "crash", name);
      break;
    }
    case FaultAction::Kind::kRestart: {
      std::string name = node_name(action.a);
      if (dvm_->is_member(name)) {
        trace_.record(now, "restart-skip", name + " already alive");
        break;
      }
      auto index = dvm_->rejoin(name);
      if (index.ok()) {
        ++membership_events_;
        trace_.record(now, "restart", name);
      } else {
        // A rejoin blocked by an active partition is chaos, not a bug.
        trace_.record(now, "restart-failed", name + ": " + index.error().message());
      }
      break;
    }
    case FaultAction::Kind::kClockSkew: {
      net_.clock().advance(action.skew);
      trace_.record(net_.clock().now(), "skew", "+" + std::to_string(action.skew) + "ns");
      break;
    }
  }
  ++report_.faults_applied;
  (void)step;
  return Status::success();
}

Status SimHarness::apply_random_faults(std::size_t step) {
  const RandomFaults& profile = config_.plan.random_faults();
  // Fixed roll order, every step, so the PRNG stream only depends on the
  // profile — not on which faults happened to fire.
  bool do_partition = rng_.next_bool(profile.partition_p);
  bool do_heal = rng_.next_bool(profile.heal_p);
  bool do_crash = rng_.next_bool(profile.crash_p);
  bool do_restart = rng_.next_bool(profile.restart_p);
  bool do_skew = rng_.next_bool(profile.skew_p);

  if (do_partition && config_.nodes >= 2) {
    std::size_t a = rng_.next_below(config_.nodes);
    std::size_t b = rng_.next_below(config_.nodes - 1);
    if (b >= a) ++b;
    if (a > b) std::swap(a, b);
    if (std::find(partitions_.begin(), partitions_.end(), std::make_pair(a, b)) ==
        partitions_.end()) {
      if (auto status = apply_action(
              {FaultAction::Kind::kPartition, step, a, b, 0}, step);
          !status.ok()) {
        return status;
      }
    }
  }
  if (do_heal && !partitions_.empty()) {
    auto [a, b] = partitions_[rng_.next_below(partitions_.size())];
    if (auto status = apply_action({FaultAction::Kind::kHeal, step, a, b, 0}, step);
        !status.ok()) {
      return status;
    }
  }
  if (do_crash && dvm_->node_count() > profile.min_alive) {
    auto names = dvm_->node_names();
    const std::string& victim = names[rng_.next_below(names.size())];
    std::size_t index = std::stoul(victim.substr(1));
    if (auto status = apply_action({FaultAction::Kind::kCrash, step, index, 0, 0}, step);
        !status.ok()) {
      return status;
    }
  }
  if (do_restart) {
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < config_.nodes; ++i) {
      if (!dvm_->is_member(node_name(i))) dead.push_back(i);
    }
    if (!dead.empty()) {
      std::size_t index = dead[rng_.next_below(dead.size())];
      if (auto status =
              apply_action({FaultAction::Kind::kRestart, step, index, 0, 0}, step);
          !status.ok()) {
        return status;
      }
    }
  }
  if (do_skew && profile.max_skew > 0) {
    auto skew = static_cast<Nanos>(
        rng_.next_below(static_cast<std::uint64_t>(profile.max_skew)));
    if (auto status =
            apply_action({FaultAction::Kind::kClockSkew, step, 0, 0, skew}, step);
        !status.ok()) {
      return status;
    }
  }
  return Status::success();
}

Status SimHarness::run_op(std::size_t step) {
  const OpWeights& w = config_.weights;
  double total = w.set + w.get + w.erase + w.deploy + w.probe + w.noise + w.pump +
                 w.rcall + w.batch;
  double roll = rng_.next_double() * total;
  Nanos now = net_.clock().now();
  ++report_.ops_executed;

  if ((roll -= w.set) < 0) {
    std::string origin = random_alive_node();
    std::string key = key_name(rng_.next_below(config_.key_space));
    std::string value = "v" + std::to_string(step) + "-" +
                        std::to_string(rng_.next_below(1000));
    auto status = dvm_->set(origin, key, value);
    if (status.ok()) {
      ledger_[key] = LedgerEntry{value, origin, true};
      trace_.record(now, "set", origin + " " + key + "=" + value + " ok");
    } else {
      // A failed fan-out may have replicated partially; the key's value is
      // indeterminate until the settle phase rewrites it.
      if (auto it = ledger_.find(key); it != ledger_.end()) it->second.clean = false;
      trace_.record(now, "set", origin + " " + key + " FAILED");
    }
    return Status::success();
  }
  if ((roll -= w.get) < 0) {
    std::string origin = random_alive_node();
    std::string key = key_name(rng_.next_below(config_.key_space));
    auto value = dvm_->get(origin, key);
    trace_.record(now, "get",
                  origin + " " + key + (value.ok() ? "=" + *value : " miss"));
    // Full synchrony promises read-your-writes on every replica for any
    // cleanly acknowledged key — check inline, not just at settle points.
    if (config_.protocol == SimConfig::Protocol::kFullSynchrony) {
      auto it = ledger_.find(key);
      if (it != ledger_.end() && it->second.clean) {
        if (!value.ok()) {
          return violation(step, "read-your-writes",
                           err::internal(origin + " lost key " + key + ": " +
                                         value.error().message()));
        }
        if (*value != it->second.value) {
          return violation(step, "read-your-writes",
                           err::internal(origin + " read stale " + key + "='" +
                                         *value + "', acknowledged '" +
                                         it->second.value + "'"));
        }
      }
    }
    return Status::success();
  }
  if ((roll -= w.erase) < 0) {
    std::string origin = random_alive_node();
    std::string key = key_name(rng_.next_below(config_.key_space));
    auto status = dvm_->erase(origin, key);
    // Deleted (or half-deleted) keys carry no further guarantees.
    ledger_.erase(key);
    trace_.record(now, "erase", origin + " " + key + (status.ok() ? " ok" : " FAILED"));
    return Status::success();
  }
  if ((roll -= w.deploy) < 0) {
    std::string origin = random_alive_node();
    auto qualified = dvm_->deploy(origin, "ping");
    if (qualified.ok()) {
      auto slash = qualified->rfind('/');
      deployed_.push_back(
          DeployedComponent{*qualified, origin, qualified->substr(slash + 1)});
      trace_.record(now, "deploy", *qualified);
    } else {
      trace_.record(now, "deploy", origin + " FAILED");
    }
    return Status::success();
  }
  if ((roll -= w.probe) < 0) {
    std::string prober = random_alive_node();
    auto outcome =
        std::make_shared<std::optional<Result<std::vector<std::string>>>>();
    dvm_->post_probe(prober, [outcome](Result<std::vector<std::string>> r) {
      *outcome = std::move(r);
    });
    pump_loops();  // eager mode already completed inline
    if (!outcome->has_value()) {
      return err::internal("sim: probe completion never delivered");
    }
    auto& failed = **outcome;
    if (!failed.ok()) return failed.error();
    note_failures(*failed);
    trace_.record(now, "probe",
                  prober + " found " + std::to_string(failed->size()) + " failed");
    return Status::success();
  }
  if ((roll -= w.rcall) < 0) {
    std::string origin = random_alive_node();
    auto it = rcall_channels_.find(origin);
    if (it == rcall_channels_.end()) {
      return err::internal("sim: no rcall channel for " + origin);
    }
    // One globally unique logical operation per rcall: if any replica ever
    // applies the same id twice, a retry was double-executed.
    std::string op_id = "op" + std::to_string(rpc_stats_.issued);
    ++rpc_stats_.issued;
    const Value params[] = {Value::of_string(op_id, "id"),
                            Value::of_int(1, "delta")};
    auto result = it->second->invoke("add", params);
    if (result.ok()) {
      ++rpc_stats_.succeeded;
      trace_.record(now, "rcall", origin + " " + op_id + " ok");
    } else if (result.error().code() == ErrorCode::kTimeout) {
      ++rpc_stats_.timed_out;
      trace_.record(now, "rcall", origin + " " + op_id + " timeout");
    } else {
      ++rpc_stats_.failed;
      last_rpc_error_ = result.error().message();
      trace_.record(now, "rcall", origin + " " + op_id + " FAILED");
    }
    return Status::success();
  }
  if ((roll -= w.batch) < 0) {
    std::string origin = random_alive_node();
    auto it = batch_channels_.find(origin);
    if (it == batch_channels_.end()) {
      return err::internal("sim: no batch channel for " + origin);
    }
    // A storm of 2..8 counter adds, packed into one wire message. Each
    // sub-call keeps a globally unique logical id so the at-most-once
    // witness counts a double-applied replayed batch as a dup.
    const std::size_t count = 2 + rng_.next_below(7);
    std::vector<net::BatchChannel::Ticket> tickets;
    tickets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::string op_id = "op" + std::to_string(rpc_stats_.issued);
      ++rpc_stats_.issued;
      std::vector<Value> params;
      params.push_back(Value::of_string(std::move(op_id), "id"));
      params.push_back(Value::of_int(1, "delta"));
      tickets.push_back(it->second->enqueue("add", std::move(params)));
    }
    (void)it->second->flush();
    std::size_t ok_count = 0, timeouts = 0, failures = 0;
    for (const auto& ticket : tickets) {
      auto result = it->second->take(ticket);
      if (result.ok()) {
        ++rpc_stats_.succeeded;
        ++ok_count;
      } else if (result.error().code() == ErrorCode::kTimeout) {
        ++rpc_stats_.timed_out;
        ++timeouts;
      } else {
        ++rpc_stats_.failed;
        last_rpc_error_ = result.error().message();
        ++failures;
      }
    }
    trace_.record(now, "batch",
                  origin + " n=" + std::to_string(count) + " ok=" +
                      std::to_string(ok_count) + " timeout=" +
                      std::to_string(timeouts) +
                      (failures > 0 ? " FAILED=" + std::to_string(failures) : ""));
    return Status::success();
  }
  if ((roll -= w.noise) < 0) {
    auto from = static_cast<net::HostId>(rng_.next_below(config_.nodes));
    auto to = static_cast<net::HostId>(rng_.next_below(config_.nodes));
    auto payload = rng_.bytes(1 + rng_.next_below(256));
    auto status = net_.send(from, to, kNoisePort, ByteBuffer(std::move(payload)));
    if (status.ok()) ++noise_sent_;
    trace_.record(now, "noise",
                  node_name(from) + ">" + node_name(to) +
                      (status.ok() ? " sent" : " blocked"));
    return Status::success();
  }
  std::size_t delivered = net_.pump();
  trace_.record(net_.clock().now(), "pump", std::to_string(delivered) + " delivered");
  return Status::success();
}

Status SimHarness::settle_and_check(std::size_t step) {
  // Settle: chaos off, all links healed, all in-flight traffic delivered.
  uninstall_chaos();
  for (auto [a, b] : partitions_) {
    (void)net_.heal(static_cast<net::HostId>(a), static_cast<net::HostId>(b));
  }
  partitions_.clear();
  std::size_t delivered = net_.pump();
  pump_loops();  // queued bus deliveries / completions land before checks
  trace_.record(net_.clock().now(), "settle",
                "step=" + std::to_string(step) + " drained=" + std::to_string(delivered));

  if (config_.protocol == SimConfig::Protocol::kSharded) {
    // Owner scan: a sharded key is genuinely lost when no alive owner of
    // its shard holds the acknowledged value any more (e.g. the only owner
    // a partial write reached has crashed, or a membership wave evicted
    // every owner that had a copy before handoff could run). Such keys are
    // dirtied so the repair pass below rewrites them; partial divergence
    // (some owner still has the value) is left for anti-entropy.
    const dvm::ShardMap* map = dvm_->shard_map();
    for (auto& [key, entry] : ledger_) {
      if (!entry.clean) continue;
      bool held = false;
      for (const std::string& owner : map->owners(map->shard_of(key))) {
        auto node = dvm_->member(owner);
        if (!node.ok()) continue;
        if (auto value = node->state().get(key);
            value.has_value() && *value == entry.value) {
          held = true;
          break;
        }
      }
      if (!held) {
        entry.clean = false;
        trace_.record(net_.clock().now(), "shard-lost",
                      key + " no alive owner copy");
      }
    }
    // Same rule for the name-space records of components whose host is
    // still alive: if every owner copy of "component/<q>" died with its
    // replicas, re-seed the record from the (alive) hosting node.
    for (const auto& component : deployed_) {
      if (!dvm_->is_member(component.node)) continue;
      std::string key = "component/" + component.qualified;
      bool held = false;
      for (const std::string& owner : map->owners(map->shard_of(key))) {
        auto node = dvm_->member(owner);
        if (!node.ok()) continue;
        if (node->state().get(key).has_value()) {
          held = true;
          break;
        }
      }
      if (!held) {
        (void)dvm_->set(component.node, key, component.node);
        trace_.record(net_.clock().now(), "shard-reseed", key);
      }
    }
  }

  // Repair: rewrite every indeterminate key so the convergence contract
  // is meaningful again (mirrors "state written after the last failure").
  for (auto& [key, entry] : ledger_) {
    if (entry.clean) continue;
    auto names = dvm_->node_names();
    const std::string& origin = names.front();
    std::string value = "repair" + std::to_string(step) + "-" + key;
    auto status = dvm_->set(origin, key, value);
    if (!status.ok()) {
      return violation(step, "settle-repair",
                       status.error().context("rewrite of dirty key " + key));
    }
    entry = LedgerEntry{value, origin, true};
    trace_.record(net_.clock().now(), "repair", key + "=" + value);
  }

  if (config_.protocol == SimConfig::Protocol::kSharded) {
    // Drain hinted handoff before judging durability: with the network
    // healed, replay must redeliver every parked hint whose coordinator is
    // alive. Budget-limited protocols need several passes (one refill
    // each); stop when a pass makes no progress — what remains is debt
    // parked at dead coordinators, which the invariant exempts.
    std::size_t pending = dvm_->pending_hints();
    for (std::size_t pass = 0; pending > 0 && pass < 32; ++pass) {
      auto replay = run_hint_replay();
      if (!replay.ok()) {
        return violation(step, "settle-hint-replay", replay.error());
      }
      std::size_t still_pending = dvm_->pending_hints();
      trace_.record(net_.clock().now(), "hint-replay",
                    "settle delivered=" + std::to_string(replay->delivered) +
                        " pending=" + std::to_string(still_pending));
      if (still_pending >= pending) break;
      pending = still_pending;
    }
  }

  // Pre-anti-entropy invariants judge what hinted handoff alone restored;
  // running them before the settle repair pass keeps an AE backstop from
  // masking a dropped hint.
  for (auto& invariant : invariants_) {
    if (!invariant->pre_anti_entropy()) continue;
    ++report_.checks_run;
    if (auto status = invariant->check(*this); !status.ok()) {
      return violation(step, invariant->name(), status.error());
    }
  }

  if (config_.protocol == SimConfig::Protocol::kSharded) {
    // Converge the replicas before judging them: with the network healed a
    // full anti-entropy pass must leave every owner set byte-equal (except
    // where a planted bug skips a shard — which the invariants then catch).
    auto report = run_anti_entropy();
    if (!report.ok()) {
      return violation(step, "settle-anti-entropy", report.error());
    }
    trace_.record(net_.clock().now(), "anti-entropy",
                  "settle checked=" + std::to_string(report->shards_checked) +
                      " divergent=" + std::to_string(report->shards_divergent) +
                      " repaired=" + std::to_string(report->entries_repaired));
  }

  for (auto& invariant : invariants_) {
    if (invariant->pre_anti_entropy()) continue;  // already checked above
    ++report_.checks_run;
    if (auto status = invariant->check(*this); !status.ok()) {
      return violation(step, invariant->name(), status.error());
    }
  }
  trace_.record(net_.clock().now(), "check",
                std::to_string(invariants_.size()) + " invariants ok");
  install_chaos();
  return Status::success();
}

Error SimHarness::violation(std::size_t step, const std::string& what,
                            const Error& cause) {
  trace_.record(net_.clock().now(), "violation", what + ": " + cause.message());
  return err::internal("scenario=" + config_.scenario + " seed=" + std::to_string(seed_) +
                       " step=" + std::to_string(step) + " invariant '" + what +
                       "': " + cause.message() + " (replay: simrunner --scenario=" +
                       config_.scenario + " --seed=" + std::to_string(seed_) + ")");
}

Result<RunReport> SimHarness::run() {
  report_ = RunReport{};
  report_.seed = seed_;
  if (auto status = setup(); !status.ok()) {
    return status.error().context("sim setup (scenario=" + config_.scenario +
                                  " seed=" + std::to_string(seed_) + ")");
  }
  install_chaos();
  for (std::size_t step = 0; step < config_.steps; ++step) {
    for (const FaultAction& action : config_.plan.actions_at(step)) {
      if (auto status = apply_action(action, step); !status.ok()) {
        return status.error();
      }
    }
    if (auto status = apply_random_faults(step); !status.ok()) return status.error();
    if (auto status = run_op(step); !status.ok()) return status.error();
    if (loop_driver_ != nullptr) {
      // Queued mode: advance virtual time so wheel timers (heartbeat,
      // anti-entropy) fire, then run everything they triggered.
      if (config_.step_time > 0) {
        (void)loop_driver_->advance(config_.step_time);
      } else {
        pump_loops();
      }
    }
    if (config_.protocol == SimConfig::Protocol::kSharded &&
        config_.anti_entropy_every > 0 &&
        (step + 1) % config_.anti_entropy_every == 0) {
      // Mid-run repair under live chaos; unreachable replicas are simply
      // skipped this round (tolerated exchange failures).
      auto report = run_anti_entropy();
      trace_.record(net_.clock().now(), "anti-entropy",
                    !report.ok()
                        ? "FAILED"
                        : "divergent=" + std::to_string(report->shards_divergent) +
                              " repaired=" +
                              std::to_string(report->entries_repaired) +
                              " failures=" +
                              std::to_string(report->exchange_failures));
    }
    if (config_.protocol == SimConfig::Protocol::kSharded &&
        config_.hint_replay_every > 0 &&
        (step + 1) % config_.hint_replay_every == 0) {
      // Mid-run hint replay under live chaos; legs that still cannot reach
      // their target are requeued for the next tick.
      auto report = run_hint_replay();
      trace_.record(net_.clock().now(), "hint-replay",
                    !report.ok()
                        ? "FAILED"
                        : "delivered=" + std::to_string(report->delivered) +
                              " requeued=" + std::to_string(report->requeued) +
                              " skipped=" + std::to_string(report->skipped));
    }
    ++report_.steps_executed;
    if (config_.check_every > 0 && (step + 1) % config_.check_every == 0) {
      if (auto status = settle_and_check(step); !status.ok()) return status.error();
    }
  }
  if (auto status = settle_and_check(config_.steps); !status.ok()) {
    return status.error();
  }
  std::string done = "ops=" + std::to_string(report_.ops_executed) +
                     " faults=" + std::to_string(report_.faults_applied) +
                     " noise=" + std::to_string(noise_delivered_) + "/" +
                     std::to_string(noise_sent_);
  if (rpc_stats_.issued > 0) {
    done += " rcalls=" + std::to_string(rpc_stats_.succeeded) + "ok/" +
            std::to_string(rpc_stats_.timed_out) + "to/" +
            std::to_string(rpc_stats_.failed) + "err";
  }
  trace_.record(net_.clock().now(), "done", done);
  return report_;
}

}  // namespace h2::sim
