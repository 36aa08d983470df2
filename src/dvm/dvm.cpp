#include "dvm/dvm.hpp"

#include "util/log.hpp"
#include "util/strings.hpp"

namespace h2::dvm {

namespace {
Logger& logger() {
  static Logger log("dvm");
  return log;
}
}  // namespace

Dvm::Dvm(std::string name, std::unique_ptr<CoherencyProtocol> protocol)
    : name_(std::move(name)), protocol_(std::move(protocol)),
      loop_("dvm/" + name_) {}

Dvm::~Dvm() {
  for (auto& member : members_) {
    if (member.node) member.node->stop();
  }
}

std::vector<DvmNode*> Dvm::alive_members() const {
  std::vector<DvmNode*> out;
  for (const auto& member : members_) {
    if (member.node && member.node->alive()) out.push_back(member.node.get());
  }
  return out;
}

Result<std::size_t> Dvm::alive_index(std::string_view node_name) const {
  auto alive = alive_members();
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i]->name() == node_name) return i;
  }
  return err::not_found("dvm " + name_ + ": no alive node '" + std::string(node_name) +
                        "'");
}

void Dvm::announce(std::string_view topic, const std::string& message) {
  for (DvmNode* node : alive_members()) {
    node->container().kernel().events().publish(topic, Value::of_string(message));
  }
}

Result<std::size_t> Dvm::add_node(container::Container& container) {
  for (const auto& member : members_) {
    if (member.node && member.node->name() == container.name()) {
      return err::already_exists("dvm " + name_ + ": node '" + container.name() +
                                 "' already enrolled");
    }
  }
  auto node = std::make_unique<DvmNode>(container);
  if (auto status = node->start(); !status.ok()) {
    return status.error().context("dvm " + name_);
  }
  members_.push_back(Member{std::move(node)});

  auto alive = alive_members();
  std::size_t index = alive.size() - 1;
  if (auto status = protocol_->on_join(alive, index); !status.ok()) {
    return status.error();
  }
  if (auto status = protocol_->update(alive, index, "node/" + container.name(), "alive");
      !status.ok()) {
    return status.error();
  }
  ++epoch_;
  announce("dvm/membership", "joined:" + container.name());
  logger().debug(name_ + ": node " + container.name() + " joined");
  return index;
}

Status Dvm::remove_node(std::string_view node_name) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  // Record the departure while the node can still participate in the
  // protocol, then take it out of the membership.
  (void)protocol_->update(alive, *index, "node/" + std::string(node_name), "left");
  DvmNode* node = alive[*index];
  node->stop();
  node->set_alive(false);
  (void)protocol_->on_leave(alive_members(), node_name);
  ++epoch_;
  announce("dvm/membership", "left:" + std::string(node_name));
  return Status::success();
}

Status Dvm::mark_failed(std::string_view node_name) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  DvmNode* failed = alive_members()[*index];
  failed->set_alive(false);  // exclude first: it may be unreachable
  failed->stop();
  auto survivors = alive_members();
  if (!survivors.empty()) {
    // Placement first: the ring must stop counting the dead member before
    // the failure record is written (else the record could be addressed to
    // the member that just died).
    (void)protocol_->on_leave(survivors, node_name);
    // Any survivor records the failure; errors here are secondary.
    (void)protocol_->update(survivors, 0, "node/" + std::string(node_name), "failed");
  }
  ++epoch_;
  announce("dvm/membership", "failed:" + std::string(node_name));
  logger().warn(name_ + ": node " + std::string(node_name) + " marked failed");
  return Status::success();
}

Status Dvm::crash_node(std::string_view node_name) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  DvmNode* victim = alive_members()[*index];
  // Endpoints first: once the container is dark, mark_failed cannot
  // accidentally talk to the victim.
  if (auto status = victim->container().crash(); !status.ok()) return status;
  return mark_failed(node_name);
}

Result<std::size_t> Dvm::rejoin(std::string_view node_name) {
  for (auto& member : members_) {
    if (!member.node || member.node->name() != node_name) continue;
    if (member.node->alive()) {
      return err::already_exists("dvm " + name_ + ": node '" + std::string(node_name) +
                                 "' is already alive");
    }
    if (auto status = member.node->container().restart(); !status.ok()) {
      return status.error().context("dvm " + name_ + " rejoin");
    }
    if (auto status = member.node->start(); !status.ok()) {
      return status.error().context("dvm " + name_ + " rejoin");
    }
    member.node->set_alive(true);
    auto alive = alive_members();
    auto index = alive_index(node_name);
    if (!index.ok()) return index.error();
    // Back-fill the returnee exactly like a fresh join, then put the
    // membership record right again.
    if (auto status = protocol_->on_join(alive, *index); !status.ok()) {
      // Half-joined is worse than failed: drop the node back out.
      member.node->set_alive(false);
      member.node->stop();
      (void)member.node->container().crash();
      return status.error().context("dvm " + name_ + " rejoin back-fill");
    }
    (void)protocol_->update(alive, *index, "node/" + std::string(node_name), "alive");
    ++epoch_;
    announce("dvm/membership", "rejoined:" + std::string(node_name));
    logger().debug(name_ + ": node " + std::string(node_name) + " rejoined");
    return index;
  }
  return err::not_found("dvm " + name_ + ": node '" + std::string(node_name) +
                        "' was never enrolled");
}

void Dvm::post_probe(std::string_view from_node, ProbeCompletion done) {
  loop_.dispatch([this, from = std::string(from_node), done = std::move(done)] {
    auto result = probe_now(from);
    if (done) done(std::move(result));
  });
}

loop::TimerId Dvm::start_heartbeat(
    Nanos period, std::function<void(const std::vector<std::string>&)> on_failures) {
  return loop_.schedule_periodic(period, [this, on_failures = std::move(on_failures)] {
    auto alive = alive_members();
    if (alive.empty()) return;
    DvmNode* prober = alive[heartbeat_rr_++ % alive.size()];
    auto failed = probe_now(prober->name());
    if (failed.ok() && on_failures) on_failures(*failed);
  });
}

Result<std::vector<std::string>> Dvm::probe_now(std::string_view from_node) {
  auto index = alive_index(from_node);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  DvmNode* prober = alive[*index];
  std::vector<std::string> failed;
  // The protocol chooses the probe set: broadcast for the classic modes,
  // replica-set peers only for the sharded ring.
  for (std::size_t peer_index : protocol_->heartbeat_peers(alive, *index)) {
    DvmNode* peer = alive[peer_index];
    if (peer == prober) continue;
    if (prober->remote_ping(*peer).ok()) continue;
    failed.push_back(peer->name());
  }
  for (const std::string& name : failed) {
    (void)mark_failed(name);
  }
  return failed;
}

std::size_t Dvm::node_count() const { return alive_members().size(); }

std::vector<std::string> Dvm::node_names() const {
  std::vector<std::string> out;
  for (DvmNode* node : alive_members()) out.push_back(node->name());
  return out;
}

DvmNode* Dvm::lookup_alive(std::string_view node_name) {
  for (DvmNode* n : alive_members()) {
    if (n->name() == node_name) return n;
  }
  return nullptr;
}

Result<DvmNode&> Dvm::member(std::string_view node_name) {
  DvmNode* found = lookup_alive(node_name);
  if (found == nullptr) {
    return err::not_found("dvm " + name_ + ": no node '" + std::string(node_name) + "'");
  }
  return *found;
}

bool Dvm::is_member(std::string_view node_name) const {
  return alive_index(node_name).ok();
}

std::vector<const DvmNode*> Dvm::all_members() const {
  std::vector<const DvmNode*> out;
  for (const auto& member : members_) {
    if (member.node) out.push_back(member.node.get());
  }
  return out;
}

template <typename Round>
auto Dvm::measured(DvmNode& at, Round round) {
  net::SimNetwork& net = at.network();
  const std::uint64_t messages_before = net.stats().messages;
  const Nanos t0 = net.clock().now();
  auto outcome = round();
  if (metrics_net_ != &net) {
    metrics_net_ = &net;
    const std::string prefix = "h2.dvm." + name_ + ".coherency.";
    c_rounds_ = &net.metrics().counter(prefix + "rounds");
    c_fanout_ = &net.metrics().counter(prefix + "fanout");
    h_convergence_ = &net.metrics().histogram(prefix + "convergence_ns");
  }
  c_rounds_->add();
  c_fanout_->add(net.stats().messages - messages_before);
  h_convergence_->observe(net.clock().now() - t0);
  return outcome;
}

Status Dvm::set(std::string_view node_name, std::string_view key,
                std::string_view value) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  return measured(*alive[*index],
                  [&] { return protocol_->update(alive, *index, key, value); });
}

Status Dvm::set_batch(std::string_view node_name, std::span<const KV> writes) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  return measured(*alive[*index],
                  [&] { return protocol_->update_batch(alive, *index, writes); });
}

Result<std::string> Dvm::get(std::string_view node_name, std::string_view key) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  return measured(*alive[*index], [&] { return protocol_->query(alive, *index, key); });
}

Status Dvm::erase(std::string_view node_name, std::string_view key) {
  auto index = alive_index(node_name);
  if (!index.ok()) return index.error();
  auto alive = alive_members();
  return measured(*alive[*index], [&] { return protocol_->erase(alive, *index, key); });
}

void Dvm::post_anti_entropy(AntiEntropyCompletion done) {
  loop_.dispatch([this, done = std::move(done)] {
    auto report = anti_entropy_now();
    if (done) done(std::move(report));
  });
}

loop::TimerId Dvm::start_anti_entropy(
    Nanos period, std::function<void(const AntiEntropyReport&)> on_report) {
  return loop_.schedule_periodic(period, [this, on_report = std::move(on_report)] {
    auto report = anti_entropy_now();
    if (report.ok() && on_report) on_report(*report);
  });
}

Result<AntiEntropyReport> Dvm::anti_entropy_now() {
  auto alive = alive_members();
  if (alive.empty()) return AntiEntropyReport{};
  return measured(*alive.front(), [&] { return protocol_->anti_entropy(alive); });
}

void Dvm::post_hint_replay(HintReplayCompletion done) {
  loop_.dispatch([this, done = std::move(done)] {
    auto report = hint_replay_now();
    if (done) done(std::move(report));
  });
}

loop::TimerId Dvm::start_hint_replay(
    Nanos period, std::function<void(const HintReplayReport&)> on_report) {
  return loop_.schedule_periodic(period, [this, on_report = std::move(on_report)] {
    auto report = hint_replay_now();
    if (report.ok() && on_report) on_report(*report);
  });
}

Result<HintReplayReport> Dvm::hint_replay_now() {
  auto alive = alive_members();
  if (alive.empty()) return HintReplayReport{};
  return measured(*alive.front(), [&] { return protocol_->replay_hints(alive); });
}

Result<std::string> Dvm::deploy(std::string_view node_name, std::string_view plugin,
                                const container::DeployOptions& options) {
  auto target = member(node_name);
  if (!target.ok()) return target.error();
  auto instance = target->container().deploy(plugin, options);
  if (!instance.ok()) return instance.error();
  std::string qualified = name_ + "/" + std::string(node_name) + "/" + *instance;
  if (auto status = set(node_name, "component/" + qualified, std::string(node_name));
      !status.ok()) {
    return status.error();
  }
  ++components_;
  return qualified;
}

Status Dvm::deploy_everywhere(std::string_view plugin,
                              const container::DeployOptions& options) {
  for (const std::string& node_name : node_names()) {
    auto qualified = deploy(node_name, plugin, options);
    if (!qualified.ok()) {
      return qualified.error().context("deploy_everywhere(" + std::string(plugin) + ")");
    }
  }
  return Status::success();
}

Status Dvm::undeploy(std::string_view qualified_name) {
  auto parts = str::split(std::string(qualified_name), '/');
  if (parts.size() != 3 || parts[0] != name_) {
    return err::invalid_argument("bad qualified component name '" +
                                 std::string(qualified_name) + "'");
  }
  auto target = member(parts[1]);
  if (!target.ok()) return target.error();
  if (auto status = target->container().undeploy(parts[2]); !status.ok()) return status;
  (void)erase(parts[1], "component/" + std::string(qualified_name));
  --components_;
  return Status::success();
}

Result<std::string> Dvm::locate(std::string_view from_node,
                                std::string_view qualified_name) {
  return get(from_node, "component/" + std::string(qualified_name));
}

Result<wsdl::Definitions> Dvm::find_service(std::string_view service_name) const {
  for (DvmNode* node : alive_members()) {
    auto record = node->container().find_local(service_name);
    if (record.ok()) return record->wsdl;
  }
  return err::not_found("dvm " + name_ + ": no service '" + std::string(service_name) +
                        "' on any node");
}

std::vector<wsdl::Definitions> Dvm::find_all_services(
    std::string_view service_name) const {
  std::vector<wsdl::Definitions> out;
  for (DvmNode* node : alive_members()) {
    auto record = node->container().find_local(service_name);
    if (record.ok()) out.push_back(record->wsdl);
  }
  return out;
}

void Dvm::announce_failover(std::string_view service_name, std::string_view from_node,
                            std::string_view to_node) {
  announce("dvm/failover", std::string(service_name) + ":" + std::string(from_node) +
                               "->" + std::string(to_node));
}

DvmStatus Dvm::status() const {
  DvmStatus out;
  out.name = name_;
  out.coherency = protocol_->name();
  out.components = components_;
  for (const auto& member : members_) {
    if (!member.node) continue;
    if (member.node->alive()) {
      ++out.nodes_alive;
    } else {
      ++out.nodes_failed;
    }
  }
  return out;
}

}  // namespace h2::dvm
