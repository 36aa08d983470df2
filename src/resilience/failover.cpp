#include "resilience/failover.hpp"

#include <charconv>

#include "resilience/resilient_channel.hpp"

namespace h2::resil {

FailoverChannel::FailoverChannel(dvm::Dvm& dvm, container::Container& origin,
                                 std::string service_name, CallPolicy policy,
                                 std::vector<wsdl::BindingKind> preference)
    : dvm_(dvm),
      origin_(origin),
      service_(std::move(service_name)),
      policy_(policy),
      preference_(std::move(preference)),
      c_failovers_(origin.network().metrics().counter("h2.resil.failovers")) {}

Result<std::unique_ptr<net::Channel>> FailoverChannel::open_candidate(
    const wsdl::Definitions& defs) {
  if (preference_.empty()) {
    return origin_.open_resilient_channel(defs, policy_);
  }
  return origin_.open_resilient_channel(defs, policy_, preference_);
}

std::string FailoverChannel::node_of(const net::Channel& channel) const {
  const net::Endpoint* remote = channel.remote();
  return remote != nullptr ? remote->host : origin_.name();
}

// The one replica walk. `send(channel)` makes the call on one candidate
// in the caller's shape and returns its error, or nullptr on success; the
// error lives until the next send. Returns nullopt when the last send's
// outcome is final for the caller, else the terminal kTimeout.
template <typename Send>
std::optional<Error> FailoverChannel::walk(Send send) {
  auto unavailable = [](const Error* error) {
    return error != nullptr && error->code() == ErrorCode::kUnavailable;
  };
  std::string failed_node;
  // Sticky primary: keep using the node that last answered until it
  // becomes unavailable — failover is an event, not a per-call lottery.
  if (current_) {
    const Error* error = send(*current_);
    last_stats_ = current_->last_stats();
    // Success, an application answer, or kTimeout ("maybe executed" —
    // switching replicas now could double-apply; the caller decides).
    if (!unavailable(error)) return std::nullopt;
    failed_node = current_node_;
    current_.reset();
    current_node_.clear();
  }

  Error last_error =
      err::unavailable("no replica of '" + service_ + "' in dvm " + dvm_.name());
  for (const wsdl::Definitions& defs : dvm_.find_all_services(service_)) {
    auto channel = open_candidate(defs);
    if (!channel.ok()) {
      last_error = channel.error();
      continue;
    }
    std::string node = node_of(**channel);
    if (node == failed_node) continue;  // the replica that just failed us
    const Error* error = send(**channel);
    last_stats_ = (*channel)->last_stats();
    if (unavailable(error)) {  // definitely not executed: try the next one
      last_error = *error;
      continue;
    }
    // This replica owns the call now (even a kTimeout pins us here: only
    // same-node same-id retries are safe after a maybe-executed attempt).
    if (!failed_node.empty() && node != failed_node) {
      c_failovers_.add();
      dvm_.announce_failover(service_, failed_node, node);
    }
    current_ = std::move(*channel);
    current_node_ = std::move(node);
    return std::nullopt;
  }

  // Every replica is (currently) unreachable. No handler ran anywhere, but
  // surfacing kUnavailable would leak transport taxonomy into callers that
  // only want "done, answered, or try again later" — so the terminal
  // failure of a logical call is always kTimeout.
  return Error(ErrorCode::kTimeout, "no replica available for '" + service_ + "' (" +
                                        last_error.message() + ")");
}

Result<Value> FailoverChannel::invoke(std::string_view operation,
                                      std::span<const Value> params) {
  std::optional<Result<Value>> result;
  std::optional<Error> failed = walk([&](net::Channel& channel) -> const Error* {
    result.emplace(channel.invoke(operation, params));
    return result->ok() ? nullptr : &result->error();
  });
  if (failed.has_value()) return std::move(*failed);
  return std::move(*result);
}

Status FailoverChannel::invoke_batch(std::span<const net::BatchItem> calls,
                                     std::vector<Result<Value>>& results) {
  if (calls.empty()) {
    results.clear();
    return Status::success();
  }
  Status status;
  std::optional<Error> failed = walk([&](net::Channel& channel) -> const Error* {
    status = channel.invoke_batch(calls, results);
    return status.ok() ? nullptr : &status.error();
  });
  if (!failed.has_value()) return status;
  results.assign(calls.size(), Result<Value>(*failed));
  return Status(std::move(*failed));
}

// ---- ShardRoutedChannel ---------------------------------------------------------

namespace {

/// The entry a wset reply acknowledges: the state service answers with
/// the version it assigned, as "ts writer".
Result<dvm::VersionedEntry> acknowledged(std::string_view key, std::string_view value,
                                         const Value& reply) {
  auto text = reply.as_string();
  if (!text.ok()) return text.error();
  const std::size_t space = text->find(' ');
  dvm::Version v;
  if (space == std::string::npos ||
      std::from_chars(text->data(), text->data() + space, v.ts).ec != std::errc() ||
      std::from_chars(text->data() + space + 1, text->data() + text->size(), v.writer)
              .ec != std::errc()) {
    return err::internal("bad wset version reply '" + *text + "'");
  }
  return dvm::VersionedEntry{std::string(key), std::string(value), v, false};
}

std::vector<Value> wset_params(std::string_view key, std::string_view value) {
  return {Value::of_string(std::string(key), "key"),
          Value::of_string(std::string(value), "value")};
}

}  // namespace

ShardRoutedChannel::ShardRoutedChannel(dvm::Dvm& dvm, container::Container& origin,
                                       CallPolicy policy)
    : dvm_(dvm),
      origin_(origin),
      policy_(policy),
      c_failovers_(origin.network().metrics().counter("h2.resil.shard.failovers")) {}

net::Channel& ShardRoutedChannel::channel_to(const std::string& node) {
  auto it = channels_.find(node);
  if (it == channels_.end()) {
    const net::Endpoint endpoint = dvm::state_endpoint(node);
    auto inner = net::make_xdr_channel(origin_.network(), origin_.host(), endpoint);
    it = channels_
             .emplace(node, make_resilient_channel(std::move(inner), origin_.network(),
                                                   policy_, /*breaker=*/nullptr,
                                                   endpoint.to_uri()))
             .first;
  }
  return *it->second;
}

std::vector<std::string> ShardRoutedChannel::owner_order(
    std::size_t shard, std::span<const std::string> owners) const {
  // Sticky owner first (if it still owns the shard), then ring order.
  std::vector<std::string> out;
  out.reserve(owners.size());
  auto sticky = sticky_.find(shard);
  if (sticky != sticky_.end()) {
    for (const std::string& owner : owners) {
      if (owner == sticky->second) {
        out.push_back(owner);
        break;
      }
    }
  }
  for (const std::string& owner : owners) {
    if (out.empty() || owner != out.front()) out.push_back(owner);
  }
  return out;
}

void ShardRoutedChannel::note_served(std::size_t shard, const std::string& node) {
  auto it = sticky_.find(shard);
  if (it != sticky_.end() && it->second != node) {
    ++failovers_;
    c_failovers_.add();
    dvm_.announce_failover("dvm-state", it->second, node);
  }
  sticky_[shard] = node;
}

std::string ShardRoutedChannel::routed_node(std::string_view key) const {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) return "";
  auto it = sticky_.find(map->shard_of(key));
  return it == sticky_.end() ? "" : it->second;
}

Result<Value> ShardRoutedChannel::route(std::string_view key, std::string_view operation,
                                        std::span<const Value> params, bool read,
                                        std::string& served) {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) {
    return err::unsupported("shard routing requires the sharded coherency mode");
  }
  const std::size_t shard = map->shard_of(key);
  bool any_answered = false;
  Error last_error = err::unavailable("shard " + std::to_string(shard) + " has no owners");
  for (const std::string& node : owner_order(shard, map->owners(shard))) {
    auto result = channel_to(node).invoke(operation, params);
    if (result.ok()) {
      note_served(shard, node);
      served = node;
      return result;
    }
    if (read && result.error().code() == ErrorCode::kNotFound) {
      // This replica is reachable but lacks the key (stale or the key is
      // simply absent); another owner may still hold it.
      any_answered = true;
      continue;
    }
    if (result.error().code() != ErrorCode::kUnavailable) {
      return result;  // application answer, or kTimeout: maybe executed
    }
    last_error = result.error();
  }
  if (any_answered) {
    return err::not_found("state: no key '" + std::string(key) +
                          "' on any reachable shard owner");
  }
  return Error(ErrorCode::kTimeout, "no owner of shard " + std::to_string(shard) +
                                        " available (" + last_error.message() + ")");
}

Result<std::string> ShardRoutedChannel::get(std::string_view key) {
  const Value param = Value::of_string(std::string(key), "key");
  std::string served;
  auto reply = route(key, "get", {&param, 1}, /*read=*/true, served);
  if (!reply.ok()) return reply.error();
  return reply->as_string();
}

Status ShardRoutedChannel::replicate(const dvm::VersionedEntry& entry,
                                     std::span<const std::string> owners,
                                     const std::string& already_applied) {
  // Fan-out of the assigned version to the remaining owners. A leg that
  // fails parks a hint at this channel's origin — replay redelivers it
  // when the owner is back, so the write regains R-replication without
  // waiting for anti-entropy. The write itself is already acknowledged by
  // the coordinating owner, so this never fails the call.
  for (const std::string& owner : owners) {
    if (owner == already_applied) continue;
    if (!channel_to(owner).invoke("vset", dvm::vset_item(entry).params).ok()) {
      dvm_.park_hint(origin_.name(), owner, entry);
    }
  }
  return Status::success();
}

Status ShardRoutedChannel::set(std::string_view key, std::string_view value) {
  std::string served;
  auto reply = route(key, "wset", wset_params(key, value), /*read=*/false, served);
  if (!reply.ok()) return reply.error();
  auto entry = acknowledged(key, value, *reply);
  if (!entry.ok()) return entry.error();
  const dvm::ShardMap& map = *dvm_.shard_map();
  return replicate(*entry, map.owners(map.shard_of(key)), served);
}

Status ShardRoutedChannel::set_batch(std::span<const dvm::KV> writes) {
  const dvm::ShardMap* map = dvm_.shard_map();
  if (map == nullptr) {
    return err::unsupported("shard routing requires the sharded coherency mode");
  }
  if (writes.empty()) return Status::success();

  // Group writes by the owner each one routes to (sticky/primary of its
  // shard) so each routed owner receives ONE batched wset frame.
  std::map<std::string, std::vector<std::size_t>> groups;  ///< owner → write indexes
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const std::size_t shard = map->shard_of(writes[i].key);
    auto order = owner_order(shard, map->owners(shard));
    if (order.empty()) {
      return Error(ErrorCode::kTimeout,
                   "no owner of shard " + std::to_string(shard) + " available");
    }
    groups[order.front()].push_back(i);
  }

  // One replication entry per write, accumulated across groups and sent as
  // ONE vset batch per secondary owner at the end (failed legs become
  // hints).
  std::map<std::string, std::vector<dvm::VersionedEntry>> replication;
  for (auto& [node, write_idx] : groups) {
    std::vector<net::BatchItem> calls;
    calls.reserve(write_idx.size());
    for (std::size_t idx : write_idx) {
      calls.push_back(
          net::BatchItem{"wset", wset_params(writes[idx].key, writes[idx].value), ""});
    }
    std::vector<Result<Value>> results;
    Status status = channel_to(node).invoke_batch(calls, results);
    if (!status.ok() && status.error().code() == ErrorCode::kUnavailable) {
      // The whole frame definitely did not execute: re-route each write
      // individually through the owner walk.
      for (std::size_t idx : write_idx) {
        if (auto one = set(writes[idx].key, writes[idx].value); !one.ok()) return one;
      }
      continue;
    }
    if (!status.ok()) return status;
    for (std::size_t r = 0; r < results.size(); ++r) {
      const std::size_t idx = write_idx[r];
      if (!results[r].ok()) return results[r].error();
      auto entry = acknowledged(writes[idx].key, writes[idx].value, *results[r]);
      if (!entry.ok()) return entry.error();
      const std::size_t shard = map->shard_of(writes[idx].key);
      note_served(shard, node);
      for (const std::string& owner : map->owners(shard)) {
        if (owner != node) replication[owner].push_back(*entry);
      }
    }
  }
  for (auto& [owner, entries] : replication) {
    std::vector<net::BatchItem> calls;
    calls.reserve(entries.size());
    for (const dvm::VersionedEntry& entry : entries) {
      calls.push_back(dvm::vset_item(entry));
    }
    std::vector<Result<Value>> results;
    if (!channel_to(owner).invoke_batch(calls, results).ok()) {
      // The whole frame missed this owner: park every leg as a hint.
      for (const dvm::VersionedEntry& entry : entries) {
        dvm_.park_hint(origin_.name(), owner, entry);
      }
      continue;
    }
    for (std::size_t r = 0; r < results.size() && r < entries.size(); ++r) {
      if (!results[r].ok()) dvm_.park_hint(origin_.name(), owner, entries[r]);
    }
  }
  return Status::success();
}

std::unique_ptr<net::Channel> make_failover_channel(
    dvm::Dvm& dvm, container::Container& origin, std::string service_name,
    CallPolicy policy, std::vector<wsdl::BindingKind> preference) {
  return std::make_unique<FailoverChannel>(dvm, origin, std::move(service_name),
                                           policy, std::move(preference));
}

}  // namespace h2::resil
