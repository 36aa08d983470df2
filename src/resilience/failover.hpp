// FailoverChannel — the top of the fault-tolerance stack. Where the
// ResilientChannel fights for one endpoint, the FailoverChannel gives up
// on it: when retries exhaust with the request definitely un-executed
// (kUnavailable) or the endpoint's breaker is open, it re-resolves the
// service through the DVM's lookup (Dvm::find_all_services) and walks the
// other replicas — the ones deploy_everywhere planted — announcing a
// "dvm/failover" event when a different node takes over.
//
// The at-most-once story across replicas: a candidate is only abandoned
// on kUnavailable, which by the transport's classification means no
// handler ran there, so trying the next replica (with a fresh call id)
// cannot double-apply anything. A kTimeout means "maybe executed" and is
// returned to the caller unchanged — the NEXT logical call retries
// through the same machinery, but this one must not touch a second
// replica. When every replica is unavailable the error is reported as
// kTimeout too: from the caller's point of view the operation's fate is
// unknowable-until-later, and callers get the simple contract "calls
// either succeed or fail with kTimeout".
//
// invoke() and invoke_batch() share ONE replica walk (walk()); each passes
// the send step in its own wire shape, so a batch still travels as one
// batch frame per replica and fails over as one unit.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "resilience/policy.hpp"
#include "transport/rpc.hpp"

namespace h2::resil {

class FailoverChannel final : public net::Channel {
 public:
  /// `origin` is the calling node's container (channels are opened from
  /// its vantage); `dvm` supplies the replica list. Both must outlive the
  /// channel. Empty `preference` means Container::kDefaultPreference.
  FailoverChannel(dvm::Dvm& dvm, container::Container& origin,
                  std::string service_name, CallPolicy policy,
                  std::vector<wsdl::BindingKind> preference = {});

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override;
  /// The whole batch fails over as one unit: kUnavailable from a replica
  /// means none of its sub-calls executed, so walking to the next replica
  /// (with the same sub-call ids) cannot double-apply anything.
  Status invoke_batch(std::span<const net::BatchItem> calls,
                      std::vector<Result<Value>>& results) override;
  const char* binding_name() const override { return "failover"; }
  net::CallStats last_stats() const override { return last_stats_; }
  const net::Endpoint* remote() const override {
    return current_ ? current_->remote() : nullptr;
  }

  /// Node currently serving this channel's calls ("" before first use).
  const std::string& current_node() const { return current_node_; }

 private:
  template <typename Send>
  std::optional<Error> walk(Send send);
  Result<std::unique_ptr<net::Channel>> open_candidate(const wsdl::Definitions& defs);
  std::string node_of(const net::Channel& channel) const;

  dvm::Dvm& dvm_;
  container::Container& origin_;
  std::string service_;
  CallPolicy policy_;
  std::vector<wsdl::BindingKind> preference_;
  std::unique_ptr<net::Channel> current_;
  std::string current_node_;
  net::CallStats last_stats_;
  obs::Counter& c_failovers_;
};

std::unique_ptr<net::Channel> make_failover_channel(
    dvm::Dvm& dvm, container::Container& origin, std::string service_name,
    CallPolicy policy, std::vector<wsdl::BindingKind> preference = {});

/// ShardRoutedChannel — the failover discipline applied to sharded DVM
/// state. Where the FailoverChannel walks *service* replicas, this walks
/// *shard* owners: each get/set/set_batch is routed by the DVM's shard map
/// (dvm::Dvm::shard_map()) to the R members owning the key's shard. Calls
/// are sticky to the shard's primary until it turns kUnavailable, then
/// fail over inside the replica set, counting h2.resil.shard.failovers and
/// announcing "dvm/failover" like its service-level sibling. A set goes to
/// one owner (which assigns the LWW version) and is then replicated
/// best-effort to the remaining owners; anti-entropy repairs whatever the
/// best-effort leg missed. Terminal failures are always kTimeout — the
/// same "done, answered, or try again later" contract as FailoverChannel.
class ShardRoutedChannel final {
 public:
  /// `origin` is the calling node's container; `dvm` must be running the
  /// sharded coherency mode (calls fail with kUnsupported otherwise).
  /// Both must outlive the channel.
  ShardRoutedChannel(dvm::Dvm& dvm, container::Container& origin, CallPolicy policy);

  Result<std::string> get(std::string_view key);
  Status set(std::string_view key, std::string_view value);
  /// Writes grouped into ONE batched wire message per routed owner.
  Status set_batch(std::span<const dvm::KV> writes);

  /// Completed owner switches (sticky primary changed under failure).
  std::uint64_t failovers() const { return failovers_; }
  /// Node that served the last routed call for `key`'s shard ("" if none).
  std::string routed_node(std::string_view key) const;

 private:
  /// The one owner walk behind get and set: sends `operation` to the
  /// owners of `key`'s shard, sticky owner first, until one answers. Only
  /// kUnavailable moves on — plus kNotFound for a `read`, since another
  /// owner may hold the key. The answering owner is noted as the shard's
  /// sticky owner and returned in `served`.
  Result<Value> route(std::string_view key, std::string_view operation,
                      std::span<const Value> params, bool read, std::string& served);
  net::Channel& channel_to(const std::string& node);
  std::vector<std::string> owner_order(std::size_t shard,
                                       std::span<const std::string> owners) const;
  void note_served(std::size_t shard, const std::string& node);
  Status replicate(const dvm::VersionedEntry& entry,
                   std::span<const std::string> owners,
                   const std::string& already_applied);

  dvm::Dvm& dvm_;
  container::Container& origin_;
  CallPolicy policy_;
  std::map<std::string, std::unique_ptr<net::Channel>, std::less<>> channels_;
  std::map<std::size_t, std::string> sticky_;  ///< shard → last serving owner
  std::uint64_t failovers_ = 0;
  obs::Counter& c_failovers_;
};

}  // namespace h2::resil
