#include "dvm/coherency.hpp"

namespace h2::dvm {

std::vector<KV> coalesce_writes(std::span<const KV> writes) {
  std::vector<KV> out;
  out.reserve(writes.size());
  std::map<std::string_view, std::size_t> index;
  for (const KV& kv : writes) {
    auto [it, inserted] = index.try_emplace(kv.key, out.size());
    if (inserted) {
      out.push_back(kv);
    } else {
      out[it->second].value = kv.value;
    }
  }
  return out;
}

namespace {

/// A local read, else "a distributed query spanning across the DVM": the
/// first member that holds the key answers. Decentralized and
/// neighborhood reads share it.
Result<std::string> query_anywhere(std::span<DvmNode* const> members, std::size_t origin,
                                   std::string_view key) {
  if (auto value = members[origin]->state().get(key); value.has_value()) {
    return *value;
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i == origin) continue;
    auto value = members[origin]->remote_get(*members[i], key);
    if (value.ok()) return value;
    if (value.error().code() != ErrorCode::kNotFound) return value.error();
  }
  return err::not_found("state: no key '" + std::string(key) + "' anywhere");
}

/// The origin's own copy of a coalesced write storm.
void apply_local(DvmNode& origin, std::span<const KV> writes) {
  for (const KV& kv : writes) {
    origin.state().set(std::string(kv.key), std::string(kv.value));
  }
}

class FullSynchrony : public CoherencyProtocol {
 public:
  const char* name() const override { return "full-synchrony"; }

  Status update(std::span<DvmNode* const> members, std::size_t origin,
                std::string_view key, std::string_view value) override {
    members[origin]->state().set(std::string(key), std::string(value));
    return fan_out(members, origin, "full-synchrony replication to ",
                   [&](DvmNode& from, DvmNode& to) {
                     return from.remote_set(to, key, value);
                   });
  }

  Status update_batch(std::span<DvmNode* const> members, std::size_t origin,
                      std::span<const KV> writes) override {
    const std::vector<KV> coalesced = coalesce_writes(writes);
    apply_local(*members[origin], coalesced);
    return fan_out(members, origin, "full-synchrony batch replication to ",
                   [&](DvmNode& from, DvmNode& to) {
                     return from.remote_set_batch(to, coalesced);
                   });
  }

  Result<std::string> query(std::span<DvmNode* const> members, std::size_t origin,
                            std::string_view key) override {
    auto value = members[origin]->state().get(key);
    if (!value.has_value()) {
      return err::not_found("state: no key '" + std::string(key) + "'");
    }
    return *value;
  }

  Status erase(std::span<DvmNode* const> members, std::size_t origin,
               std::string_view key) override {
    members[origin]->state().erase(key);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i == origin) continue;
      if (auto status = members[origin]->remote_del(*members[i], key); !status.ok()) {
        return status.error().context("full-synchrony erase");
      }
    }
    return Status::success();
  }

  Status on_join(std::span<DvmNode* const> members, std::size_t joined) override {
    // Back-fill the newcomer so "the entire state information is
    // replicated across all participating nodes" stays true after joins.
    if (members.size() < 2) return Status::success();
    std::size_t donor = joined == 0 ? 1 : 0;
    for (const std::string& key : members[donor]->state().keys()) {
      auto value = members[donor]->state().get(key);
      if (!value.has_value()) continue;
      if (auto status = members[donor]->remote_set(*members[joined], key, *value);
          !status.ok()) {
        return status.error().context("full-synchrony join back-fill");
      }
    }
    return Status::success();
  }

 protected:
  /// How many leading members the update fan-out covers. The correct
  /// protocol covers all of them; the test-only buggy variant overrides
  /// this to plant a stale replica.
  virtual std::size_t replication_cutoff(std::size_t member_count) const {
    return member_count;
  }

 private:
  /// The one write fan-out behind update and update_batch: `send` the
  /// writes from the origin to every covered member in the caller's wire
  /// shape; the first failed leg fails the update.
  template <typename Send>
  Status fan_out(std::span<DvmNode* const> members, std::size_t origin,
                 std::string_view context, Send send) {
    const std::size_t covered = replication_cutoff(members.size());
    for (std::size_t i = 0; i < covered; ++i) {
      if (i == origin) continue;
      if (auto status = send(*members[origin], *members[i]); !status.ok()) {
        return status.error().context(std::string(context) + members[i]->name());
      }
    }
    return Status::success();
  }
};

/// TEST ONLY — see make_full_synchrony_buggy_for_test().
class FullSynchronyBuggy final : public FullSynchrony {
 protected:
  std::size_t replication_cutoff(std::size_t member_count) const override {
    // Planted bug: the last member never receives updates.
    return member_count > 1 ? member_count - 1 : member_count;
  }
};

class Decentralized final : public CoherencyProtocol {
 public:
  const char* name() const override { return "decentralized"; }

  Status update(std::span<DvmNode* const> members, std::size_t origin,
                std::string_view key, std::string_view value) override {
    // "State change events are not propagated to other nodes."
    members[origin]->state().set(std::string(key), std::string(value));
    return Status::success();
  }

  Result<std::string> query(std::span<DvmNode* const> members, std::size_t origin,
                            std::string_view key) override {
    return query_anywhere(members, origin, key);
  }

  Status erase(std::span<DvmNode* const> members, std::size_t origin,
               std::string_view key) override {
    members[origin]->state().erase(key);
    return Status::success();
  }
};

class Neighborhood final : public CoherencyProtocol {
 public:
  explicit Neighborhood(std::size_t k) : k_(k) {}

  const char* name() const override { return "neighborhood"; }

  Status update(std::span<DvmNode* const> members, std::size_t origin,
                std::string_view key, std::string_view value) override {
    members[origin]->state().set(std::string(key), std::string(value));
    return fan_out(members, origin, "neighborhood replication",
                   [&](DvmNode& from, DvmNode& to) {
                     return from.remote_set(to, key, value);
                   });
  }

  Status update_batch(std::span<DvmNode* const> members, std::size_t origin,
                      std::span<const KV> writes) override {
    const std::vector<KV> coalesced = coalesce_writes(writes);
    apply_local(*members[origin], coalesced);
    return fan_out(members, origin, "neighborhood batch replication",
                   [&](DvmNode& from, DvmNode& to) {
                     return from.remote_set_batch(to, coalesced);
                   });
  }

  Result<std::string> query(std::span<DvmNode* const> members, std::size_t origin,
                            std::string_view key) override {
    return query_anywhere(members, origin, key);
  }

  Status erase(std::span<DvmNode* const> members, std::size_t origin,
               std::string_view key) override {
    members[origin]->state().erase(key);
    return fan_out(members, origin, "neighborhood erase",
                   [&](DvmNode& from, DvmNode& to) { return from.remote_del(to, key); });
  }

 private:
  /// The one neighborhood fan-out behind update, update_batch and erase:
  /// `send` to the k ring successors of the origin in the caller's wire
  /// shape; the first failed leg fails the call.
  template <typename Send>
  Status fan_out(std::span<DvmNode* const> members, std::size_t origin,
                 std::string_view context, Send send) {
    for (std::size_t step = 1; step <= k_ && step < members.size(); ++step) {
      std::size_t neighbor = (origin + step) % members.size();
      if (auto status = send(*members[origin], *members[neighbor]); !status.ok()) {
        return status.error().context(context);
      }
    }
    return Status::success();
  }

  std::size_t k_;
};

}  // namespace

std::unique_ptr<CoherencyProtocol> make_full_synchrony() {
  return std::make_unique<FullSynchrony>();
}

std::unique_ptr<CoherencyProtocol> make_decentralized() {
  return std::make_unique<Decentralized>();
}

std::unique_ptr<CoherencyProtocol> make_neighborhood(std::size_t k) {
  return std::make_unique<Neighborhood>(k);
}

std::unique_ptr<CoherencyProtocol> make_full_synchrony_buggy_for_test() {
  return std::make_unique<FullSynchronyBuggy>();
}

}  // namespace h2::dvm
