#include "dvm/coherency.hpp"

#include "util/spectrum.hpp"

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

/// Full synchrony within the k ring successors of the writer, distributed
/// queries beyond them. With k = 0 no state change propagates and every
/// non-local read is a DVM-spanning query: the decentralized scheme.
class Neighborhood final : public CoherencyProtocol {
 public:
  explicit Neighborhood(std::size_t k) : k_(k) {}

  const char* name() const override { return k_ == 0 ? "decentralized" : "neighborhood"; }

  Status update(std::span<DvmNode* const> members, std::size_t origin,
                std::string_view key, std::string_view value) override {
    members[origin]->state().set(std::string(key), std::string(value));
    return ring_fan_out(members.size(), origin, k_, [&](std::size_t to) {
             return members[origin]->remote_set(*members[to], key, value);
           }).context("neighborhood replication");
  }

  Status update_batch(std::span<DvmNode* const> members, std::size_t origin,
                      std::span<const KV> writes) override {
    const std::vector<KV> coalesced = coalesce_writes(writes);
    apply_local(*members[origin], coalesced);
    return ring_fan_out(members.size(), origin, k_, [&](std::size_t to) {
             return members[origin]->remote_set_batch(*members[to], coalesced);
           }).context("neighborhood batch replication");
  }

  Result<std::string> query(std::span<DvmNode* const> members, std::size_t origin,
                            std::string_view key) override {
    if (auto value = members[origin]->state().get(key); value.has_value()) {
      return *value;
    }
    return query_others(
        members.size(), origin,
        [&](std::size_t member) { return members[origin]->remote_get(*members[member], key); },
        [&]() -> Result<std::string> {
          return err::not_found("state: no key '" + std::string(key) + "' anywhere");
        });
  }

  Status erase(std::span<DvmNode* const> members, std::size_t origin,
               std::string_view key) override {
    members[origin]->state().erase(key);
    return ring_fan_out(members.size(), origin, k_, [&](std::size_t to) {
             return members[origin]->remote_del(*members[to], key);
           }).context("neighborhood erase");
  }

 private:
  std::size_t k_;
};

}  // namespace

std::unique_ptr<CoherencyProtocol> make_full_synchrony() {
  return std::make_unique<FullSynchrony>();
}

std::unique_ptr<CoherencyProtocol> make_decentralized() {
  return std::make_unique<Neighborhood>(0);
}

std::unique_ptr<CoherencyProtocol> make_neighborhood(std::size_t k) {
  return std::make_unique<Neighborhood>(k);
}

std::unique_ptr<CoherencyProtocol> make_full_synchrony_buggy_for_test() {
  return std::make_unique<FullSynchronyBuggy>();
}

}  // namespace h2::dvm
