// Sharded coherency mode: the keyspace is split into fixed shards placed
// on a consistent-hash ring (dvm/ring.hpp); every write becomes a
// last-write-wins delta sent only to the R shard owners, reads walk the
// owner list, and a periodic Merkle anti-entropy pass (top-down digest
// descent + per-bucket pull/push, merkle.cpp) repairs replicas that
// diverged across partitions or crashes. A replication leg that cannot
// reach its owner parks a hint at the coordinator (hints.hpp); replay
// redelivers those once the owner is back, so R-replication is restored
// without waiting for anti-entropy. Versions are stamped from one
// protocol-global counter, so the order writes are acknowledged in IS
// their LWW order — a write can never be silently shadowed by an earlier
// acknowledged one.
#include <algorithm>
#include <map>
#include <optional>

#include "dvm/coherency.hpp"
#include "dvm/merkle.hpp"
#include "obs/metrics.hpp"

namespace h2::dvm {

namespace {

/// Budget charge of one replicated entry: payload plus framing overhead.
std::size_t entry_wire_size(const VersionedEntry& entry) {
  return entry.key.size() + entry.value.size() + 32;
}

class ShardedCoherency final : public CoherencyProtocol {
 public:
  explicit ShardedCoherency(ShardConfig config,
                            std::optional<std::size_t> skip_shard = std::nullopt,
                            bool drop_hints = false)
      : map_(config),
        skip_shard_(skip_shard),
        drop_hints_(drop_hints),
        hints_(config.hint_capacity),
        budget_(config.rebalance_bytes_per_tick, config.rebalance_msgs_per_tick) {}

  const char* name() const override { return "sharded"; }

  Status update(std::span<DvmNode* const> members, std::size_t origin,
                std::string_view key, std::string_view value) override {
    ensure(members);
    const KV one{key, value};
    return write(members, origin, {&one, 1}, /*deleted=*/false, "write", send_single);
  }

  Status update_batch(std::span<DvmNode* const> members, std::size_t origin,
                      std::span<const KV> writes) override {
    ensure(members);
    const std::vector<KV> coalesced = coalesce_writes(writes);
    if (coalesced.empty()) return Status::success();
    return write(members, origin, coalesced, /*deleted=*/false, "batch write",
                 send_batch);
  }

  Result<std::string> query(std::span<DvmNode* const> members, std::size_t origin,
                            std::string_view key) override {
    ensure(members);
    DvmNode* origin_node = members[origin];
    bind_metrics(*origin_node);
    const std::size_t shard = map_.shard_of(key);
    const bool origin_owns = map_.is_owner(shard, origin_node->name());
    if (origin_owns) {
      // Fast path: an owner serving its own copy answers locally with no
      // wire traffic. A *stale* (older-version) local hit is invisible
      // here by design — detecting it would cost a remote round per read;
      // anti-entropy bounds that window instead.
      if (auto value = origin_node->state().get(key); value.has_value()) {
        return *value;
      }
    }
    // Slow path: walk the other owners with versioned reads. Owners that
    // answer not-found while a later owner holds the key are stale — a
    // rejoin/handoff gap — and get an immediate per-key repair scheduled
    // on their container loop (the dispatch is inline until a driver is
    // attached, queued under one).
    std::optional<Error> hard_failure;
    std::vector<DvmNode*> stale;
    for (const std::string& owner : map_.owners(shard)) {
      DvmNode* target = find_member(members, owner);
      if (target == nullptr || target == origin_node) continue;
      auto entry = origin_node->remote_vget(*target, key);
      if (!entry.ok()) {
        if (entry.error().code() == ErrorCode::kNotFound) {
          stale.push_back(target);  // reachable but missing the key
        } else {
          hard_failure = entry.error();  // replica unreachable ≠ key absent
        }
        continue;
      }
      if (entry->deleted) continue;  // tombstone: the key is gone here
      if (origin_owns) stale.push_back(origin_node);  // local miss, remote hit
      for (DvmNode* node : stale) {
        schedule_read_repair(*node, *entry);
      }
      return entry->value;
    }
    if (hard_failure.has_value()) return *hard_failure;
    return err::not_found("state: no key '" + std::string(key) +
                          "' on any shard owner");
  }

  Status erase(std::span<DvmNode* const> members, std::size_t origin,
               std::string_view key) override {
    ensure(members);
    // Tombstone, not removal: the version must survive so a stale write
    // that lost the race cannot resurrect the key.
    const KV tombstone{key, ""};
    return write(members, origin, {&tombstone, 1}, /*deleted=*/true, "write",
                 send_single);
  }

  Status on_join(std::span<DvmNode* const> members, std::size_t joined) override {
    (void)joined;
    handoff(members);
    return Status::success();
  }

  Status on_leave(std::span<DvmNode* const> members,
                  std::string_view departed) override {
    (void)departed;
    handoff(members);
    return Status::success();
  }

  std::vector<std::size_t> heartbeat_peers(std::span<DvmNode* const> members,
                                           std::size_t origin) override {
    ensure(members);
    // Probe only replica-set peers: members sharing at least one shard
    // with the prober. O(R·shards) probes instead of O(M) broadcast.
    const std::string& self = members[origin]->name();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i == origin) continue;
      const std::string& peer = members[i]->name();
      for (std::size_t s = 0; s < map_.shard_count(); ++s) {
        if (map_.is_owner(s, self) && map_.is_owner(s, peer)) {
          out.push_back(i);
          break;
        }
      }
    }
    if (out.empty()) {
      // Owner of nothing (tiny ring slice): fall back to broadcast so the
      // member still participates in failure detection.
      return CoherencyProtocol::heartbeat_peers(members, origin);
    }
    return out;
  }

  Result<AntiEntropyReport> anti_entropy(std::span<DvmNode* const> members) override {
    ensure(members);
    AntiEntropyReport report;
    if (members.empty()) return report;
    bind_metrics(*members[0]);
    for (std::size_t s = 0; s < map_.shard_count(); ++s) {
      if (skip_shard_.has_value() && s == *skip_shard_) continue;  // TEST ONLY bug
      std::vector<DvmNode*> owners;
      for (const std::string& owner : map_.owners(s)) {
        if (DvmNode* node = find_member(members, owner)) owners.push_back(node);
      }
      if (owners.size() < 2) continue;
      ++report.shards_checked;
      DvmNode* primary = owners.front();
      // Adaptive tree resolution: size the leaf count to the shard as the
      // primary sees it, so a shard that grew 100x diffs at the same
      // per-bucket granularity instead of transferring 100x per diverged
      // leaf. The count rides the wire with every mnode/mnodes/mpull call,
      // so both sides always build the same tree.
      const std::size_t buckets = adaptive_merkle_buckets(
          primary->state().shard_entry_count(s, map_.shard_count()));
      report.max_buckets = std::max(report.max_buckets, buckets);
      bool divergent = false;
      // Two passes: round one accumulates every replica's entries into the
      // primary (it ends holding the shard-wide LWW maximum), round two
      // pushes that maximum back out. After a clean double pass all owner
      // snapshots are byte-equal. Each pairwise exchange is a Merkle
      // descent, so only diverged buckets cross the wire.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t r = 1; r < owners.size(); ++r) {
          auto channel = primary->open_state_channel(*owners[r]);
          auto stats = merkle_sync_shard_with_peer(*channel, primary->state(), s,
                                                   map_.shard_count(), buckets);
          if (!stats.ok()) {
            ++report.exchange_failures;
            continue;
          }
          if (stats->differed) divergent = true;
          report.entries_repaired += stats->merged;
          report.buckets_diverged += stats->buckets_diverged;
          report.bytes_transferred += stats->bytes_pulled + stats->bytes_pushed;
        }
      }
      if (divergent) ++report.shards_divergent;
      counter_ = std::max(counter_, primary->state().clock());
    }
    c_ae_rounds_->add();
    c_ae_divergent_->add(report.shards_divergent);
    c_ae_repaired_->add(report.entries_repaired);
    c_ae_bytes_->add(report.bytes_transferred);
    return report;
  }

  void park_hint(std::string_view coordinator, std::string_view target,
                 const VersionedEntry& entry) override {
    park(coordinator, target, entry);
  }

  std::size_t pending_hints() const override { return hints_.pending(); }

  std::vector<std::string> hinted_keys() const override { return hints_.keys(); }

  Result<HintReplayReport> replay_hints(std::span<DvmNode* const> members) override {
    HintReplayReport report;
    if (members.empty() || hints_.pending() == 0) return report;
    ensure(members);
    bind_metrics(*members[0]);
    budget_.refill();
    bool exhausted = false;
    for (const std::string& coordinator : hints_.coordinators()) {
      if (exhausted) {
        report.skipped += hints_.pending_for(coordinator);
        continue;
      }
      DvmNode* coord = find_member(members, coordinator);
      if (coord == nullptr) {
        // The coordinator is out of the membership; its hints live in its
        // memory and replay when it rejoins. Anti-entropy is the backstop
        // for anything lost with it.
        report.skipped += hints_.pending_for(coordinator);
        continue;
      }
      auto& queue = hints_.hints_for(coordinator);
      // Collect one budget's worth of hints, grouping every remote leg
      // into a single batched vset frame per target: the pass then costs
      // O(distinct targets) round trips, not O(hints x R), which is what
      // keeps a throttled replay slice comparable to one foreground
      // write. Entries charge the byte axis as they are collected; each
      // frame charges one message when it is sent. Self-legs (the
      // coordinator is itself an owner) apply locally for free.
      std::size_t taken = 0;
      std::vector<bool> complete;  // hint's every leg resolved and afforded
      std::map<std::string, std::vector<std::size_t>, std::less<>> legs;
      for (std::size_t i = 0; i < queue.size() && !exhausted; ++i) {
        const Hint& hint = queue[i];
        ++report.attempted;
        ++taken;
        const std::size_t shard = map_.shard_of(hint.entry.key);
        // Deliver to the hint's target plus any owner that joined the set
        // after the hint was parked: ownership may have moved, and a new
        // owner seeded by a donor that was itself missing this entry has
        // no hint of its own. Owners already present at park time took
        // the write or carry their own hint, so re-sending to them would
        // only burn budget. A hint with no park-time stamp falls back to
        // the whole owner set. LWW apply makes duplicates harmless.
        auto owners = map_.owners(shard);
        std::vector<std::string> targets;
        for (const std::string& name : owners) {
          const bool joined_since =
              !hint.owners_at_park.empty() &&
              std::find(hint.owners_at_park.begin(), hint.owners_at_park.end(),
                        name) == hint.owners_at_park.end();
          if (hint.owners_at_park.empty() || name == hint.target ||
              joined_since) {
            targets.push_back(name);
          }
        }
        bool ok = true;
        for (const std::string& name : targets) {
          DvmNode* target = find_member(members, name);
          if (target == nullptr) {
            ok = false;
            continue;
          }
          if (target == coord) {
            (void)coord->state().apply(hint.entry);
            continue;
          }
          if (!budget_.try_consume_bytes(entry_wire_size(hint.entry))) {
            exhausted = true;
            ok = false;
            break;
          }
          legs[name].push_back(i);
        }
        complete.push_back(ok);
      }
      if (exhausted) report.skipped += queue.size() - taken;
      // Send the frames; a frame that fails (or that the message budget
      // cannot afford) requeues every hint that had a leg in it.
      std::vector<bool> delivered(complete);
      for (auto& [name, indexes] : legs) {
        DvmNode* target = find_member(members, name);
        bool sent = false;
        if (budget_.try_consume_msg()) {
          std::vector<VersionedEntry> entries;
          entries.reserve(indexes.size());
          for (std::size_t i : indexes) entries.push_back(queue[i].entry);
          sent = target != nullptr &&
                 coord->remote_vset_batch(*target, entries).ok();
        } else {
          exhausted = true;
        }
        if (!sent) {
          for (std::size_t i : indexes) delivered[i] = false;
        }
      }
      // Retire delivered hints back-to-front so stored indexes stay valid.
      for (std::size_t i = taken; i-- > 0;) {
        if (delivered[i]) {
          queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
          ++report.delivered;
          if (c_hints_replayed_ != nullptr) c_hints_replayed_->add();
        } else {
          ++report.requeued;
          if (c_hints_requeued_ != nullptr) c_hints_requeued_->add();
        }
      }
    }
    return report;
  }

  const ShardMap* shard_map() const override { return &map_; }

 private:
  static DvmNode* find_member(std::span<DvmNode* const> members,
                              std::string_view name) {
    for (DvmNode* node : members) {
      if (node->name() == name) return node;
    }
    return nullptr;
  }

  void ensure(std::span<DvmNode* const> members) {
    std::vector<std::string> names;
    names.reserve(members.size());
    for (DvmNode* node : members) names.push_back(node->name());
    std::sort(names.begin(), names.end());
    if (names == map_.members()) return;
    map_.rebuild(names);
  }

  /// Read-repair: the stale owner's loop applies the winning entry with
  /// loop affinity (inline in eager mode, on the next pump under a
  /// driver). LWW apply keeps it safe against a racing newer write.
  void schedule_read_repair(DvmNode& stale_owner, const VersionedEntry& entry) {
    obs::Counter* repairs = c_read_repairs_;
    StateStore* store = &stale_owner.state();
    stale_owner.container().loop().dispatch([store, entry, repairs] {
      if (store->apply(entry) && repairs != nullptr) repairs->add();
    });
  }

  void bind_metrics(DvmNode& any_member) {
    net::SimNetwork& net = any_member.network();
    if (metrics_net_ == &net) return;
    metrics_net_ = &net;
    c_writes_ = &net.metrics().counter("h2.dvm.shard.writes");
    c_write_misses_ = &net.metrics().counter("h2.dvm.shard.write_owner_misses");
    c_ae_rounds_ = &net.metrics().counter("h2.dvm.shard.ae_rounds");
    c_ae_divergent_ = &net.metrics().counter("h2.dvm.shard.ae_shards_divergent");
    c_ae_repaired_ = &net.metrics().counter("h2.dvm.shard.ae_entries_repaired");
    c_ae_bytes_ = &net.metrics().counter("h2.dvm.shard.ae_bytes");
    c_handoff_ = &net.metrics().counter("h2.dvm.shard.handoff.entries");
    c_handoff_bytes_ = &net.metrics().counter("h2.dvm.shard.handoff.bytes");
    c_handoff_deferred_ = &net.metrics().counter("h2.dvm.shard.handoff.deferred");
    c_hints_parked_ = &net.metrics().counter("h2.dvm.shard.hints.parked");
    c_hints_replayed_ = &net.metrics().counter("h2.dvm.shard.hints.replayed");
    c_hints_requeued_ = &net.metrics().counter("h2.dvm.shard.hints.requeued");
    c_hint_evictions_ = &net.metrics().counter("h2.dvm.shard.hint_evictions");
    c_read_repairs_ = &net.metrics().counter("h2.dvm.shard.read_repairs");
  }

  /// The one parking point (write misses, failed handoff legs, the
  /// resilience channel via park_hint). The TEST-ONLY drop bug lives
  /// here: it silently discards instead of parking.
  void park(std::string_view coordinator, std::string_view target,
            const VersionedEntry& entry) {
    if (drop_hints_) return;  // TEST ONLY planted durability bug
    // Stamp the owner set as of now: every one of these owners either
    // took the write or is getting a hint of its own, so replay can skip
    // them and reach only `target` plus owners that join later.
    auto owners = map_.owners(map_.shard_of(entry.key));
    hints_.park(coordinator, target, entry,
                std::vector<std::string>(owners.begin(), owners.end()));
    if (c_hints_parked_ != nullptr) c_hints_parked_->add();
    // Surface capacity-pressure drops: each eviction is durability lost
    // until anti-entropy catches it, so operators need the count.
    const std::uint64_t evicted = hints_.evicted();
    if (c_hint_evictions_ != nullptr && evicted > hint_evictions_seen_) {
      c_hint_evictions_->add(evicted - hint_evictions_seen_);
      hint_evictions_seen_ = evicted;
    }
  }

  /// The send steps of write(): a singleton vset frame for a single write,
  /// one batched vset frame per owner for a batch (even a batch of one).
  static bool send_single(DvmNode& from, DvmNode& to,
                          std::span<const VersionedEntry> entries) {
    return from.remote_vset(to, entries.front()).ok();
  }
  static bool send_batch(DvmNode& from, DvmNode& to,
                         std::span<const VersionedEntry> entries) {
    return from.remote_vset_batch(to, entries).ok();
  }

  /// The one replicated write behind update, update_batch and erase: each
  /// write gets the next version and is applied where the origin owns its
  /// shard; the remote legs are grouped per owner and handed to `send`,
  /// which delivers one group in the caller's wire shape and reports
  /// whether it landed. Missed legs are parked as hints. The call fails
  /// only when some write reached no owner at all; partial landings are
  /// acknowledged — the parked hints restore R-replication at the next
  /// replay tick, anti-entropy backstops.
  template <typename Send>
  Status write(std::span<DvmNode* const> members, std::size_t origin,
               std::span<const KV> writes, bool deleted, std::string_view what,
               Send send) {
    DvmNode* origin_node = members[origin];
    bind_metrics(*origin_node);
    counter_ = std::max(counter_, origin_node->state().clock());
    struct TargetBatch {
      DvmNode* node;
      std::vector<VersionedEntry> entries;
      std::vector<std::size_t> write_idx;
    };
    std::vector<TargetBatch> batches;
    std::map<std::string_view, std::size_t> batch_index;
    std::vector<std::size_t> applied(writes.size(), 0);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      Version v{++counter_, writer_id(origin_node->name())};
      VersionedEntry entry{std::string(writes[i].key), std::string(writes[i].value), v,
                           deleted};
      for (const std::string& owner : map_.owners(map_.shard_of(writes[i].key))) {
        DvmNode* target = find_member(members, owner);
        if (target == nullptr) continue;
        if (target == origin_node) {
          (void)origin_node->state().apply(entry);
          ++applied[i];
          continue;
        }
        auto [it, inserted] = batch_index.try_emplace(target->name(), batches.size());
        if (inserted) batches.push_back(TargetBatch{target, {}, {}});
        batches[it->second].entries.push_back(entry);
        batches[it->second].write_idx.push_back(i);
      }
      c_writes_->add();
    }
    for (TargetBatch& batch : batches) {
      if (send(*origin_node, *batch.node, batch.entries)) {
        for (std::size_t idx : batch.write_idx) ++applied[idx];
      } else {
        c_write_misses_->add(batch.entries.size());
        for (const VersionedEntry& entry : batch.entries) {
          park(origin_node->name(), batch.node->name(), entry);
        }
      }
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (applied[i] == 0) {
        // Every owner unreachable: the write definitively did not land, the
        // caller must treat the key as dirty.
        return err::unavailable("sharded " + std::string(what) + " of '" +
                                std::string(writes[i].key) +
                                "': no shard owner reachable");
      }
    }
    return Status::success();
  }

  /// Rebuild placement for a changed membership and push the shards whose
  /// owner set changed from a surviving old owner to each new owner,
  /// within the rebalance budget (one refill per membership event).
  /// Entries past the budget — and entries whose transfer failed — are
  /// parked as hints at the donor, so replay ticks finish the move
  /// instead of one unbounded burst; anti-entropy backstops the rest.
  void handoff(std::span<DvmNode* const> members) {
    const bool had_map = !map_.members().empty();
    std::vector<std::vector<std::string>> old_owners;
    old_owners.reserve(map_.shard_count());
    for (std::size_t s = 0; s < map_.shard_count(); ++s) {
      auto owners = map_.owners(s);
      old_owners.emplace_back(owners.begin(), owners.end());
    }
    ensure(members);
    if (!had_map) return;
    budget_.refill();
    for (std::size_t s = 0; s < map_.shard_count(); ++s) {
      auto new_owners = map_.owners(s);
      if (std::equal(new_owners.begin(), new_owners.end(), old_owners[s].begin(),
                     old_owners[s].end())) {
        continue;
      }
      DvmNode* donor = nullptr;
      for (const std::string& owner : old_owners[s]) {
        if (DvmNode* node = find_member(members, owner)) {
          donor = node;
          break;
        }
      }
      if (donor == nullptr) continue;  // every old owner gone; AE must rebuild
      // The donor may itself be missing exactly the writes that are
      // hint-covered (its own hint is still parked somewhere), so a
      // snapshot seed can hand a new owner stale data with no record.
      // Re-target every pending hint whose key lives in this shard at
      // each added owner: replay then delivers the authoritative copy
      // regardless of how stale the donor was.
      std::vector<std::string> added;
      for (const std::string& owner : new_owners) {
        if (std::find(old_owners[s].begin(), old_owners[s].end(), owner) ==
                old_owners[s].end() &&
            find_member(members, owner) != nullptr) {
          added.push_back(owner);
        }
      }
      if (!added.empty()) {
        for (const std::string& coordinator : hints_.coordinators()) {
          auto& queue = hints_.hints_for(coordinator);
          const std::size_t existing = queue.size();  // park() may append here
          for (std::size_t i = 0; i < existing && i < queue.size(); ++i) {
            const Hint hint = queue[i];  // copy: park() can evict from the deque
            if (map_.shard_of(hint.entry.key) != s) continue;
            for (const std::string& owner : added) {
              if (owner != hint.target) park(coordinator, owner, hint.entry);
            }
          }
        }
      }
      auto entries = donor->state().shard_snapshot(s, map_.shard_count());
      if (entries.empty()) continue;
      for (const std::string& owner : new_owners) {
        if (std::find(old_owners[s].begin(), old_owners[s].end(), owner) !=
            old_owners[s].end()) {
          continue;  // already held the shard
        }
        DvmNode* target = find_member(members, owner);
        if (target == nullptr || target == donor) continue;
        std::vector<VersionedEntry> send;
        std::size_t send_bytes = 0;
        std::size_t deferred = 0;
        for (const VersionedEntry& entry : entries) {
          if (budget_.try_consume(entry_wire_size(entry))) {
            send.push_back(entry);
            send_bytes += entry_wire_size(entry);
          } else {
            park(donor->name(), owner, entry);
            ++deferred;
          }
        }
        if (deferred > 0 && c_handoff_deferred_ != nullptr) {
          c_handoff_deferred_->add(deferred);
        }
        if (send.empty()) continue;
        if (donor->remote_vset_batch(*target, send).ok()) {
          if (c_handoff_ != nullptr) c_handoff_->add(send.size());
          if (c_handoff_bytes_ != nullptr) c_handoff_bytes_->add(send_bytes);
        } else {
          // The burst never landed: park it so replay retries leg by leg.
          for (const VersionedEntry& entry : send) park(donor->name(), owner, entry);
        }
      }
    }
  }

  ShardMap map_;
  std::optional<std::size_t> skip_shard_;  ///< TEST ONLY: AE skips this shard
  bool drop_hints_;                        ///< TEST ONLY: park() discards hints
  std::uint64_t counter_ = 0;  ///< global LWW timestamp source (see header comment)
  HintStore hints_;
  TokenBucket budget_;  ///< shared handoff + replay budget (one refill per tick)
  net::SimNetwork* metrics_net_ = nullptr;
  obs::Counter* c_writes_ = nullptr;
  obs::Counter* c_write_misses_ = nullptr;
  obs::Counter* c_ae_rounds_ = nullptr;
  obs::Counter* c_ae_divergent_ = nullptr;
  obs::Counter* c_ae_repaired_ = nullptr;
  obs::Counter* c_ae_bytes_ = nullptr;
  obs::Counter* c_handoff_ = nullptr;
  obs::Counter* c_handoff_bytes_ = nullptr;
  obs::Counter* c_handoff_deferred_ = nullptr;
  obs::Counter* c_hints_parked_ = nullptr;
  obs::Counter* c_hints_replayed_ = nullptr;
  obs::Counter* c_hints_requeued_ = nullptr;
  obs::Counter* c_hint_evictions_ = nullptr;
  obs::Counter* c_read_repairs_ = nullptr;
  std::uint64_t hint_evictions_seen_ = 0;  ///< HintStore::evicted() already counted
};

}  // namespace

std::unique_ptr<CoherencyProtocol> make_sharded(ShardConfig config) {
  return std::make_unique<ShardedCoherency>(config);
}

std::unique_ptr<CoherencyProtocol> make_sharded_buggy_for_test(
    ShardConfig config, std::size_t skip_shard, bool drop_hints) {
  return std::make_unique<ShardedCoherency>(config, skip_shard, drop_hints);
}

std::unique_ptr<CoherencyProtocol> make_sharded_hint_drop_for_test(ShardConfig config) {
  return std::make_unique<ShardedCoherency>(config, std::nullopt,
                                            /*drop_hints=*/true);
}

}  // namespace h2::dvm
