#include "dvm/state.hpp"

#include <algorithm>
#include <charconv>

#include "dvm/merkle.hpp"

namespace h2::dvm {

// ---- StateStore: versioned LWW entries ----------------------------------------

bool StateStore::apply(const VersionedEntry& entry) {
  clock_ = std::max(clock_, entry.version.ts);
  auto it = versions_.find(entry.key);
  if (it != versions_.end() && !(it->second.version < entry.version)) {
    return false;  // we already hold this version or something newer
  }
  if (it != versions_.end()) {
    it->second = Meta{entry.version, entry.deleted};
  } else {
    versions_.emplace(entry.key, Meta{entry.version, entry.deleted});
  }
  if (entry.deleted) {
    map_.erase(entry.key);
  } else {
    map_[entry.key] = entry.value;
  }
  return true;
}

Version StateStore::assign_and_apply(std::string_view key, std::string_view value,
                                     std::uint64_t writer, bool deleted) {
  Version version{++clock_, writer};
  VersionedEntry entry{std::string(key), std::string(value), version, deleted};
  (void)apply(entry);  // always wins: ts is greater than anything seen
  return version;
}

std::optional<Version> StateStore::version_of(std::string_view key) const {
  auto it = versions_.find(key);
  if (it == versions_.end()) return std::nullopt;
  return it->second.version;
}

std::optional<VersionedEntry> StateStore::ventry(std::string_view key) const {
  auto it = versions_.find(key);
  if (it == versions_.end()) return std::nullopt;
  VersionedEntry entry;
  entry.key = std::string(key);
  entry.version = it->second.version;
  entry.deleted = it->second.deleted;
  if (!entry.deleted) {
    if (auto value = map_.find(key); value != map_.end()) entry.value = value->second;
  }
  return entry;
}

std::vector<VersionedEntry> StateStore::shard_snapshot(std::size_t shard,
                                                       std::size_t shard_count) const {
  std::vector<VersionedEntry> out;
  for (const auto& [key, meta] : versions_) {
    if (shard_of_key(key, shard_count) != shard) continue;
    VersionedEntry entry;
    entry.key = key;
    entry.version = meta.version;
    entry.deleted = meta.deleted;
    if (!meta.deleted) {
      if (auto it = map_.find(key); it != map_.end()) entry.value = it->second;
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::uint64_t StateStore::shard_digest(std::size_t shard,
                                       std::size_t shard_count) const {
  // Chained mix over the key-sorted snapshot: any difference in keys,
  // values, versions or tombstone flags changes the digest.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, meta] : versions_) {
    if (shard_of_key(key, shard_count) != shard) continue;
    h = mix64(h ^ hash64(key));
    h = mix64(h ^ meta.version.ts);
    h = mix64(h ^ meta.version.writer);
    h = mix64(h ^ (meta.deleted ? 1u : 0u));
    if (!meta.deleted) {
      if (auto it = map_.find(key); it != map_.end()) h = mix64(h ^ hash64(it->second));
    }
  }
  return h;
}

std::size_t StateStore::shard_entry_count(std::size_t shard,
                                          std::size_t shard_count) const {
  std::size_t count = 0;
  for (const auto& [key, meta] : versions_) {
    if (shard_of_key(key, shard_count) == shard) ++count;
  }
  return count;
}

// ---- wire codec for shard transfers --------------------------------------------

std::string encode_entries(std::span<const VersionedEntry> entries) {
  std::string out = "H2SH " + std::to_string(entries.size()) + "\n";
  for (const VersionedEntry& e : entries) {
    out += std::to_string(e.version.ts) + " " + std::to_string(e.version.writer) +
           " " + (e.deleted ? "1" : "0") + " " + std::to_string(e.key.size()) + " " +
           std::to_string(e.value.size()) + "\n";
    out += e.key;
    out += e.value;
  }
  return out;
}

namespace {

Result<std::uint64_t> take_number(std::string_view& rest, char terminator) {
  std::size_t end = rest.find(terminator);
  if (end == std::string_view::npos) return err::invalid_argument("shard blob: truncated");
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + end, value);
  if (ec != std::errc() || ptr != rest.data() + end) {
    return err::invalid_argument("shard blob: bad number");
  }
  rest.remove_prefix(end + 1);
  return value;
}

}  // namespace

Result<std::vector<VersionedEntry>> decode_entries(std::string_view blob) {
  if (!blob.starts_with("H2SH ")) {
    return err::invalid_argument("shard blob: bad magic");
  }
  blob.remove_prefix(5);
  auto count = take_number(blob, '\n');
  if (!count.ok()) return count.error();
  std::vector<VersionedEntry> out;
  out.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto ts = take_number(blob, ' ');
    if (!ts.ok()) return ts.error();
    auto writer = take_number(blob, ' ');
    if (!writer.ok()) return writer.error();
    auto deleted = take_number(blob, ' ');
    if (!deleted.ok()) return deleted.error();
    auto key_len = take_number(blob, ' ');
    if (!key_len.ok()) return key_len.error();
    auto value_len = take_number(blob, '\n');
    if (!value_len.ok()) return value_len.error();
    if (blob.size() < *key_len + *value_len) {
      return err::invalid_argument("shard blob: truncated entry payload");
    }
    VersionedEntry entry;
    entry.version = Version{*ts, *writer};
    entry.deleted = *deleted != 0;
    entry.key = std::string(blob.substr(0, *key_len));
    entry.value = std::string(blob.substr(*key_len, *value_len));
    blob.remove_prefix(*key_len + *value_len);
    out.push_back(std::move(entry));
  }
  return out;
}

// ---- state service dispatcher ---------------------------------------------------

std::shared_ptr<net::DispatcherMux> make_state_service(
    std::shared_ptr<StateStore> store, std::uint64_t self_writer) {
  auto service = std::make_shared<net::DispatcherMux>();
  auto state = std::move(store);
  service->add("set", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 2) return err::invalid_argument("set(key, value)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    auto value = params[1].as_string();
    if (!value.ok()) return value.error();
    state->set(std::move(*key), std::move(*value));
    return Value::of_void();
  });
  service->add("get", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("get(key)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    auto value = state->get(*key);
    if (!value.has_value()) return err::not_found("state: no key '" + *key + "'");
    return Value::of_string(std::move(*value), "return");
  });
  service->add("ping", [](std::span<const Value>) -> Result<Value> {
    return Value::of_bool(true, "return");
  });
  service->add("del", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("del(key)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    return Value::of_bool(state->erase(*key), "return");
  });
  // Sharded-mode surface: LWW deltas and the anti-entropy primitives.
  service->add("vset", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 5) return err::invalid_argument("vset(key, value, ts, writer, deleted)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    auto value = params[1].as_string();
    if (!value.ok()) return value.error();
    auto ts = params[2].as_int();
    if (!ts.ok()) return ts.error();
    auto writer = params[3].as_int();
    if (!writer.ok()) return writer.error();
    auto deleted = params[4].as_bool();
    if (!deleted.ok()) return deleted.error();
    VersionedEntry entry{std::move(*key), std::move(*value),
                         Version{static_cast<std::uint64_t>(*ts),
                                 static_cast<std::uint64_t>(*writer)},
                         *deleted};
    return Value::of_bool(state->apply(entry), "applied");
  });
  service->add("vget", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("vget(key)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    auto entry = state->ventry(*key);
    if (!entry.has_value()) {
      return err::not_found("state: no versioned key '" + *key + "'");
    }
    // Single-entry shard blob: reuses the pull codec (version + tombstone
    // metadata travel with the value).
    return Value::of_string(encode_entries({&*entry, 1}), "entry");
  });
  service->add("wset", [state, self_writer](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 2) return err::invalid_argument("wset(key, value)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    auto value = params[1].as_string();
    if (!value.ok()) return value.error();
    // The serving replica coordinates: it assigns the version (so writes
    // through it are totally ordered by its clock) and the caller
    // replicates the returned version to the other owners.
    Version v = state->assign_and_apply(*key, *value, self_writer);
    return Value::of_string(std::to_string(v.ts) + " " + std::to_string(v.writer),
                            "version");
  });
  service->add("digest", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 2) return err::invalid_argument("digest(shard, shards)");
    auto shard = params[0].as_int();
    if (!shard.ok()) return shard.error();
    auto shards = params[1].as_int();
    if (!shards.ok()) return shards.error();
    std::uint64_t digest = state->shard_digest(static_cast<std::size_t>(*shard),
                                               static_cast<std::size_t>(*shards));
    return Value::of_int(static_cast<std::int64_t>(digest), "digest");
  });
  service->add("pull", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 2) return err::invalid_argument("pull(shard, shards)");
    auto shard = params[0].as_int();
    if (!shard.ok()) return shard.error();
    auto shards = params[1].as_int();
    if (!shards.ok()) return shards.error();
    auto snapshot = state->shard_snapshot(static_cast<std::size_t>(*shard),
                                          static_cast<std::size_t>(*shards));
    return Value::of_string(encode_entries(snapshot), "entries");
  });
  // Merkle anti-entropy surface: node digests for the top-down descent and
  // per-bucket pulls so a diverged shard transfers only diverged buckets.
  service->add("mnode", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 5) {
      return err::invalid_argument("mnode(shard, shards, buckets, level, index)");
    }
    std::int64_t args[5];
    for (std::size_t i = 0; i < 5; ++i) {
      auto value = params[i].as_int();
      if (!value.ok()) return value.error();
      args[i] = *value;
    }
    std::size_t buckets = merkle_bucket_count(static_cast<std::size_t>(args[2]));
    MerkleTree tree = build_merkle_tree(*state, static_cast<std::size_t>(args[0]),
                                        static_cast<std::size_t>(args[1]), buckets);
    auto level = static_cast<std::size_t>(args[3]);
    auto index = static_cast<std::size_t>(args[4]);
    if (level > tree.depth() || index >= (std::size_t{1} << level)) {
      return err::invalid_argument("mnode: node out of range");
    }
    return Value::of_int(static_cast<std::int64_t>(tree.node(level, index)),
                         "digest");
  });
  // Packed variant for the descent's hot path: one call per tree level,
  // indexes as an 8-byte big-endian blob, digests back the same way. The
  // per-node named-param framing of "mnode" would otherwise dominate the
  // exchange's bytes and defeat the O(diff) bandwidth claim.
  service->add("mnodes", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 5) {
      return err::invalid_argument("mnodes(shard, shards, buckets, level, indexes)");
    }
    std::int64_t args[4];
    for (std::size_t i = 0; i < 4; ++i) {
      auto value = params[i].as_int();
      if (!value.ok()) return value.error();
      args[i] = *value;
    }
    auto blob = params[4].as_string();
    if (!blob.ok()) return blob.error();
    if (blob->size() % 8 != 0) {
      return err::invalid_argument("mnodes: index blob not a multiple of 8");
    }
    std::size_t buckets = merkle_bucket_count(static_cast<std::size_t>(args[2]));
    MerkleTree tree = build_merkle_tree(*state, static_cast<std::size_t>(args[0]),
                                        static_cast<std::size_t>(args[1]), buckets);
    auto level = static_cast<std::size_t>(args[3]);
    if (level > tree.depth()) return err::invalid_argument("mnodes: level out of range");
    std::string digests;
    digests.reserve(blob->size());
    for (std::size_t off = 0; off < blob->size(); off += 8) {
      std::uint64_t index = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        index = (index << 8) | static_cast<std::uint8_t>((*blob)[off + b]);
      }
      if (index >= (std::size_t{1} << level)) {
        return err::invalid_argument("mnodes: node out of range");
      }
      std::uint64_t digest = tree.node(level, static_cast<std::size_t>(index));
      for (std::size_t b = 8; b-- > 0;) {
        digests.push_back(static_cast<char>((digest >> (8 * b)) & 0xFF));
      }
    }
    return Value::of_string(std::move(digests), "digests");
  });
  service->add("mpull", [state](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 4) {
      return err::invalid_argument("mpull(shard, shards, buckets, bucket)");
    }
    std::int64_t args[4];
    for (std::size_t i = 0; i < 4; ++i) {
      auto value = params[i].as_int();
      if (!value.ok()) return value.error();
      args[i] = *value;
    }
    std::size_t buckets = merkle_bucket_count(static_cast<std::size_t>(args[2]));
    auto bucket = static_cast<std::size_t>(args[3]);
    if (bucket >= buckets) return err::invalid_argument("mpull: bucket out of range");
    auto snapshot = state->shard_snapshot(static_cast<std::size_t>(args[0]),
                                          static_cast<std::size_t>(args[1]));
    std::vector<VersionedEntry> out;
    for (VersionedEntry& entry : snapshot) {
      if (bucket_of_key(entry.key, buckets) == bucket) out.push_back(std::move(entry));
    }
    return Value::of_string(encode_entries(out), "entries");
  });
  return service;
}

// ---- pairwise anti-entropy exchange --------------------------------------------

namespace {

std::vector<Value> shard_params(std::size_t shard, std::size_t shard_count) {
  return {Value::of_int(static_cast<std::int64_t>(shard), "shard"),
          Value::of_int(static_cast<std::int64_t>(shard_count), "shards")};
}

}  // namespace

net::BatchItem vset_item(const VersionedEntry& entry) {
  net::BatchItem item;
  item.operation = "vset";
  item.params.push_back(Value::of_string(entry.key, "key"));
  item.params.push_back(Value::of_string(entry.value, "value"));
  item.params.push_back(
      Value::of_int(static_cast<std::int64_t>(entry.version.ts), "ts"));
  item.params.push_back(
      Value::of_int(static_cast<std::int64_t>(entry.version.writer), "writer"));
  item.params.push_back(Value::of_bool(entry.deleted, "deleted"));
  return item;
}

Result<ShardSyncStats> sync_shard_with_peer(net::Channel& peer, StateStore& local,
                                            std::size_t shard,
                                            std::size_t shard_count) {
  ShardSyncStats stats;
  const std::vector<Value> params = shard_params(shard, shard_count);
  auto remote_digest = peer.invoke("digest", params);
  if (!remote_digest.ok()) {
    return remote_digest.error().context("anti-entropy digest, shard " +
                                         std::to_string(shard));
  }
  auto digest_value = remote_digest->as_int();
  if (!digest_value.ok()) return digest_value.error();
  if (static_cast<std::uint64_t>(*digest_value) ==
      local.shard_digest(shard, shard_count)) {
    return stats;  // replicas already byte-equal
  }
  stats.differed = true;

  // Pull the peer's shard and LWW-merge it; newer local entries survive.
  auto blob = peer.invoke("pull", params);
  if (!blob.ok()) {
    return blob.error().context("anti-entropy pull, shard " + std::to_string(shard));
  }
  auto blob_str = blob->as_string();
  if (!blob_str.ok()) return blob_str.error();
  auto entries = decode_entries(*blob_str);
  if (!entries.ok()) return entries.error();
  stats.pulled = entries->size();
  for (const VersionedEntry& entry : *entries) {
    if (local.apply(entry)) ++stats.merged;
  }

  // Push the merged shard back in batched frames; the peer's LWW merge
  // drops anything it already holds.
  auto snapshot = local.shard_snapshot(shard, shard_count);
  if (!snapshot.empty()) {
    if (auto status = push_entries_batched(
            peer, snapshot, "anti-entropy push, shard " + std::to_string(shard));
        !status.ok()) {
      return status.error();
    }
    stats.pushed = snapshot.size();
  }
  return stats;
}

Status push_entries_batched(net::Channel& peer,
                            std::span<const VersionedEntry> entries,
                            std::string_view context) {
  for (std::size_t offset = 0; offset < entries.size();
       offset += net::kMaxBatchCalls) {
    const std::size_t count =
        std::min<std::size_t>(net::kMaxBatchCalls, entries.size() - offset);
    std::vector<net::BatchItem> calls;
    calls.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      calls.push_back(vset_item(entries[offset + i]));
    }
    std::vector<Result<Value>> results;
    if (auto status = peer.invoke_batch(calls, results); !status.ok()) {
      return status.error().context(std::string(context));
    }
    for (const auto& result : results) {
      if (!result.ok()) return result.error().context(std::string(context));
    }
  }
  return Status::success();
}

// ---- DvmNode -------------------------------------------------------------------

DvmNode::DvmNode(container::Container& container)
    : container_(container),
      state_(std::make_shared<StateStore>()),
      service_(make_state_service(state_, writer_id(container.name()))) {}

Status DvmNode::start() {
  if (server_.has_value()) return Status::success();
  auto handle = net::serve_xdr(network(), host(), kStatePort, service_);
  if (!handle.ok()) return handle.error().context("dvm node " + name());
  server_.emplace(std::move(*handle));
  return Status::success();
}

void DvmNode::stop() { server_.reset(); }

net::Endpoint state_endpoint(std::string_view node) {
  return net::Endpoint{
      .scheme = "xdr", .host = std::string(node), .port = kStatePort, .path = ""};
}

Result<Value> DvmNode::invoke_on(DvmNode& target, std::string_view operation,
                                 std::span<const Value> params) {
  return open_state_channel(target)->invoke(operation, params);
}

std::unique_ptr<net::Channel> DvmNode::open_state_channel(DvmNode& target) {
  return net::make_xdr_channel(network(), host(), state_endpoint(target.name()));
}

Status DvmNode::remote_set(DvmNode& target, std::string_view key,
                           std::string_view value) {
  std::vector<Value> params{Value::of_string(std::string(key), "key"),
                            Value::of_string(std::string(value), "value")};
  auto result = invoke_on(target, "set", params);
  if (!result.ok()) return result.error();
  return Status::success();
}

Status DvmNode::remote_set_batch(DvmNode& target, std::span<const KV> writes) {
  if (writes.empty()) return Status::success();
  std::vector<net::BatchItem> calls;
  calls.reserve(writes.size());
  for (const KV& kv : writes) {
    net::BatchItem item;
    item.operation = "set";
    item.params.push_back(Value::of_string(std::string(kv.key), "key"));
    item.params.push_back(Value::of_string(std::string(kv.value), "value"));
    calls.push_back(std::move(item));
  }
  std::vector<Result<Value>> results;
  if (auto status = open_state_channel(target)->invoke_batch(calls, results);
      !status.ok()) {
    return status.error().context("batched set to " + target.name());
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return results[i].error().context("batched set of '" +
                                        std::string(writes[i].key) + "'");
    }
  }
  return Status::success();
}

Result<std::string> DvmNode::remote_get(DvmNode& target, std::string_view key) {
  std::vector<Value> params{Value::of_string(std::string(key), "key")};
  auto result = invoke_on(target, "get", params);
  if (!result.ok()) return result.error();
  return result->as_string();
}

Status DvmNode::remote_ping(DvmNode& target) {
  auto result = invoke_on(target, "ping", {});
  if (!result.ok()) return result.error();
  return Status::success();
}

Status DvmNode::remote_del(DvmNode& target, std::string_view key) {
  std::vector<Value> params{Value::of_string(std::string(key), "key")};
  auto result = invoke_on(target, "del", params);
  if (!result.ok()) return result.error();
  return Status::success();
}

Result<bool> DvmNode::remote_vset(DvmNode& target, const VersionedEntry& entry) {
  net::BatchItem item = vset_item(entry);
  auto result = invoke_on(target, "vset", item.params);
  if (!result.ok()) return result.error();
  return result->as_bool();
}

Result<VersionedEntry> DvmNode::remote_vget(DvmNode& target, std::string_view key) {
  std::vector<Value> params{Value::of_string(std::string(key), "key")};
  auto result = invoke_on(target, "vget", params);
  if (!result.ok()) return result.error();
  auto blob = result->as_string();
  if (!blob.ok()) return blob.error();
  auto entries = decode_entries(*blob);
  if (!entries.ok()) return entries.error();
  if (entries->size() != 1) {
    return err::parse("vget: expected one entry, got " +
                      std::to_string(entries->size()));
  }
  return std::move(entries->front());
}

Status DvmNode::remote_vset_batch(DvmNode& target,
                                  std::span<const VersionedEntry> entries) {
  if (entries.empty()) return Status::success();
  std::vector<net::BatchItem> calls;
  calls.reserve(entries.size());
  for (const VersionedEntry& entry : entries) calls.push_back(vset_item(entry));
  auto channel = open_state_channel(target);
  std::vector<Result<Value>> results;
  if (auto status = channel->invoke_batch(calls, results); !status.ok()) {
    return status.error().context("batched vset to " + target.name());
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return results[i].error().context("batched vset of '" + entries[i].key + "'");
    }
  }
  return Status::success();
}

}  // namespace h2::dvm
