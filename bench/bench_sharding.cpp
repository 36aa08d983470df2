// EXP-SHARD: the sharded coherency mode's scaling claim made measurable.
// Full synchrony pays O(M) messages per write (every member gets a copy);
// the consistent-hash sharded mode pays O(R) (only the R shard owners do),
// so the per-write wire cost must stay flat as the cluster grows from 64
// to 1024 nodes while full synchrony's grows linearly. Also reports the
// per-round anti-entropy cost (O(shards·R) digest exchanges) and a
// convergence check: a manually diverged replica is repaired in one round.
//
// EXP-HANDOFF rides in the same binary: the repair-bandwidth claim
// (Merkle anti-entropy moves O(diff) bytes where a whole-shard exchange
// moves the whole shard twice — measured as SimNetwork byte deltas at 1%
// divergence)
// and the bounded-rebalance claim (a node join against a token-bucket
// budget leaves foreground write latency near baseline, where the
// unthrottled join stalls one tick for the whole handoff).
//
// Standalone binary (not google-benchmark): the quantities of interest are
// exact deterministic message counts from SimNetwork::stats(), not wall
// times, and the report is a hand-rolled JSON schema diffable across
// commits.
//
// Usage: bench_sharding [--writes N] [--quick] [--out FILE]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "dvm/merkle.hpp"
#include "plugins/standard.hpp"
#include "transport/rpc.hpp"
#include "util/rng.hpp"

namespace {

using namespace h2;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kShards = 256;

// Loop-posted anti-entropy; the DVM loop is eager here (no driver), so
// the completion lands before post_anti_entropy returns.
Result<dvm::AntiEntropyReport> run_anti_entropy(dvm::Dvm& dvm) {
  std::optional<Result<dvm::AntiEntropyReport>> outcome;
  dvm.post_anti_entropy(
      [&outcome](Result<dvm::AntiEntropyReport> r) { outcome = std::move(r); });
  if (!outcome.has_value()) return err::internal("anti-entropy never completed");
  return std::move(*outcome);
}

struct Row {
  std::size_t nodes = 0;
  double full_sync_msgs_per_write = 0;
  double sharded_msgs_per_write = 0;
  double ratio = 0;  ///< full synchrony / sharded
  std::uint64_t sharded_ae_round_msgs = 0;
};

struct Convergence {
  bool diverged = false;
  std::uint64_t repaired = 0;
  bool converged_after_one_round = false;
};

/// One cluster under test: M containers enrolled in a DVM running the
/// given protocol over a fresh SimNetwork.
struct Cluster {
  net::SimNetwork net;
  kernel::PluginRepository repo;
  std::vector<std::unique_ptr<container::Container>> containers;
  std::unique_ptr<dvm::Dvm> dvm;

  Cluster(std::unique_ptr<dvm::CoherencyProtocol> protocol, std::size_t nodes) {
    (void)plugins::register_standard_plugins(repo);
    dvm = std::make_unique<dvm::Dvm>("bench", std::move(protocol));
    for (std::size_t i = 0; i < nodes; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = *net.add_host(name);
      containers.push_back(
          std::make_unique<container::Container>(name, repo, net, host));
      if (!dvm->add_node(*containers.back()).ok()) {
        std::fprintf(stderr, "add_node %s failed\n", name.c_str());
        std::exit(1);
      }
    }
  }

  /// Messages per write over `writes` single-key sets from rotating origins.
  double msgs_per_write(std::size_t writes) {
    Rng rng(7);
    net.reset_stats();
    for (std::size_t i = 0; i < writes; ++i) {
      const auto& origin = containers[rng.next_below(containers.size())]->name();
      std::string key = "bench/key-" + std::to_string(i);
      std::string value = "v";
      value += std::to_string(i);
      if (!dvm->set(origin, key, value).ok()) {
        std::fprintf(stderr, "set %s from %s failed\n", key.c_str(), origin.c_str());
        std::exit(1);
      }
    }
    return static_cast<double>(net.stats().messages) / static_cast<double>(writes);
  }
};

Row measure(std::size_t nodes, std::size_t writes) {
  Row row;
  row.nodes = nodes;
  {
    Cluster full(dvm::make_full_synchrony(), nodes);
    row.full_sync_msgs_per_write = full.msgs_per_write(writes);
  }
  {
    Cluster sharded(dvm::make_sharded(dvm::ShardConfig{.shards = kShards,
                                                       .replicas = kReplicas}),
                    nodes);
    row.sharded_msgs_per_write = sharded.msgs_per_write(writes);
    sharded.net.reset_stats();
    if (!run_anti_entropy(*sharded.dvm).ok()) {
      std::fprintf(stderr, "anti_entropy failed at M=%zu\n", nodes);
      std::exit(1);
    }
    row.sharded_ae_round_msgs = sharded.net.stats().messages;
  }
  row.ratio = row.full_sync_msgs_per_write / row.sharded_msgs_per_write;
  return row;
}

Convergence check_convergence() {
  Convergence out;
  Cluster cluster(dvm::make_sharded(dvm::ShardConfig{.shards = 16, .replicas = 3}), 8);
  auto& dvm = *cluster.dvm;
  for (int i = 0; i < 32; ++i) {
    std::string key = "conv/" + std::to_string(i);
    if (!dvm.set("n0", key, "v").ok()) return out;
  }
  // Hand one replica of one key a newer version behind the protocol's back.
  const dvm::ShardMap* map = dvm.shard_map();
  auto owners = map->owners(map->shard_of("conv/0"));
  auto& store = dvm.member(owners.back())->state();
  auto version = store.version_of("conv/0");
  if (!version.has_value()) return out;
  store.apply({"conv/0", "newer", {version->ts + 50, version->writer}, false});
  out.diverged = true;

  auto report = run_anti_entropy(dvm);
  if (!report.ok()) return out;
  out.repaired = report->entries_repaired;
  auto second = run_anti_entropy(dvm);
  out.converged_after_one_round = second.ok() && second->shards_divergent == 0;
  return out;
}

Result<dvm::HintReplayReport> run_hint_replay(dvm::Dvm& dvm) {
  std::optional<Result<dvm::HintReplayReport>> outcome;
  dvm.post_hint_replay(
      [&outcome](Result<dvm::HintReplayReport> r) { outcome = std::move(r); });
  if (!outcome.has_value()) return err::internal("hint replay never completed");
  return std::move(*outcome);
}

// ---- EXP-HANDOFF: repair bandwidth -------------------------------------------

struct RepairBandwidth {
  std::size_t keys = 0;
  std::size_t diverged = 0;
  std::size_t buckets = 0;
  std::uint64_t flat_bytes = 0;    ///< whole-shard digest+pull+push (whole_shard_sync)
  std::uint64_t merkle_bytes = 0;  ///< top-down descent + diverged buckets only
  double ratio = 0;                ///< merkle / flat
  bool both_converged = false;
};

/// The baseline the Merkle exchange is measured against: probe the root
/// and pull the one bucket of a one-bucket tree (the shard's digest and
/// the whole shard), LWW-merge, then push the whole merged shard back —
/// what a repair must send when it cannot tell which entries the peer
/// lacks.
bool whole_shard_sync(net::Channel& peer, dvm::StateStore& local) {
  std::vector<Value> params{Value::of_int(0, "shard"), Value::of_int(1, "shards"),
                            Value::of_int(1, "buckets"), Value::of_int(0, "level"),
                            Value::of_int(0, "index")};
  auto root = peer.invoke("mnode", params);
  if (!root.ok() || !root->as_int().ok()) return false;
  if (static_cast<std::uint64_t>(*root->as_int()) ==
      dvm::build_merkle_tree(local, 0, 1, 1).root()) {
    return true;
  }
  params.resize(3);
  params.push_back(Value::of_int(0, "bucket"));
  auto blob = peer.invoke("mpull", params);
  if (!blob.ok() || !blob->as_string().ok()) return false;
  auto entries = dvm::decode_entries(*blob->as_string());
  if (!entries.ok()) return false;
  for (const dvm::VersionedEntry& entry : *entries) local.apply(entry);
  std::vector<net::BatchItem> calls;
  for (const dvm::VersionedEntry& entry : local.shard_snapshot(0, 1)) {
    calls.push_back(dvm::vset_item(entry));
  }
  return dvm::push_batch(peer, calls, "whole-shard push", [](std::size_t) {
           return std::string("whole-shard push");
         }).ok();
}

/// One client/server pair on a fresh SimNetwork; `diverged` of `keys`
/// entries hold a newer version on the server only. Returns the total
/// wire bytes the given exchange spent converging them, via `out_ok`.
template <typename Sync>
std::uint64_t measure_exchange(std::size_t keys, std::size_t diverged, Sync sync,
                               bool* out_ok) {
  net::SimNetwork net;
  auto client = *net.add_host("client");
  auto server = *net.add_host("server");
  auto remote = std::make_shared<dvm::StateStore>();
  dvm::StateStore local;
  const std::string value(64, 'x');
  for (std::size_t i = 0; i < keys; ++i) {
    dvm::VersionedEntry entry{"k/" + std::to_string(i), value, {10 + i, 1}, false};
    remote->apply(entry);
    local.apply(entry);
  }
  const std::size_t stride = diverged > 0 ? keys / diverged : keys;
  for (std::size_t i = 0; i < keys; i += stride) {
    remote->apply({"k/" + std::to_string(i), value + "-new", {100000 + i, 2}, false});
  }
  auto handle = net::serve_xdr(net, server, 9001,
                               dvm::make_state_service(remote, /*writer=*/1));
  if (!handle.ok()) std::exit(1);
  auto channel =
      net::make_xdr_channel(net, client, *net::Endpoint::parse("xdr://server:9001"));
  net.reset_stats();
  bool ok = sync(*channel, local);
  *out_ok = ok && local.shard_snapshot(0, 1) == remote->shard_snapshot(0, 1);
  return net.stats().bytes;
}

RepairBandwidth measure_repair_bandwidth() {
  // Full size even under --quick: the in-memory exchange is cheap, and at
  // smaller stores the descent's fixed frame overhead dominates, which
  // would make the ratio a measurement of XDR framing, not of O(diff).
  RepairBandwidth out;
  out.keys = 10'000;
  out.diverged = out.keys / 100;  // 1% divergence
  out.buckets = 1024;
  bool flat_ok = false, merkle_ok = false;
  out.flat_bytes = measure_exchange(out.keys, out.diverged, whole_shard_sync, &flat_ok);
  out.merkle_bytes = measure_exchange(
      out.keys, out.diverged,
      [&out](net::Channel& peer, dvm::StateStore& local) {
        return dvm::merkle_sync_shard_with_peer(peer, local, 0, 1, out.buckets).ok();
      },
      &merkle_ok);
  out.both_converged = flat_ok && merkle_ok;
  out.ratio = out.flat_bytes > 0
                  ? static_cast<double>(out.merkle_bytes) / out.flat_bytes
                  : 0;
  return out;
}

// ---- EXP-HANDOFF: bounded rebalance ------------------------------------------

struct Throttle {
  double baseline_p99_us = 0;     ///< steady state, no membership change
  double unthrottled_p99_us = 0;  ///< join with an unlimited budget
  double throttled_p99_us = 0;    ///< join against the token bucket
  double unthrottled_worst_us = 0;
  double throttled_worst_us = 0;
  std::size_t throttled_deferred = 0;  ///< handoff entries parked for replay
};

double percentile(std::vector<Nanos> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const std::size_t index =
      std::min(samples.size() - 1,
               static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return static_cast<double>(samples[index]) / 1000.0;  // ns → µs
}

/// 200 foreground ticks (one write + one budget's worth of hint replay
/// each), a node joining at the midpoint when `join_mid`. Per-tick
/// virtual-time costs land in `ticks`; returns the hints the join parked.
std::size_t run_tick_schedule(dvm::ShardConfig config, bool join_mid,
                              std::vector<Nanos>& ticks) {
  constexpr std::size_t kTicks = 200;
  Cluster cluster(dvm::make_sharded(config), 8);
  auto& dvm = *cluster.dvm;
  const std::string value(64, 'x');
  for (std::size_t i = 0; i < 2000; ++i) {
    if (!dvm.set("n0", "pre/" + std::to_string(i), value).ok()) std::exit(1);
  }
  std::unique_ptr<container::Container> joiner;
  std::size_t deferred = 0;
  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    const Nanos start = cluster.net.clock().now();
    if (join_mid && tick == kTicks / 2) {
      auto host = *cluster.net.add_host("n8");
      joiner = std::make_unique<container::Container>("n8", cluster.repo,
                                                      cluster.net, host);
      if (!dvm.add_node(*joiner).ok()) std::exit(1);
      deferred = dvm.pending_hints();
    }
    if (!dvm.set("n1", "fg/" + std::to_string(tick), value).ok()) std::exit(1);
    if (!run_hint_replay(dvm).ok()) std::exit(1);
    ticks.push_back(cluster.net.clock().now() - start);
  }
  return deferred;
}

Throttle measure_throttle() {
  Throttle out;
  dvm::ShardConfig unlimited{.shards = 32, .replicas = 3};
  dvm::ShardConfig budgeted{.shards = 32, .replicas = 3};
  // In the serialized loop model a tick's repair slice delays the tick's
  // foreground write one-for-one. Replay batches all of a pass's legs into
  // one frame per target, so the byte axis is what sizes the slice: ~2 KB
  // is roughly twenty entries folded into two or three frames — about the
  // round-trip cost of one write's own R-owner fan-out. The message axis
  // just caps frames; it must stay >= R or a hint whose owners are all
  // remote can never retire in a single pass.
  budgeted.rebalance_bytes_per_tick = 2048;
  budgeted.rebalance_msgs_per_tick = 8;

  std::vector<Nanos> baseline, unthrottled, throttled;
  run_tick_schedule(unlimited, /*join_mid=*/false, baseline);
  run_tick_schedule(unlimited, /*join_mid=*/true, unthrottled);
  out.throttled_deferred = run_tick_schedule(budgeted, /*join_mid=*/true, throttled);

  out.baseline_p99_us = percentile(baseline, 0.99);
  out.unthrottled_p99_us = percentile(unthrottled, 0.99);
  out.throttled_p99_us = percentile(throttled, 0.99);
  out.unthrottled_worst_us = percentile(unthrottled, 1.0);
  out.throttled_worst_us = percentile(throttled, 1.0);
  return out;
}

void write_json(const char* path, const std::vector<Row>& rows,
                const Convergence& conv, const RepairBandwidth& repair,
                const Throttle& throttle, std::size_t writes) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"sharding\",\n");
  std::fprintf(f,
               "  \"config\": {\"replicas\": %zu, \"shards\": %zu, \"writes\": %zu},\n",
               kReplicas, kShards, writes);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"full_synchrony_msgs_per_write\": %.2f, "
                 "\"sharded_msgs_per_write\": %.2f, \"ratio\": %.1f, "
                 "\"sharded_ae_round_msgs\": %llu}%s\n",
                 r.nodes, r.full_sync_msgs_per_write, r.sharded_msgs_per_write,
                 r.ratio, static_cast<unsigned long long>(r.sharded_ae_round_msgs),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"convergence\": {\"diverged\": %s, \"entries_repaired\": %llu, "
               "\"converged_after_one_round\": %s},\n",
               conv.diverged ? "true" : "false",
               static_cast<unsigned long long>(conv.repaired),
               conv.converged_after_one_round ? "true" : "false");
  std::fprintf(f,
               "  \"repair_bandwidth\": {\"keys\": %zu, \"diverged\": %zu, "
               "\"buckets\": %zu, \"flat_bytes\": %llu, \"merkle_bytes\": %llu, "
               "\"ratio\": %.4f, \"both_converged\": %s},\n",
               repair.keys, repair.diverged, repair.buckets,
               static_cast<unsigned long long>(repair.flat_bytes),
               static_cast<unsigned long long>(repair.merkle_bytes), repair.ratio,
               repair.both_converged ? "true" : "false");
  std::fprintf(f,
               "  \"rebalance_throttle\": {\"baseline_p99_us\": %.1f, "
               "\"unthrottled_p99_us\": %.1f, \"throttled_p99_us\": %.1f, "
               "\"unthrottled_worst_us\": %.1f, \"throttled_worst_us\": %.1f, "
               "\"throttled_deferred\": %zu}\n}\n",
               throttle.baseline_p99_us, throttle.unthrottled_p99_us,
               throttle.throttled_p99_us, throttle.unthrottled_worst_us,
               throttle.throttled_worst_us, throttle.throttled_deferred);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t writes = 64;
  bool quick = false;
  const char* out = "BENCH_sharding.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--writes") == 0 && i + 1 < argc) {
      writes = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_sharding [--writes N] [--quick] [--out FILE]\n");
      return 2;
    }
  }

  std::vector<std::size_t> sizes = quick ? std::vector<std::size_t>{64}
                                         : std::vector<std::size_t>{64, 256, 1024};
  std::vector<Row> rows;
  for (std::size_t nodes : sizes) {
    // Fewer writes at the largest size: full synchrony's O(M) per-write
    // cost makes each write 1000+ calls there, and the count is exact
    // regardless of sample size.
    const std::size_t n = nodes >= 1024 ? std::min<std::size_t>(writes, 16) : writes;
    Row row = measure(nodes, n);
    rows.push_back(row);
    std::printf(
        "M=%-5zu full-synchrony %8.1f msgs/write   sharded %5.1f msgs/write   "
        "(%.0fx)   ae-round %llu msgs\n",
        row.nodes, row.full_sync_msgs_per_write, row.sharded_msgs_per_write,
        row.ratio, static_cast<unsigned long long>(row.sharded_ae_round_msgs));
  }

  Convergence conv = check_convergence();
  std::printf("convergence: diverged=%d repaired=%llu one-round=%d\n",
              conv.diverged, static_cast<unsigned long long>(conv.repaired),
              conv.converged_after_one_round);

  RepairBandwidth repair = measure_repair_bandwidth();
  std::printf(
      "repair-bandwidth: %zu keys, %zu diverged: flat %llu B, merkle %llu B "
      "(%.1f%%)\n",
      repair.keys, repair.diverged,
      static_cast<unsigned long long>(repair.flat_bytes),
      static_cast<unsigned long long>(repair.merkle_bytes), repair.ratio * 100);

  Throttle throttle = measure_throttle();
  std::printf(
      "rebalance-throttle: p99 baseline %.1fus, unthrottled join %.1fus "
      "(worst %.1fus), throttled join %.1fus (worst %.1fus, %zu deferred)\n",
      throttle.baseline_p99_us, throttle.unthrottled_p99_us,
      throttle.unthrottled_worst_us, throttle.throttled_p99_us,
      throttle.throttled_worst_us, throttle.throttled_deferred);

  write_json(out, rows, conv, repair, throttle, writes);
  std::printf("wrote %s\n", out);
  int failures = 0;
  if (!conv.diverged || conv.repaired == 0 || !conv.converged_after_one_round) {
    std::fprintf(stderr, "FAIL: anti-entropy did not repair the planted divergence\n");
    ++failures;
  }
  if (!repair.both_converged || repair.ratio > 0.10) {
    std::fprintf(stderr,
                 "FAIL: Merkle repair must converge (converged=%s) and move "
                 "<=10%% of the flat exchange's bytes (moved %.1f%%)\n",
                 repair.both_converged ? "yes" : "no", repair.ratio * 100);
    ++failures;
  }
  if (throttle.throttled_p99_us > 2 * throttle.baseline_p99_us) {
    std::fprintf(stderr,
                 "FAIL: throttled-join write p99 (%.1fus) above 2x baseline "
                 "(%.1fus)\n",
                 throttle.throttled_p99_us, throttle.baseline_p99_us);
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}
