// EXP-BATCH — what adaptive RPC batching buys on the wire paths. A batch
// packs B calls into ONE wire message (an "H2RB" XDR frame or one SOAP
// envelope with repeated operation elements), so the per-message costs —
// frame/envelope assembly, the network round trip, HTTP headers, reply
// demux — are paid once instead of B times, while per-call costs
// (marshal/dispatch/unmarshal of each sub-call) are unchanged.
//
//   BM_XdrSingles/B vs BM_XdrBatch/B    B "add" calls one-by-one vs one
//                                       H2RB frame; the headline claim is
//                                       the B=64 items/s ratio (>=5x)
//   BM_SoapSingles/B vs BM_SoapBatch/B  same over SOAP 1.1 + HTTP, where
//                                       per-message overhead (envelope,
//                                       headers, HTTP framing) is largest
//   BM_LocalSingles/B vs BM_LocalBatch/B  in-process floor: no wire, so
//                                       batching must cost ~nothing
//   BM_Coherency*Storm*                 64-key write storm through the
//                                       DVM: per-key update() fan-out vs
//                                       one coalesced update_batch();
//                                       "messages" counts wire messages
//                                       per storm (N*(M-1)*2 vs (M-1)*2
//                                       for full synchrony on M members)
#include <benchmark/benchmark.h>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "transport/rpc.hpp"

namespace {

using namespace h2;

constexpr std::uint16_t kXdrPort = 9400;
constexpr std::uint16_t kHttpPort = 9480;

struct Wire {
  net::SimNetwork net;
  net::HostId client = 0, server = 0;
  std::shared_ptr<net::DispatcherMux> mux;
  std::optional<net::ServerHandle> handle;
  std::optional<net::SoapHttpServer> http;

  Wire() {
    client = *net.add_host("client");
    server = *net.add_host("server");
    mux = std::make_shared<net::DispatcherMux>();
    mux->add("add", [](std::span<const Value> params) -> Result<Value> {
      auto n = params.empty() ? Result<std::int64_t>(std::int64_t{0})
                              : params[0].as_int();
      if (!n.ok()) return n.error();
      return Value::of_int(*n + 1, "return");
    });
    handle.emplace(*net::serve_xdr(net, server, kXdrPort, mux));
    http.emplace(net, server, kHttpPort);
    (void)http->start();
    (void)http->mount("svc", mux);
  }
};

std::vector<net::BatchItem> make_items(std::size_t count) {
  std::vector<net::BatchItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::BatchItem item;
    item.operation = "add";
    item.params.push_back(Value::of_int(static_cast<std::int64_t>(i), "n"));
    items.push_back(std::move(item));
  }
  return items;
}

// One iteration = B logical calls, so items/s compares across shapes.
// CPU time measures endpoint cost; the "wire_calls_per_sec" counter is
// throughput against the VIRTUAL clock (100us links), i.e. what the
// batch saves on an actual network — one round trip instead of B.
void finish(benchmark::State& state, net::SimNetwork* net, Nanos wire_ns,
            std::size_t count) {
  const std::int64_t items = static_cast<std::int64_t>(state.iterations()) *
                             static_cast<std::int64_t>(count);
  state.SetItemsProcessed(items);
  if (net != nullptr && wire_ns > 0) {
    state.counters["wire_calls_per_sec"] =
        static_cast<double>(items) / (static_cast<double>(wire_ns) * 1e-9);
  }
}

void drive_singles(benchmark::State& state, net::Channel& channel,
                   std::size_t count, net::SimNetwork* net = nullptr) {
  const std::vector<Value> params{Value::of_int(1, "n")};
  const Nanos wire_start = net != nullptr ? net->clock().now() : 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      auto result = channel.invoke("add", params);
      if (!result.ok()) {
        state.SkipWithError(result.error().message().c_str());
        return;
      }
      benchmark::DoNotOptimize(result);
    }
  }
  finish(state, net, net != nullptr ? net->clock().now() - wire_start : 0, count);
}

void drive_batch(benchmark::State& state, net::Channel& channel,
                 std::size_t count, net::SimNetwork* net = nullptr) {
  const std::vector<net::BatchItem> items = make_items(count);
  std::vector<Result<Value>> results;
  const Nanos wire_start = net != nullptr ? net->clock().now() : 0;
  for (auto _ : state) {
    auto status = channel.invoke_batch(items, results);
    if (!status.ok()) {
      state.SkipWithError(status.error().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(results);
  }
  finish(state, net, net != nullptr ? net->clock().now() - wire_start : 0, count);
}

void BM_XdrSingles(benchmark::State& state) {
  Wire wire;
  auto channel =
      net::make_xdr_channel(wire.net, wire.client, {"xdr", "server", kXdrPort, ""});
  drive_singles(state, *channel, static_cast<std::size_t>(state.range(0)),
                &wire.net);
}
BENCHMARK(BM_XdrSingles)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_XdrBatch(benchmark::State& state) {
  Wire wire;
  auto channel =
      net::make_xdr_channel(wire.net, wire.client, {"xdr", "server", kXdrPort, ""});
  drive_batch(state, *channel, static_cast<std::size_t>(state.range(0)),
              &wire.net);
}
BENCHMARK(BM_XdrBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_SoapSingles(benchmark::State& state) {
  Wire wire;
  auto channel = net::make_soap_channel(
      wire.net, wire.client,
      *net::Endpoint::parse("http://server:9480/svc"), "urn:bench");
  drive_singles(state, *channel, static_cast<std::size_t>(state.range(0)),
                &wire.net);
}
BENCHMARK(BM_SoapSingles)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_SoapBatch(benchmark::State& state) {
  Wire wire;
  auto channel = net::make_soap_channel(
      wire.net, wire.client,
      *net::Endpoint::parse("http://server:9480/svc"), "urn:bench");
  drive_batch(state, *channel, static_cast<std::size_t>(state.range(0)),
              &wire.net);
}
BENCHMARK(BM_SoapBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_LocalSingles(benchmark::State& state) {
  Wire wire;
  auto channel = net::make_local_channel(*wire.mux);
  drive_singles(state, *channel, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_LocalSingles)->Arg(64);

void BM_LocalBatch(benchmark::State& state) {
  Wire wire;
  auto channel = net::make_local_channel(*wire.mux);
  drive_batch(state, *channel, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_LocalBatch)->Arg(64);

// ---- coherency write storms -------------------------------------------------

constexpr std::size_t kStormKeys = 64;
constexpr std::size_t kStormNodes = 4;

struct Cluster {
  net::SimNetwork net;
  kernel::PluginRepository repo;
  std::vector<std::unique_ptr<container::Container>> containers;
  std::unique_ptr<dvm::Dvm> dvm;
  std::vector<std::string> keys;
  std::vector<dvm::KV> writes;

  explicit Cluster(std::unique_ptr<dvm::CoherencyProtocol> protocol) {
    (void)plugins::register_standard_plugins(repo);
    dvm = std::make_unique<dvm::Dvm>("bench", std::move(protocol));
    for (std::size_t i = 0; i < kStormNodes; ++i) {
      std::string name = "n" + std::to_string(i);
      containers.push_back(std::make_unique<container::Container>(
          name, repo, net, *net.add_host(name)));
      (void)dvm->add_node(*containers.back());
    }
    for (std::size_t i = 0; i < kStormKeys; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      keys.push_back(std::move(key));
    }
    for (const std::string& key : keys) {
      writes.push_back({key, "v"});
    }
  }
};

void storm_singles(benchmark::State& state, Cluster& cluster) {
  const std::string origin = cluster.dvm->node_names()[0];
  std::uint64_t messages = 0, storms = 0;
  for (auto _ : state) {
    std::uint64_t before = cluster.net.stats().messages;
    for (const dvm::KV& kv : cluster.writes) {
      auto status = cluster.dvm->set(origin, kv.key, kv.value);
      if (!status.ok()) {
        state.SkipWithError(status.error().message().c_str());
        return;
      }
    }
    messages += cluster.net.stats().messages - before;
    ++storms;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStormKeys));
  if (storms > 0) {
    state.counters["messages"] =
        static_cast<double>(messages) / static_cast<double>(storms);
  }
}

void storm_batch(benchmark::State& state, Cluster& cluster) {
  const std::string origin = cluster.dvm->node_names()[0];
  std::uint64_t messages = 0, storms = 0;
  for (auto _ : state) {
    std::uint64_t before = cluster.net.stats().messages;
    auto status = cluster.dvm->set_batch(origin, cluster.writes);
    if (!status.ok()) {
      state.SkipWithError(status.error().message().c_str());
      return;
    }
    messages += cluster.net.stats().messages - before;
    ++storms;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStormKeys));
  if (storms > 0) {
    state.counters["messages"] =
        static_cast<double>(messages) / static_cast<double>(storms);
  }
}

void BM_CoherencyFullSyncStormSingles(benchmark::State& state) {
  Cluster cluster(dvm::make_full_synchrony());
  storm_singles(state, cluster);
}
BENCHMARK(BM_CoherencyFullSyncStormSingles);

void BM_CoherencyFullSyncStormBatch(benchmark::State& state) {
  Cluster cluster(dvm::make_full_synchrony());
  storm_batch(state, cluster);
}
BENCHMARK(BM_CoherencyFullSyncStormBatch);

void BM_CoherencyNeighborhoodStormSingles(benchmark::State& state) {
  Cluster cluster(dvm::make_neighborhood(1));
  storm_singles(state, cluster);
}
BENCHMARK(BM_CoherencyNeighborhoodStormSingles);

void BM_CoherencyNeighborhoodStormBatch(benchmark::State& state) {
  Cluster cluster(dvm::make_neighborhood(1));
  storm_batch(state, cluster);
}
BENCHMARK(BM_CoherencyNeighborhoodStormBatch);

void BM_CoherencyDecentralizedStormBatch(benchmark::State& state) {
  Cluster cluster(dvm::make_decentralized());
  storm_batch(state, cluster);
}
BENCHMARK(BM_CoherencyDecentralizedStormBatch);

}  // namespace

BENCHMARK_MAIN();
