// EXP-LOOKUP — Section 5's discovery spectrum: "centralized lookup
// services ... are easy to implement and use, but they introduce a single
// point of failure and a potential scalability bottleneck. ... a
// completely decentralized approach leads to a registration phase that is
// fully localized and does not involve any network traffic, whereas the
// discovery phase performs an active lookup that can be expensive."
//
// Measures registration cost and discovery cost (virtual time + messages)
// for all three strategies over a sweep of cluster sizes. Expected shape:
//   register: decentralized ~0, neighborhood ~k calls, centralized 1 call
//   lookup:   centralized 1 call; decentralized O(nodes) on miss-path;
//             neighborhood local within k, O(nodes) beyond.
#include <benchmark/benchmark.h>

#include "registry/lookup.hpp"
#include "util/rng.hpp"
#include "wsdl/descriptor.hpp"

namespace {

enum StrategyIndex : int { kCentralized = 0, kDecentralized = 1, kNeighborhood = 2 };

struct World {
  h2::net::SimNetwork net;
  std::vector<std::unique_ptr<h2::reg::RegistryNode>> nodes;
  std::vector<h2::reg::RegistryNode*> raw;
  std::unique_ptr<h2::reg::LookupStrategy> strategy;

  World(int strategy_index, std::size_t node_count) {
    for (std::size_t i = 0; i < node_count; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = net.add_host(name);
      nodes.push_back(std::make_unique<h2::reg::RegistryNode>(net, *host, net.clock()));
      (void)nodes.back()->start();
      raw.push_back(nodes.back().get());
    }
    switch (strategy_index) {
      case kCentralized:
        strategy = h2::reg::make_centralized_lookup(raw, 0);
        break;
      case kDecentralized:
        strategy = h2::reg::make_decentralized_lookup(raw);
        break;
      default:
        strategy = h2::reg::make_neighborhood_lookup(raw, 2);
        break;
    }
  }
};

h2::wsdl::Definitions make_service(const std::string& name) {
  h2::wsdl::ServiceDescriptor d;
  d.name = name;
  d.operations.push_back({"run", {}, h2::ValueKind::kString});
  std::vector<h2::wsdl::EndpointSpec> endpoints{
      {h2::wsdl::BindingKind::kXdr, "xdr://x:9500", {}}};
  return *h2::wsdl::generate(d, endpoints);
}

void BM_Register(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)),
              static_cast<std::size_t>(state.range(1)));
  h2::Rng rng(3);
  double virtual_us = 0;
  double messages = 0;
  int counter = 0;
  for (auto _ : state) {
    auto service = make_service("Svc" + std::to_string(counter++));
    std::size_t from = rng.next_below(world.raw.size());
    h2::Nanos t0 = world.net.clock().now();
    auto m0 = world.net.stats().messages;
    auto status = world.strategy->publish(from, service);
    if (!status.ok()) {
      state.SkipWithError(status.error().describe().c_str());
      return;
    }
    virtual_us += static_cast<double>(world.net.clock().now() - t0) / 1e3;
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["virtual_us_per_register"] =
      virtual_us / static_cast<double>(state.iterations());
  state.counters["messages_per_register"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel(std::string(world.strategy->name()) + "/nodes=" +
                 std::to_string(state.range(1)));
}
BENCHMARK(BM_Register)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy : {kCentralized, kDecentralized, kNeighborhood}) {
    for (int nodes : {4, 16, 64}) b->Args({strategy, nodes});
  }
});

void BM_Lookup(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)),
              static_cast<std::size_t>(state.range(1)));
  // One provider publishes from node 1; consumers look up from random nodes.
  auto status = world.strategy->publish(1, make_service("Target"));
  if (!status.ok()) {
    state.SkipWithError(status.error().describe().c_str());
    return;
  }
  h2::Rng rng(5);
  double virtual_us = 0;
  double messages = 0;
  for (auto _ : state) {
    std::size_t from = rng.next_below(world.raw.size());
    h2::Nanos t0 = world.net.clock().now();
    auto m0 = world.net.stats().messages;
    auto found = world.strategy->lookup(from, "TargetService");
    if (!found.ok()) {
      state.SkipWithError(found.error().describe().c_str());
      return;
    }
    virtual_us += static_cast<double>(world.net.clock().now() - t0) / 1e3;
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["virtual_us_per_lookup"] =
      virtual_us / static_cast<double>(state.iterations());
  state.counters["messages_per_lookup"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel(std::string(world.strategy->name()) + "/nodes=" +
                 std::to_string(state.range(1)));
}
BENCHMARK(BM_Lookup)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy : {kCentralized, kDecentralized, kNeighborhood}) {
    for (int nodes : {4, 16, 64}) b->Args({strategy, nodes});
  }
});

// Lookup miss: the worst case the paper warns about for active queries.
void BM_LookupMiss(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)), 16);
  double messages = 0;
  for (auto _ : state) {
    auto m0 = world.net.stats().messages;
    auto found = world.strategy->lookup(0, "GhostService");
    if (found.ok()) {
      state.SkipWithError("unexpected hit");
      return;
    }
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["messages_per_miss"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel(world.strategy->name());
}
BENCHMARK(BM_LookupMiss)->Apply([](benchmark::internal::Benchmark* b) {
  for (int strategy : {kCentralized, kDecentralized, kNeighborhood}) {
    b->Args({strategy});
  }
});

}  // namespace

BENCHMARK_MAIN();
