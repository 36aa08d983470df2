// EXP-COHER — Section 6's coherency trade-off: full synchrony "may be
// appropriate for relatively small DVMs running applications with many
// critical components"; the decentralized scheme "minimizes network
// traffic during state changes but introduces overheads for state
// inquiry" and suits Seti@home-like systems; neighborhood schemes sit
// between.
//
// Workload: a mixed stream of state operations with update fraction p
// (the rest are queries of random previously written keys, issued from
// random nodes). Swept: protocol x node count x update fraction.
// Reported in *virtual* time (network cost) per operation plus message
// counts. Expected crossovers:
//   - queries dominate (p small)  -> full synchrony cheapest
//   - updates dominate (p large)  -> decentralized cheapest
//   - neighborhood between, moving with k
//   - full synchrony's update cost grows linearly with node count
#include <benchmark/benchmark.h>

#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "util/rng.hpp"

namespace {

enum ProtocolIndex : int { kFullSync = 0, kDecentralized = 1, kNeighborhood = 2 };

std::unique_ptr<h2::dvm::CoherencyProtocol> make_protocol(int index) {
  switch (index) {
    case kFullSync: return h2::dvm::make_full_synchrony();
    case kDecentralized: return h2::dvm::make_decentralized();
    default: return h2::dvm::make_neighborhood(2);
  }
}

const char* protocol_label(int index) {
  switch (index) {
    case kFullSync: return "full-synchrony";
    case kDecentralized: return "decentralized";
    default: return "neighborhood(k=2)";
  }
}

struct World {
  h2::net::SimNetwork net;
  h2::kernel::PluginRepository repo;
  std::vector<std::unique_ptr<h2::container::Container>> containers;
  std::unique_ptr<h2::dvm::Dvm> dvm;

  World(int protocol, std::size_t nodes) {
    (void)h2::plugins::register_standard_plugins(repo);
    dvm = std::make_unique<h2::dvm::Dvm>("bench", make_protocol(protocol));
    for (std::size_t i = 0; i < nodes; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      auto host = net.add_host(name);
      containers.push_back(
          std::make_unique<h2::container::Container>(name, repo, net, *host));
      (void)dvm->add_node(*containers.back());
    }
  }
};

void BM_CoherencyMixedWorkload(benchmark::State& state) {
  int protocol = static_cast<int>(state.range(0));
  auto nodes = static_cast<std::size_t>(state.range(1));
  double update_fraction = static_cast<double>(state.range(2)) / 100.0;
  constexpr int kOpsPerIteration = 200;

  World world(protocol, nodes);
  auto names = world.dvm->node_names();
  h2::Rng rng(99);

  // Seed keys so queries have something to find.
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    std::string key = "key" + std::to_string(i);
    (void)world.dvm->set(names[rng.next_below(names.size())], key,
                         std::to_string(i));
    keys.push_back(key);
  }

  double virtual_us = 0;
  double messages = 0;
  for (auto _ : state) {
    h2::Nanos t0 = world.net.clock().now();
    auto m0 = world.net.stats().messages;
    for (int op = 0; op < kOpsPerIteration; ++op) {
      const std::string& origin = names[rng.next_below(names.size())];
      const std::string& key = keys[rng.next_below(keys.size())];
      if (rng.next_bool(update_fraction)) {
        auto status = world.dvm->set(origin, key, std::to_string(op));
        if (!status.ok()) {
          state.SkipWithError(status.error().describe().c_str());
          return;
        }
      } else {
        auto value = world.dvm->get(origin, key);
        if (!value.ok()) {
          state.SkipWithError(value.error().describe().c_str());
          return;
        }
      }
    }
    virtual_us += static_cast<double>(world.net.clock().now() - t0) / 1e3;
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  double total_ops = static_cast<double>(state.iterations()) * kOpsPerIteration;
  state.counters["virtual_us_per_op"] = virtual_us / total_ops;
  state.counters["messages_per_op"] = messages / total_ops;
  state.SetLabel(std::string(protocol_label(protocol)) + "/nodes=" +
                 std::to_string(nodes) + "/updates=" +
                 std::to_string(state.range(2)) + "%");
}
BENCHMARK(BM_CoherencyMixedWorkload)->Apply([](benchmark::internal::Benchmark* b) {
  for (int protocol : {kFullSync, kDecentralized, kNeighborhood}) {
    for (int nodes : {4, 16}) {
      for (int update_pct : {5, 50, 95}) b->Args({protocol, nodes, update_pct});
    }
  }
  b->Unit(benchmark::kMillisecond);
});

// Pure update and pure query costs vs node count — the raw scaling curves
// behind the crossover.
void BM_CoherencyPureOp(benchmark::State& state) {
  int protocol = static_cast<int>(state.range(0));
  auto nodes = static_cast<std::size_t>(state.range(1));
  bool update = state.range(2) == 1;

  World world(protocol, nodes);
  auto names = world.dvm->node_names();
  (void)world.dvm->set(names[0], "k", "v");

  double virtual_us = 0;
  double messages = 0;
  h2::Rng rng(7);
  for (auto _ : state) {
    const std::string& origin = names[rng.next_below(names.size())];
    h2::Nanos t0 = world.net.clock().now();
    auto m0 = world.net.stats().messages;
    if (update) {
      (void)world.dvm->set(origin, "k", "v2");
    } else {
      (void)world.dvm->get(origin, "k");
    }
    virtual_us += static_cast<double>(world.net.clock().now() - t0) / 1e3;
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["virtual_us_per_op"] = virtual_us / static_cast<double>(state.iterations());
  state.counters["messages_per_op"] = messages / static_cast<double>(state.iterations());
  state.SetLabel(std::string(protocol_label(protocol)) + "/" +
                 (update ? "update" : "query") + "/nodes=" + std::to_string(nodes));
}
BENCHMARK(BM_CoherencyPureOp)->Apply([](benchmark::internal::Benchmark* b) {
  for (int protocol : {kFullSync, kDecentralized, kNeighborhood}) {
    for (int nodes : {2, 8, 32}) {
      for (int update : {0, 1}) b->Args({protocol, nodes, update});
    }
  }
});

}  // namespace

BENCHMARK_MAIN();
