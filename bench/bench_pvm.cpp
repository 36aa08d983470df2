// EXP-PVM — the cost of the emulation layering of Fig 2. The paper argues
// plugin synergy gives "far superior" functionality; the implied bargain
// is that the layering overhead (hpvmd -> p2p -> network) stays a modest
// constant factor over using the transport plugin directly.
//
// Measures round-trip message cost at several payload sizes through:
//   - raw p2p plugin send+recv (the primitive)
//   - pvm_send + pvm_recv through hpvmd (the emulation)
// plus pvm spawn cost, local and remote. Expected shape: pvm/p2p real-time
// ratio < ~3x, identical virtual network time for same-size payloads
// (the emulation adds CPU layers, not wire bytes).
#include <benchmark/benchmark.h>

#include "pvm/hpvmd.hpp"

#include "plugins/mpi_comm.hpp"
#include "plugins/standard.hpp"
#include "util/rng.hpp"

namespace {

struct World {
  h2::net::SimNetwork net;
  h2::kernel::PluginRepository repo;
  std::vector<std::unique_ptr<h2::kernel::Kernel>> kernels;

  World() {
    (void)h2::plugins::register_standard_plugins(repo);
    (void)h2::pvm::register_pvm_plugin(repo);
    for (const char* name : {"hostA", "hostB"}) {
      auto host = net.add_host(name);
      kernels.push_back(std::make_unique<h2::kernel::Kernel>(name, repo, net, *host));
    }
    for (auto& k : kernels) {
      for (const char* p : {"p2p", "spawn", "table", "event", "hpvmd"}) {
        (void)k->load(p);
      }
      std::vector<h2::Value> config{h2::Value::of_string("hostA,hostB", "hosts")};
      (void)k->call("hpvmd", "config", config);
    }
  }
};

void BM_RawP2pRoundTrip(benchmark::State& state) {
  World world;
  auto n = static_cast<std::size_t>(state.range(0));
  h2::Rng rng(1);
  auto payload = rng.bytes(n);
  std::vector<h2::Value> send_params{h2::Value::of_string("hostB", "dest"),
                                     h2::Value::of_int(1, "tag"),
                                     h2::Value::of_bytes(payload, "payload")};
  std::vector<h2::Value> back_params{h2::Value::of_string("hostA", "dest"),
                                     h2::Value::of_int(2, "tag"),
                                     h2::Value::of_bytes(payload, "payload")};
  std::vector<h2::Value> tag1{h2::Value::of_int(1, "tag")};
  std::vector<h2::Value> tag2{h2::Value::of_int(2, "tag")};
  for (auto _ : state) {
    (void)world.kernels[0]->call("p2p", "send", send_params);
    auto got = world.kernels[1]->call("p2p", "recv", tag1);
    (void)world.kernels[1]->call("p2p", "send", back_params);
    auto back = world.kernels[0]->call("p2p", "recv", tag2);
    if (!back.ok()) {
      state.SkipWithError(back.error().describe().c_str());
      return;
    }
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * 2 * n));
  state.SetLabel("raw-p2p");
}
BENCHMARK(BM_RawP2pRoundTrip)->Arg(64)->Arg(4096)->Arg(262144);

void BM_PvmRoundTrip(benchmark::State& state) {
  World world;
  auto n = static_cast<std::size_t>(state.range(0));
  h2::Rng rng(2);
  auto payload = rng.bytes(n);
  auto a = *h2::pvm::PvmTask::enroll(*world.kernels[0], "a");
  auto b = *h2::pvm::PvmTask::enroll(*world.kernels[1], "b");
  for (auto _ : state) {
    (void)a.send(b.tid(), 1, payload);
    auto got = b.recv(1);
    (void)b.send(a.tid(), 2, payload);
    auto back = a.recv(2);
    if (!back.ok()) {
      state.SkipWithError(back.error().describe().c_str());
      return;
    }
    benchmark::DoNotOptimize(got);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * 2 * n));
  state.SetLabel("pvm-emulation");
}
BENCHMARK(BM_PvmRoundTrip)->Arg(64)->Arg(4096)->Arg(262144);

void BM_PvmSpawn(benchmark::State& state) {
  World world;
  bool remote = state.range(0) == 1;
  auto console = *h2::pvm::PvmTask::enroll(*world.kernels[0], "console");
  double messages = 0;
  for (auto _ : state) {
    auto m0 = world.net.stats().messages;
    auto tid = console.spawn("worker", remote ? "hostB" : "hostA");
    if (!tid.ok()) {
      state.SkipWithError(tid.error().describe().c_str());
      return;
    }
    messages += static_cast<double>(world.net.stats().messages - m0);
    benchmark::DoNotOptimize(tid);
  }
  state.counters["messages_per_spawn"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel(remote ? "remote-spawn" : "local-spawn");
}
BENCHMARK(BM_PvmSpawn)->Arg(0)->Arg(1);

// ---- MPI emulation collectives -------------------------------------------------
// The same layering question for the MPI plugin: collectives are message
// patterns over p2p, so their cost must track the pattern's message count
// (binomial bcast = n-1 sends, barrier = 2(n-1)).

struct MpiWorld {
  h2::net::SimNetwork net;
  h2::kernel::PluginRepository repo;
  std::vector<std::unique_ptr<h2::kernel::Kernel>> kernels;
  std::vector<h2::plugins::mpi::MpiComm> comms;

  explicit MpiWorld(std::size_t ranks) {
    (void)h2::plugins::register_standard_plugins(repo);
    std::string csv;
    for (std::size_t i = 0; i < ranks; ++i) {
      std::string name = "r";
      name += std::to_string(i);
      csv += (i ? "," : "") + name;
      auto host = net.add_host(name);
      kernels.push_back(std::make_unique<h2::kernel::Kernel>(name, repo, net, *host));
      (void)kernels.back()->load("p2p");
      (void)kernels.back()->load("mpi");
    }
    for (auto& k : kernels) {
      comms.push_back(*h2::plugins::mpi::MpiComm::init(*k, csv));
    }
  }
};

void BM_MpiBcast(benchmark::State& state) {
  MpiWorld world(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> buffer(4096, 0x5A);
  double messages = 0;
  for (auto _ : state) {
    auto m0 = world.net.stats().messages;
    auto status = h2::plugins::mpi::MpiComm::bcast(world.comms, 0, buffer);
    if (!status.ok()) {
      state.SkipWithError(status.error().describe().c_str());
      return;
    }
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["messages_per_bcast"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel("ranks=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MpiBcast)->Arg(2)->Arg(4)->Arg(8);

void BM_MpiBarrier(benchmark::State& state) {
  MpiWorld world(static_cast<std::size_t>(state.range(0)));
  double messages = 0;
  for (auto _ : state) {
    auto m0 = world.net.stats().messages;
    auto status = h2::plugins::mpi::MpiComm::barrier(world.comms);
    if (!status.ok()) {
      state.SkipWithError(status.error().describe().c_str());
      return;
    }
    messages += static_cast<double>(world.net.stats().messages - m0);
  }
  state.counters["messages_per_barrier"] =
      messages / static_cast<double>(state.iterations());
  state.SetLabel("ranks=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MpiBarrier)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
