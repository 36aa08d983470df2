// EXP-RESIL — the cost of the resilience layer on the happy path. The
// design budget is <5% overhead for a ResilientChannel wrapping an XDR
// channel on a fault-free network, measured against a representative
// component call (an NxN matrix multiply over the wire). When nothing
// fails, one logical call adds:
//   - a fixed part: deadline clock read, breaker allow/record pair (one
//     mutex round trip each), and the "h2c-<serial>" call-id stamp;
//   - a part proportional to the REPLY size: the server-side dedup cache
//     must keep a copy of the serialized reply to replay for duplicates,
//     so at-most-once fundamentally costs one reply-buffer copy.
//
//   BM_DirectXdrMmul/N        bare make_xdr_channel, NxN matmul request
//                             (2N^2 doubles in, N^2 out + real compute).
//                             The budget claim is made against N=32, the
//                             component-scale call; N=16 is reported to
//                             show where the fixed cost starts to matter.
//   BM_ResilientXdrMmul/N     same call through ResilientChannel (policy
//                             defaults, shared breaker, dedup on)
//   BM_*XdrEchoFloor/N        echo of an N-double array — the worst case:
//                             zero compute and reply == request, so the
//                             fixed cost (N=1) and the reply-copy cost
//                             (N=1024) are the whole bill
//   BM_ResilientXdrEchoNoIdFloor/N  retry/breaker machinery alone
//                             (attach_call_id off, so the server skips
//                             dedup) — isolates the loop from the copy
//   BM_FailoverXdrCall        the full stack: FailoverChannel -> resilient
//                             XDR channel resolved through a 2-node DVM
//   BM_BreakerAllowRecord     the breaker primitive by itself
//   BM_DedupLookupStore       the cache primitive by itself
#include <benchmark/benchmark.h>

#include <cmath>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "resilience/failover.hpp"
#include "resilience/resilient_channel.hpp"
#include "transport/rpc.hpp"
#include "util/rng.hpp"

namespace {

using namespace h2;

constexpr std::uint16_t kPort = 9300;

struct Wire {
  net::SimNetwork net;
  net::HostId client = 0, server = 0;
  std::shared_ptr<net::DispatcherMux> mux;
  std::shared_ptr<resil::DedupCache> dedup;
  std::optional<net::ServerHandle> handle;

  Wire() {
    client = *net.add_host("client");
    server = *net.add_host("server");
    mux = std::make_shared<net::DispatcherMux>();
    mux->add("echo", [](std::span<const Value> params) -> Result<Value> {
      return params.empty() ? Value::of_int(0, "return") : Result<Value>(params[0]);
    });
    mux->add("mmul", [](std::span<const Value> params) -> Result<Value> {
      auto a = params[0].as_doubles();
      auto b = params[1].as_doubles();
      if (!a.ok() || !b.ok()) return err::invalid_argument("mmul wants doubles");
      const std::size_t n = static_cast<std::size_t>(std::sqrt(double(a->size())));
      std::vector<double> c(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k) {
          const double aik = (*a)[i * n + k];
          for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * (*b)[k * n + j];
        }
      return Value::of_doubles(std::move(c), "result");
    });
    dedup = std::make_shared<resil::DedupCache>();  // production default depth
    handle.emplace(*net::serve_xdr(net, server, kPort, mux, dedup));
  }
};

std::unique_ptr<net::Channel> direct_channel(Wire& wire) {
  return net::make_xdr_channel(wire.net, wire.client, {"xdr", "server", kPort, ""});
}

std::unique_ptr<net::Channel> resilient_channel(Wire& wire,
                                                bool attach_call_id = true) {
  resil::CallPolicy policy;
  policy.attach_call_id = attach_call_id;
  return resil::make_resilient_channel(
      direct_channel(wire), wire.net, policy,
      &resil::BreakerRegistry::of(wire.net).for_endpoint("server"), "server");
}

void drive(benchmark::State& state, net::Channel& channel, std::string_view op,
           const std::vector<Value>& params) {
  for (auto _ : state) {
    auto result = channel.invoke(op, params);
    if (!result.ok()) {
      state.SkipWithError(result.error().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

// Representative call: an NxN matrix multiply shipped over the XDR
// binding, the kind of work a compute component actually does per
// invocation (2N^2 doubles of request, N^2 of reply, O(N^3) flops).
// The irreducible resilience cost is one reply-buffer copy plus ~0.5us
// of fixed bookkeeping, so the ratio improves as the call does more work.
std::vector<Value> mmul_params(std::size_t n) {
  Rng rng(7);
  return {Value::of_doubles(rng.doubles(n * n), "mata"),
          Value::of_doubles(rng.doubles(n * n), "matb")};
}

void BM_DirectXdrMmul(benchmark::State& state) {
  Wire wire;
  auto channel = direct_channel(wire);
  drive(state, *channel, "mmul",
        mmul_params(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DirectXdrMmul)->Arg(16)->Arg(32);

void BM_ResilientXdrMmul(benchmark::State& state) {
  Wire wire;
  auto channel = resilient_channel(wire);
  drive(state, *channel, "mmul",
        mmul_params(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResilientXdrMmul)->Arg(16)->Arg(32);

// Floor: echo of an N-double array. Reported so the fixed per-call cost
// (N=1) and the dedup reply-copy cost (N=1024, reply == request and no
// compute to amortize against) are visible in absolute nanoseconds.
std::vector<Value> echo_params(std::size_t n) {
  return {Value::of_doubles(std::vector<double>(n, 1.5), "x")};
}

void BM_DirectXdrEchoFloor(benchmark::State& state) {
  Wire wire;
  auto channel = direct_channel(wire);
  drive(state, *channel, "echo",
        echo_params(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DirectXdrEchoFloor)->Arg(1)->Arg(1024);

void BM_ResilientXdrEchoFloor(benchmark::State& state) {
  Wire wire;
  auto channel = resilient_channel(wire);
  drive(state, *channel, "echo",
        echo_params(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResilientXdrEchoFloor)->Arg(1)->Arg(1024);

void BM_ResilientXdrEchoNoIdFloor(benchmark::State& state) {
  Wire wire;
  auto channel = resilient_channel(wire, /*attach_call_id=*/false);
  drive(state, *channel, "echo",
        echo_params(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResilientXdrEchoNoIdFloor)->Arg(1)->Arg(1024);

void BM_FailoverXdrCall(benchmark::State& state) {
  net::SimNetwork net;
  kernel::PluginRepository repo;
  (void)plugins::register_standard_plugins(repo);
  dvm::Dvm dvm("bench", dvm::make_full_synchrony());
  std::vector<std::unique_ptr<container::Container>> containers;
  for (const char* name : {"n0", "n1"}) {
    auto host = *net.add_host(name);
    containers.push_back(std::make_unique<container::Container>(name, repo, net, host));
    (void)dvm.add_node(*containers.back());
  }
  container::DeployOptions options;
  options.expose_xdr = true;
  if (!dvm.deploy("n1", "counter", options).ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  resil::CallPolicy policy;
  resil::FailoverChannel channel(dvm, *containers[0], "CounterService", policy,
                                 {wsdl::BindingKind::kXdr});
  const std::vector<Value> params{Value::of_string("warm", "id"),
                                  Value::of_int(1, "delta")};
  (void)channel.invoke("add", params);  // resolve + pin the replica once
  std::uint64_t n = 0;
  for (auto _ : state) {
    std::string id = "b";
    id += std::to_string(n++);
    const std::vector<Value> call{Value::of_string(std::move(id), "id"),
                                  Value::of_int(1, "delta")};
    auto result = channel.invoke("add", call);
    if (!result.ok()) {
      state.SkipWithError(result.error().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FailoverXdrCall);

void BM_BreakerAllowRecord(benchmark::State& state) {
  resil::CircuitBreaker breaker;
  Nanos now = 0;
  for (auto _ : state) {
    bool admitted = breaker.allow(now);
    breaker.record(true, now);
    benchmark::DoNotOptimize(admitted);
    now += kMicrosecond;
  }
}
BENCHMARK(BM_BreakerAllowRecord);

void BM_DedupLookupStore(benchmark::State& state) {
  resil::DedupCache cache(1024);
  std::uint64_t n = 0;
  for (auto _ : state) {
    std::string id = "h2c-" + std::to_string(n++ % 2048);
    if (!cache.lookup(id).has_value()) {
      cache.store(id, ByteBuffer(std::vector<std::uint8_t>{1, 2, 3, 4}));
    }
  }
}
BENCHMARK(BM_DedupLookupStore);

}  // namespace

BENCHMARK_MAIN();
