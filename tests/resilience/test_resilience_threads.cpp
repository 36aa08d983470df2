// Thread-safety tests for the pieces of the resilience layer that real
// (non-simulated) containers share across threads: the breaker registry,
// the idempotency cache, and SoapHttpServer mount/unmount while dispatch
// is in flight. These are the tests the `tsan` CMake preset exists for.
//
// The SimNetwork itself is single-threaded by contract, so exactly one
// thread ever drives net.call(); the concurrency lives in the registries
// and the server's mount table.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "transport/rpc.hpp"

namespace h2::resil {
namespace {

TEST(ResilienceThreadsTest, BreakerRegistryConcurrentAccess) {
  BreakerRegistry registry;
  const std::vector<std::string> keys = {"n0", "n1", "n2", "n3"};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        CircuitBreaker& breaker = registry.for_endpoint(keys[(t + i) % keys.size()]);
        Nanos now = static_cast<Nanos>(i) * kMillisecond;
        if (breaker.allow(now)) {
          breaker.record((t + i) % 3 != 0, now);
        }
        (void)breaker.state();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.size(), keys.size());
}

TEST(ResilienceThreadsTest, DedupCacheConcurrentStoreAndLookup) {
  DedupCache cache(256);
  std::atomic<std::uint64_t> found{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::string id = std::string("c").append(std::to_string(i % 512));
        if (t % 2 == 0) {
          cache.store(id, ByteBuffer(std::vector<std::uint8_t>{
                              static_cast<std::uint8_t>(i & 0xff)}));
        } else if (cache.lookup(id).has_value()) {
          found.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 256u);
  EXPECT_EQ(cache.hits(), found.load());
}

TEST(ResilienceThreadsTest, MountUnmountWhileDispatching) {
  net::SimNetwork net;
  auto client = *net.add_host("c");
  auto host = *net.add_host("s");
  net::SoapHttpServer server(net, host, 8080);
  auto mux = std::make_shared<net::DispatcherMux>();
  mux->add("ping", [](std::span<const Value>) -> Result<Value> {
    return Value::of_string("pong", "return");
  });
  ASSERT_TRUE(server.mount_raw("stable", mux).ok());
  ASSERT_TRUE(server.start().ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&, t] {
      std::string path = "churn" + std::to_string(t);
      while (!done.load(std::memory_order_relaxed)) {
        (void)server.mount_raw(path, mux);
        (void)server.unmount(path);
      }
    });
  }

  // Exactly one thread (this one) owns the network.
  auto channel = net::make_http_channel(net, client, {"http", "s", 8080, "stable"});
  for (int i = 0; i < 500; ++i) {
    auto result = channel->invoke("ping", {});
    ASSERT_TRUE(result.ok()) << result.error().message();
  }
  done.store(true);
  for (auto& c : churners) c.join();
  EXPECT_GE(server.mounted_count(), 1u);
}

}  // namespace
}  // namespace h2::resil
