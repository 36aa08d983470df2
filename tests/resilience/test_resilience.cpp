// Resilience layer tests: policy classification and backoff, the circuit
// breaker state machine, the idempotency (dedup) cache, ResilientChannel
// retry/deadline semantics over a chaotic SimNetwork, DVM replica
// failover, and the ServerHandle / DispatcherMux / SoapHttpServer
// robustness fixes that ride along with the layer.
#include <gtest/gtest.h>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "resilience/failover.hpp"
#include "resilience/policy.hpp"
#include "resilience/resilient_channel.hpp"
#include "transport/marshal.hpp"
#include "transport/rpc.hpp"

namespace h2::resil {
namespace {

// ---- policy -----------------------------------------------------------------

TEST(PolicyTest, ErrorClassification) {
  EXPECT_TRUE(transient(ErrorCode::kUnavailable));
  EXPECT_TRUE(transient(ErrorCode::kTimeout));
  EXPECT_FALSE(transient(ErrorCode::kNotFound));
  EXPECT_FALSE(transient(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(transient(ErrorCode::kInternal));

  EXPECT_TRUE(maybe_executed(ErrorCode::kTimeout));
  EXPECT_FALSE(maybe_executed(ErrorCode::kUnavailable));
  EXPECT_FALSE(maybe_executed(ErrorCode::kNotFound));
}

TEST(PolicyTest, BackoffIsDeterministicPerSeed) {
  CallPolicy policy;
  Rng a(42), b(42), c(43);
  bool all_equal = true, any_differs = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    Nanos da = backoff_delay(policy, attempt, a);
    Nanos db = backoff_delay(policy, attempt, b);
    Nanos dc = backoff_delay(policy, attempt, c);
    all_equal = all_equal && (da == db);
    any_differs = any_differs || (da != dc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs);
}

TEST(PolicyTest, BackoffGrowsAndClamps) {
  CallPolicy policy;
  policy.jitter = 0.0;  // exact exponential
  Rng rng(1);
  EXPECT_EQ(backoff_delay(policy, 1, rng), policy.initial_backoff);
  EXPECT_EQ(backoff_delay(policy, 2, rng), 2 * policy.initial_backoff);
  EXPECT_EQ(backoff_delay(policy, 3, rng), 4 * policy.initial_backoff);
  // Far past the clamp point.
  EXPECT_EQ(backoff_delay(policy, 30, rng), policy.max_backoff);
}

TEST(PolicyTest, BackoffJitterStaysInBounds) {
  CallPolicy policy;
  policy.jitter = 0.2;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Nanos d = backoff_delay(policy, 1, rng);
    EXPECT_GE(d, static_cast<Nanos>(0.8 * policy.initial_backoff) - 1);
    EXPECT_LE(d, static_cast<Nanos>(1.2 * policy.initial_backoff) + 1);
  }
}

// ---- circuit breaker --------------------------------------------------------

TEST(BreakerTest, OpensAtFailureRateAndFailsFast) {
  BreakerConfig config{.window = 4, .min_calls = 4, .failure_threshold = 0.5,
                       .cooldown = 10 * kMillisecond};
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record(true, 0);
  breaker.record(false, 0);
  breaker.record(true, 0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);  // under min_calls
  breaker.record(false, 0);  // window now half failures
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(kMillisecond));  // cooldown not elapsed
}

TEST(BreakerTest, HalfOpenProbeClosesOnSuccess) {
  BreakerConfig config{.window = 2, .min_calls = 2, .failure_threshold = 0.5,
                       .cooldown = 10 * kMillisecond};
  CircuitBreaker breaker(config);
  breaker.record(false, 0);
  breaker.record(false, 0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  Nanos later = config.cooldown + 1;
  EXPECT_TRUE(breaker.allow(later));  // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(later));  // only one probe outstanding

  breaker.record(true, later);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(later));
  // The window was reset: one old-style failure must not instantly re-trip.
  breaker.record(false, later);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(BreakerTest, HalfOpenProbeReopensOnFailure) {
  BreakerConfig config{.window = 2, .min_calls = 2, .failure_threshold = 0.5,
                       .cooldown = 10 * kMillisecond};
  CircuitBreaker breaker(config);
  breaker.record(false, 0);
  breaker.record(false, 0);
  Nanos later = config.cooldown + 1;
  ASSERT_TRUE(breaker.allow(later));
  breaker.record(false, later);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(later + 1));
  // And the next cooldown admits a fresh probe.
  EXPECT_TRUE(breaker.allow(later + config.cooldown + 1));
}

TEST(BreakerTest, RegistryKeysAreStableAndShared) {
  BreakerRegistry registry;
  CircuitBreaker& a1 = registry.for_endpoint("hostA");
  CircuitBreaker& b = registry.for_endpoint("hostB");
  CircuitBreaker& a2 = registry.for_endpoint("hostA");
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(&a1, &b);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(BreakerTest, PerNetworkRegistryIsSingleton) {
  net::SimNetwork net;
  BreakerRegistry& r1 = BreakerRegistry::of(net);
  BreakerRegistry& r2 = BreakerRegistry::of(net);
  EXPECT_EQ(&r1, &r2);
}

// ---- dedup cache ------------------------------------------------------------

ByteBuffer bytes_of(std::string_view text) {
  return ByteBuffer(std::vector<std::uint8_t>(text.begin(), text.end()));
}

TEST(DedupTest, StoreThenLookupHits) {
  DedupCache cache(8);
  EXPECT_FALSE(cache.lookup("c1").has_value());
  cache.store("c1", bytes_of("reply-1"));
  auto hit = cache.lookup("c1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DedupTest, EmptyIdsAreNeverCached) {
  DedupCache cache(8);
  cache.store("", bytes_of("x"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("").has_value());
}

TEST(DedupTest, DisabledCacheIsTransparent) {
  DedupCache cache(8);
  cache.store("c1", bytes_of("x"));
  cache.set_enabled(false);
  EXPECT_FALSE(cache.lookup("c1").has_value());
  cache.store("c2", bytes_of("y"));
  cache.set_enabled(true);
  EXPECT_TRUE(cache.lookup("c1").has_value());
  EXPECT_FALSE(cache.lookup("c2").has_value());
}

TEST(DedupTest, FifoEviction) {
  DedupCache cache(2);
  cache.store("a", bytes_of("1"));
  cache.store("b", bytes_of("2"));
  cache.store("c", bytes_of("3"));  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
}

// ---- wire format ------------------------------------------------------------

TEST(MarshalTest, CallIdRoundTripsThroughH2rc) {
  std::vector<Value> params{Value::of_int(7, "x")};
  ByteBuffer frame = net::marshal_call("op", params, "h2c-123");
  auto call = net::unmarshal_call(frame.bytes());
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->operation, "op");
  EXPECT_EQ(call->call_id, "h2c-123");
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(*call->params[0].as_int(), 7);
}

TEST(MarshalTest, PlainFrameHasNoCallId) {
  std::vector<Value> params{Value::of_int(7, "x")};
  ByteBuffer frame = net::marshal_call("op", params);
  auto call = net::unmarshal_call(frame.bytes());
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->call_id.empty());
}

// ---- call shapes ------------------------------------------------------------
// Each decorator keeps one loop behind invoke() and invoke_batch(), so the
// resilient-channel and failover tests run once per caller: a plain
// invoke(), and the same call as a one-call invoke_batch().

enum class Shape { kInvoke, kBatch };

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  return info.param == Shape::kInvoke ? "invoke" : "batch";
}

/// Calls `operation` through `channel` in `shape`. In the batch shape a
/// transport failure must fill the one result with the returned error.
Result<Value> call_in(Shape shape, net::Channel& channel, std::string_view operation,
                      std::span<const Value> params) {
  if (shape == Shape::kInvoke) return channel.invoke(operation, params);
  const net::BatchItem item{std::string(operation), {params.begin(), params.end()}, ""};
  std::vector<Result<Value>> results;
  Status status = channel.invoke_batch({&item, 1}, results);
  EXPECT_EQ(results.size(), 1u);
  if (results.size() != 1) return err::internal("batch returned no single result");
  if (!status.ok()) {
    EXPECT_FALSE(results[0].ok());
    if (!results[0].ok()) {
      EXPECT_EQ(results[0].error().code(), status.error().code());
      EXPECT_EQ(results[0].error().message(), status.error().message());
    }
    return status.error();
  }
  return results[0];
}

// ---- resilient channel over a chaotic network -------------------------------

class ResilientChannelTest : public ::testing::TestWithParam<Shape> {
 protected:
  static constexpr std::uint16_t kPort = 9100;

  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    mux_ = std::make_shared<net::DispatcherMux>();
    mux_->add("bump", [this](std::span<const Value>) -> Result<Value> {
      ++executions_;
      return Value::of_int(executions_, "return");
    });
    mux_->add("reject", [](std::span<const Value>) -> Result<Value> {
      return err::invalid_argument("bad request");
    });
    dedup_ = std::make_shared<DedupCache>(64);
    handle_.emplace(*net::serve_xdr(net_, server_, kPort, mux_, dedup_));
  }

  std::unique_ptr<net::Channel> make_channel(CallPolicy policy,
                                             CircuitBreaker* breaker = nullptr) {
    return make_resilient_channel(
        net::make_xdr_channel(net_, client_, {"xdr", "server", kPort, ""}), net_,
        policy, breaker, "server");
  }

  Result<Value> call(net::Channel& channel, std::string_view operation) {
    return call_in(GetParam(), channel, operation, {});
  }

  net::SimNetwork net_;
  net::HostId client_ = 0, server_ = 0;
  std::shared_ptr<net::DispatcherMux> mux_;
  std::shared_ptr<DedupCache> dedup_;
  std::optional<net::ServerHandle> handle_;
  int executions_ = 0;
};

TEST_P(ResilientChannelTest, RetriesThroughDroppedRequests) {
  int drops_left = 2;
  net_.set_fault_hook([&](const net::MessageInfo& info) {
    net::FaultDecision d;
    if (info.is_call && drops_left > 0) {
      --drops_left;
      d.drop = true;
    }
    return d;
  });
  auto channel = make_channel(CallPolicy{});
  auto result = call(*channel, "bump");
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(executions_, 1);
  auto* resilient = static_cast<ResilientChannel*>(channel.get());
  EXPECT_EQ(resilient->last_attempts(), 3);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.retries"), 2u);
}

TEST_P(ResilientChannelTest, ApplicationErrorsAreNotRetried) {
  auto channel = make_channel(CallPolicy{});
  auto result = call(*channel, "reject");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
  auto* resilient = static_cast<ResilientChannel*>(channel.get());
  EXPECT_EQ(resilient->last_attempts(), 1);
}

TEST_P(ResilientChannelTest, DeadlineExceededIsTimeout) {
  net_.set_fault_hook([](const net::MessageInfo& info) {
    net::FaultDecision d;
    d.drop = info.is_call;
    return d;
  });
  CallPolicy policy;
  policy.deadline = 3 * kMillisecond;
  policy.initial_backoff = 2 * kMillisecond;
  policy.max_attempts = 100;
  auto channel = make_channel(policy);
  auto result = call(*channel, "bump");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(executions_, 0);
  EXPECT_GE(net_.metrics().counter_value("h2.resil.deadline_exceeded"), 1u);
}

TEST_P(ResilientChannelTest, ExhaustionWithoutExecutionIsUnavailable) {
  net_.set_fault_hook([](const net::MessageInfo& info) {
    net::FaultDecision d;
    d.drop = info.is_call;
    return d;
  });
  CallPolicy policy;
  policy.deadline = 0;  // only the retry budget limits the call
  policy.max_attempts = 3;
  auto channel = make_channel(policy);
  auto result = call(*channel, "bump");
  ASSERT_FALSE(result.ok());
  // Every attempt was lost pre-delivery: safe for a caller to fail over.
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(executions_, 0);
}

TEST_P(ResilientChannelTest, LostReplyExhaustionIsTimeoutAndExecutesOnce) {
  net_.set_fault_hook([](const net::MessageInfo& info) {
    net::FaultDecision d;
    d.drop_reply = info.is_call;
    return d;
  });
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 3;
  auto channel = make_channel(policy);
  auto result = call(*channel, "bump");
  ASSERT_FALSE(result.ok());
  // The handler ran, so the outcome is unknowable: kTimeout, never failover.
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  // All three attempts reached the server, but dedup replayed the cached
  // reply for attempts 2 and 3 — the side effect applied exactly once.
  EXPECT_EQ(executions_, 1);
  EXPECT_EQ(dedup_->hits(), 2u);
}

TEST_P(ResilientChannelTest, DedupReplaysLostReplyToSuccess) {
  bool first = true;
  net_.set_fault_hook([&](const net::MessageInfo& info) {
    net::FaultDecision d;
    if (info.is_call && first) {
      first = false;
      d.drop_reply = true;  // the handler runs but the caller sees kTimeout
    }
    return d;
  });
  auto channel = make_channel(CallPolicy{});
  auto result = call(*channel, "bump");
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(*result->as_int(), 1);
  EXPECT_EQ(executions_, 1);  // the retry was served from the cache
  EXPECT_EQ(dedup_->hits(), 1u);
}

TEST_P(ResilientChannelTest, WithoutDedupLostRepliesDoubleExecute) {
  // The contrast case proving the cache is what carries at-most-once.
  dedup_->set_enabled(false);
  bool first = true;
  net_.set_fault_hook([&](const net::MessageInfo& info) {
    net::FaultDecision d;
    if (info.is_call && first) {
      first = false;
      d.drop_reply = true;
    }
    return d;
  });
  auto channel = make_channel(CallPolicy{});
  auto result = call(*channel, "bump");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(executions_, 2);  // double-applied: exactly the planted bug
}

TEST_P(ResilientChannelTest, OpenBreakerFailsFast) {
  CircuitBreaker breaker(BreakerConfig{.window = 2, .min_calls = 2,
                                       .failure_threshold = 0.5,
                                       .cooldown = 500 * kMillisecond});
  breaker.record(false, net_.clock().now());
  breaker.record(false, net_.clock().now());
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 2;
  auto channel = make_channel(policy, &breaker);
  auto result = call(*channel, "bump");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(executions_, 0);  // nothing reached the wire
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.breaker_fastfail"), 2u);
}

TEST_P(ResilientChannelTest, BreakerOpensFromRealFailuresThenRecovers) {
  bool dropping = true;
  net_.set_fault_hook([&](const net::MessageInfo& info) {
    net::FaultDecision d;
    d.drop = info.is_call && dropping;
    return d;
  });
  CircuitBreaker breaker(BreakerConfig{.window = 4, .min_calls = 4,
                                       .failure_threshold = 0.5,
                                       .cooldown = 5 * kMillisecond});
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 4;
  auto channel = make_channel(policy, &breaker);
  ASSERT_FALSE(call(*channel, "bump").ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Network heals; backoff time lets the cooldown elapse, the half-open
  // probe succeeds, and the breaker closes again.
  dropping = false;
  net_.clock().advance(6 * kMillisecond);
  auto result = call(*channel, "bump");
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ResilientChannelTest,
                         ::testing::Values(Shape::kInvoke, Shape::kBatch), shape_name);

// ---- DVM failover -----------------------------------------------------------

class FailoverTest : public ::testing::TestWithParam<Shape> {
 protected:
  static constexpr std::size_t kNodes = 3;

  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<dvm::Dvm>("dvm", dvm::make_full_synchrony());
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = std::string("n").append(std::to_string(i));
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
    // Replicas on n1 and n2 only, so the caller on n0 always goes remote.
    container::DeployOptions options;
    options.expose_xdr = true;
    ASSERT_TRUE(dvm_->deploy("n1", "counter", options).ok());
    ASSERT_TRUE(dvm_->deploy("n2", "counter", options).ok());
  }

  Result<Value> add(net::Channel& channel, const std::string& id) {
    const Value params[] = {Value::of_string(id, "id"), Value::of_int(1, "delta")};
    return call_in(GetParam(), channel, "add", params);
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<dvm::Dvm> dvm_;
};

TEST_P(FailoverTest, FailsOverToSurvivingReplicaAndAnnounces) {
  std::vector<std::string> events;
  auto subscription = containers_[0]->kernel().events().subscribe(
      "dvm/failover", [&](const Value& payload) {
        events.push_back(payload.as_string().ok() ? *payload.as_string() : "?");
      });

  CallPolicy policy;
  policy.max_attempts = 2;
  FailoverChannel channel(*dvm_, *containers_[0], "CounterService", policy,
                          {wsdl::BindingKind::kXdr});
  ASSERT_TRUE(add(channel, "op1").ok());
  std::string primary = channel.current_node();
  EXPECT_EQ(primary, "n1");  // membership order

  ASSERT_TRUE(dvm_->crash_node(primary).ok());
  auto result = add(channel, "op2");
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(channel.current_node(), "n2");
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.failovers"), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "CounterService:n1->n2");
}

TEST_P(FailoverTest, AllReplicasDeadReportsTimeout) {
  CallPolicy policy;
  policy.max_attempts = 2;
  FailoverChannel channel(*dvm_, *containers_[0], "CounterService", policy,
                          {wsdl::BindingKind::kXdr});
  ASSERT_TRUE(dvm_->crash_node("n1").ok());
  ASSERT_TRUE(dvm_->crash_node("n2").ok());
  auto result = add(channel, "op1");
  ASSERT_FALSE(result.ok());
  // "Calls either succeed or fail with kTimeout" — even total unavailability.
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
}

TEST_P(FailoverTest, RejoinedReplicaServesAgain) {
  CallPolicy policy;
  policy.max_attempts = 2;
  FailoverChannel channel(*dvm_, *containers_[0], "CounterService", policy,
                          {wsdl::BindingKind::kXdr});
  ASSERT_TRUE(add(channel, "op1").ok());
  ASSERT_TRUE(dvm_->crash_node("n1").ok());
  ASSERT_TRUE(dvm_->crash_node("n2").ok());
  ASSERT_FALSE(add(channel, "op2").ok());
  ASSERT_TRUE(dvm_->rejoin("n1").ok());
  auto result = add(channel, "op3");
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(channel.current_node(), "n1");
}

INSTANTIATE_TEST_SUITE_P(Shapes, FailoverTest,
                         ::testing::Values(Shape::kInvoke, Shape::kBatch), shape_name);

// ---- satellite fixes --------------------------------------------------------

TEST(ServerHandleTest, ReleaseIsIdempotentAndFreesThePort) {
  net::SimNetwork net;
  auto host = *net.add_host("s");
  auto mux = std::make_shared<net::DispatcherMux>();
  auto handle = net::serve_xdr(net, host, 9200, mux);
  ASSERT_TRUE(handle.ok());
  handle->release();
  handle->release();  // double release is a no-op
  auto again = net::serve_xdr(net, host, 9200, mux);  // port is free again
  EXPECT_TRUE(again.ok());
}

TEST(ServerHandleTest, DestructorToleratesExternallyClosedPort) {
  net::SimNetwork net;
  auto host = *net.add_host("s");
  auto mux = std::make_shared<net::DispatcherMux>();
  {
    auto handle = net::serve_xdr(net, host, 9200, mux);
    ASSERT_TRUE(handle.ok());
    // The port vanishes underneath the handle (e.g. a container crash
    // closed everything on the host); its destructor must shrug.
    ASSERT_TRUE(net.close(host, 9200).ok());
  }
  EXPECT_TRUE(net::serve_xdr(net, host, 9200, mux).ok());
}

TEST(ServerHandleTest, MoveAssignClosesTheOldPort) {
  net::SimNetwork net;
  auto host = *net.add_host("s");
  auto mux = std::make_shared<net::DispatcherMux>();
  auto a = net::serve_xdr(net, host, 9200, mux);
  auto b = net::serve_xdr(net, host, 9201, mux);
  ASSERT_TRUE(a.ok() && b.ok());
  *a = std::move(*b);  // must close 9200, keep 9201 open
  EXPECT_TRUE(net::serve_xdr(net, host, 9200, mux).ok());
  EXPECT_FALSE(net::serve_xdr(net, host, 9201, mux).ok());
}

TEST(DispatcherMuxTest, AddReplacesExistingHandler) {
  net::DispatcherMux mux;
  mux.add("op", [](std::span<const Value>) -> Result<Value> {
    return Value::of_int(1, "return");
  });
  mux.add("op", [](std::span<const Value>) -> Result<Value> {
    return Value::of_int(2, "return");
  });
  EXPECT_EQ(mux.size(), 1u);
  auto result = mux.dispatch("op", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->as_int(), 2);
}

TEST(SoapHttpServerTest, HandlerMayUnmountItsOwnPathMidDispatch) {
  net::SimNetwork net;
  auto client = *net.add_host("c");
  auto server_host = *net.add_host("s");
  net::SoapHttpServer server(net, server_host, 8080);
  auto mux = std::make_shared<net::DispatcherMux>();
  mux->add("once", [&server](std::span<const Value>) -> Result<Value> {
    // The dispatch in flight holds its own reference; unmounting here
    // must neither deadlock nor free the dispatcher out from under us.
    (void)server.unmount("svc");
    return Value::of_string("done", "return");
  });
  ASSERT_TRUE(server.mount_raw("svc", mux).ok());
  ASSERT_TRUE(server.start().ok());

  auto channel = net::make_http_channel(net, client, {"http", "s", 8080, "svc"});
  auto first = channel->invoke("once", {});
  ASSERT_TRUE(first.ok()) << first.error().message();
  EXPECT_EQ(server.mounted_count(), 0u);
  EXPECT_FALSE(channel->invoke("once", {}).ok());  // 404 now
}

}  // namespace
}  // namespace h2::resil
