// Transport-parametrized suite: every test here runs three times — over
// the deterministic SimNetwork, over real loopback TCP, and over a
// Unix-domain socket — driving the SAME channels, servers, batching and
// dedup code through each. This is the seam's contract made executable:
// nothing above Transport may care which world it is in.
#include <gtest/gtest.h>

#include <atomic>

#include "dvm/merkle.hpp"
#include "dvm/state.hpp"
#include "resilience/dedup.hpp"
#include "transport/batch.hpp"
#include "transport/rpc.hpp"
#include "transport/simnet.hpp"
#include "transport/socknet.hpp"

namespace h2::net {
namespace {

enum class Kind { kSim, kTcp, kUds };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSim: return "sim";
    case Kind::kTcp: return "tcp";
    case Kind::kUds: return "uds";
  }
  return "?";
}

std::shared_ptr<DispatcherMux> make_service(std::atomic<int>* side_effects = nullptr) {
  auto mux = std::make_shared<DispatcherMux>();
  mux->add("scale", [side_effects](std::span<const Value> params) -> Result<Value> {
    if (side_effects != nullptr) ++*side_effects;
    if (params.size() != 1) return err::invalid_argument("scale wants 1 param");
    auto values = params[0].as_doubles();
    if (!values.ok()) return values.error();
    for (double& v : *values) v *= 2.0;
    return Value::of_doubles(std::move(*values));
  });
  mux->add("greet", [](std::span<const Value> params) -> Result<Value> {
    auto name = params.empty() ? Result<std::string>(std::string("world"))
                               : params[0].as_string();
    if (!name.ok()) return name.error();
    return Value::of_string("hello " + *name);
  });
  mux->add("boom", [](std::span<const Value>) -> Result<Value> {
    return err::unavailable("deliberate failure");
  });
  return mux;
}

class TransportSuite : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Kind::kSim:
        sim_ = std::make_unique<SimNetwork>();
        net_ = sim_.get();
        break;
      case Kind::kTcp:
        sock_ = std::make_unique<SockNet>(SockFamily::kTcp);
        net_ = sock_.get();
        break;
      case Kind::kUds:
        sock_ = std::make_unique<SockNet>(SockFamily::kUds);
        net_ = sock_.get();
        break;
    }
    client_ = add_host("client");
    server_ = add_host("server");
    service_ = make_service(&side_effects_);
  }

  HostId add_host(const std::string& name) {
    return sim_ ? *sim_->add_host(name) : *sock_->add_host(name);
  }

  std::unique_ptr<SimNetwork> sim_;
  std::unique_ptr<SockNet> sock_;
  Transport* net_ = nullptr;
  HostId client_ = 0, server_ = 0;
  std::atomic<int> side_effects_{0};
  std::shared_ptr<DispatcherMux> service_;
};

TEST_P(TransportSuite, XdrChannelRoundTrips) {
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));
  for (int i = 0; i < 5; ++i) {
    std::vector<Value> params{Value::of_doubles({1.0 + i, -2.0})};
    auto r = channel->invoke("scale", params);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    EXPECT_EQ(*r->as_doubles(), (std::vector<double>{2.0 * (1.0 + i), -4.0}));
  }
  EXPECT_EQ(side_effects_.load(), 5);
  EXPECT_EQ(net_->stats().calls, 5u);
}

TEST_P(TransportSuite, XdrRemoteErrorPropagates) {
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));
  auto r = channel->invoke("boom", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
  EXPECT_NE(r.error().message().find("deliberate failure"), std::string::npos);
}

TEST_P(TransportSuite, SoapChannelRoundTripsAndFaults) {
  SoapHttpServer http(*net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());

  auto channel =
      make_soap_channel(*net_, client_, *Endpoint::parse("http://server:8080/svc"),
                        "urn:test");
  std::vector<Value> params{Value::of_string("soap")};
  auto r = channel->invoke("greet", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_string(), "hello soap");

  auto fault = channel->invoke("boom", {});
  ASSERT_FALSE(fault.ok());
  EXPECT_NE(fault.error().message().find("deliberate failure"), std::string::npos);
}

TEST_P(TransportSuite, RawHttpBindingRoundTrips) {
  SoapHttpServer http(*net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount_raw("raw", service_).ok());

  auto channel =
      make_http_channel(*net_, client_, *Endpoint::parse("http://server:8080/raw"));
  std::vector<Value> params{Value::of_doubles({4.0, 8.0})};
  auto r = channel->invoke("scale", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_doubles(), (std::vector<double>{8.0, 16.0}));
}

TEST_P(TransportSuite, XdrBatchPacksManyCallsIntoOneExchange) {
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));

  std::vector<BatchItem> calls;
  for (int i = 0; i < 7; ++i) {
    calls.push_back(BatchItem{"scale", {Value::of_doubles({double(i)})}, ""});
  }
  calls.push_back(BatchItem{"boom", {}, ""});

  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(calls, results).ok());
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(*results[i]->as_doubles(), (std::vector<double>{2.0 * i}));
  }
  EXPECT_FALSE(results[7].ok());  // per-call verdicts survive batching
  // The whole batch was ONE wire round trip.
  EXPECT_EQ(net_->stats().calls, 1u);
  EXPECT_EQ(net_->stats().messages, 2u);
}

TEST_P(TransportSuite, XdrBatchLargerThanOneFrameReturnsEveryResultInOrder) {
  // One past the wire's per-frame call limit: the channel sends two
  // frames, and the caller sees one batch.
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));

  constexpr std::size_t kCalls = kMaxBatchCalls + 1;
  std::vector<BatchItem> calls;
  calls.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    calls.push_back(BatchItem{"scale", {Value::of_doubles({double(i)})}, ""});
  }
  std::vector<Result<Value>> results;
  const auto bytes_before = net_->metrics().counter("h2.net.bytes").value();
  auto status = channel->invoke_batch(calls, results);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  ASSERT_EQ(results.size(), kCalls);
  // The channel's stats account for every frame of the batch.
  const auto stats = channel->last_stats();
  EXPECT_EQ(stats.request_bytes + stats.response_bytes,
            net_->metrics().counter("h2.net.bytes").value() - bytes_before);
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error().describe();
    ASSERT_EQ(*results[i]->as_doubles(), (std::vector<double>{2.0 * double(i)})) << i;
  }
  EXPECT_EQ(side_effects_.load(), static_cast<int>(kCalls));
  EXPECT_EQ(net_->stats().calls, 2u);
}

TEST_P(TransportSuite, BatchChannelAutoFlushesOverWire) {
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto inner = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));
  auto batch = make_batch_channel(std::move(inner), *net_,
                                  BatchPolicy{.max_batch = 4, .max_linger = 0});

  std::vector<BatchChannel::Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(batch->enqueue("scale", {Value::of_doubles({double(i)})}));
  }
  for (int i = 0; i < 8; ++i) {
    auto r = batch->take(tickets[i]);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    EXPECT_EQ(*r->as_doubles(), (std::vector<double>{2.0 * i}));
  }
  EXPECT_EQ(batch->flushes(), 2u);          // two size-triggered batches
  EXPECT_EQ(net_->stats().calls, 2u);       // == two wire round trips, not 8
}

TEST_P(TransportSuite, DedupSuppressesDuplicateExecution) {
  auto dedup = std::make_shared<resil::DedupCache>();
  auto handle = serve_xdr(*net_, server_, 9001, service_, dedup);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));

  std::vector<Value> params{Value::of_doubles({21.0})};
  channel->set_call_id("call-7");
  auto first = channel->invoke("scale", params);
  ASSERT_TRUE(first.ok());
  channel->set_call_id("call-7");  // a retry re-sends the same id
  auto second = channel->invoke("scale", params);
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(*first->as_doubles(), *second->as_doubles());
  EXPECT_EQ(side_effects_.load(), 1);  // handler ran once; the retry was replayed
  EXPECT_EQ(dedup->hits(), 1u);

  channel->set_call_id("call-8");
  ASSERT_TRUE(channel->invoke("scale", params).ok());
  EXPECT_EQ(side_effects_.load(), 2);
}

TEST_P(TransportSuite, ClosedPortRefusesFurtherCalls) {
  auto handle = serve_xdr(*net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));
  ASSERT_TRUE(channel->invoke("greet", {}).ok());
  EXPECT_TRUE(net_->is_listening(server_, 9001));

  handle->release();
  EXPECT_FALSE(net_->is_listening(server_, 9001));
  auto r = channel->invoke("greet", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(net_->stats().drops, 1u);
}

// ---- sharded state service over every transport --------------------------------
// The sharded coherency mode's wire surface (wset/vset/mnode/mpull) and a
// full Merkle anti-entropy exchange (mnode, mnodes, mpull, vset push-back),
// each driven over sim, TCP and UDS: digest comparison, bucket pull and
// LWW merge must behave identically whether the peer is a simulated host
// or a real socket.

TEST_P(TransportSuite, ShardedStateServiceRoundTrips) {
  auto store = std::make_shared<dvm::StateStore>();
  auto handle =
      serve_xdr(*net_, server_, 9001, dvm::make_state_service(store, /*writer=*/7));
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));

  // wset: server assigns and reports an LWW version.
  std::vector<Value> wset{Value::of_string("user/k", "key"),
                          Value::of_string("v1", "value")};
  auto reply = channel->invoke("wset", wset);
  ASSERT_TRUE(reply.ok()) << reply.error().describe();
  EXPECT_EQ(*reply->as_string(), "1 7");
  EXPECT_EQ(store->get("user/k"), "v1");

  // vset with a newer version wins; replaying an older one is rejected.
  std::vector<Value> newer{Value::of_string("user/k", "key"),
                           Value::of_string("v2", "value"), Value::of_int(5, "ts"),
                           Value::of_int(9, "writer"), Value::of_bool(false, "deleted")};
  auto applied = channel->invoke("vset", newer);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied->as_bool());
  std::vector<Value> stale{Value::of_string("user/k", "key"),
                           Value::of_string("old", "value"), Value::of_int(2, "ts"),
                           Value::of_int(1, "writer"), Value::of_bool(false, "deleted")};
  auto rejected = channel->invoke("vset", stale);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(*rejected->as_bool());
  EXPECT_EQ(store->get("user/k"), "v2");

  // A one-bucket root probe and pull agree with the store's own view of
  // the shard.
  const std::size_t shard = dvm::shard_of_key("user/k", 4);
  std::vector<Value> params{Value::of_int(static_cast<std::int64_t>(shard), "shard"),
                            Value::of_int(4, "shards"), Value::of_int(1, "buckets"),
                            Value::of_int(0, "level"), Value::of_int(0, "index")};
  auto digest = channel->invoke("mnode", params);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(*digest->as_int()),
            dvm::build_merkle_tree(*store, shard, 4, 1).root());
  params.resize(3);
  params.push_back(Value::of_int(0, "bucket"));
  auto blob = channel->invoke("mpull", params);
  ASSERT_TRUE(blob.ok());
  auto entries = dvm::decode_entries(*blob->as_string());
  ASSERT_TRUE(entries.ok()) << entries.error().describe();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].key, "user/k");
  EXPECT_EQ((*entries)[0].value, "v2");
  EXPECT_EQ((*entries)[0].version.ts, 5u);
}

TEST_P(TransportSuite, AntiEntropyConvergesDivergedReplicasOverTheWire) {
  constexpr std::size_t kShards = 4;
  auto remote = std::make_shared<dvm::StateStore>();
  dvm::StateStore local;

  // Diverge the replicas in both directions: the remote holds newer
  // versions of some keys, the local of others, plus a local tombstone the
  // remote has never heard of.
  for (int i = 0; i < 8; ++i) {
    std::string key = "key/" + std::to_string(i);
    remote->apply({key, "remote-v" + std::to_string(i),
                   {static_cast<std::uint64_t>(10 + i), 1}, false});
  }
  local.apply({"key/0", "local-wins", {100, 2}, false});
  local.apply({"key/9", "only-local", {3, 2}, false});
  local.apply({"key/3", "", {101, 2}, true});  // tombstone outranks remote

  auto handle =
      serve_xdr(*net_, server_, 9001, dvm::make_state_service(remote, /*writer=*/1));
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(*net_, client_, *Endpoint::parse("xdr://server:9001"));

  bool any_differed = false;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    auto stats = dvm::merkle_sync_shard_with_peer(*channel, local, shard, kShards,
                                                  dvm::kMerkleMinBuckets);
    ASSERT_TRUE(stats.ok()) << "shard " << shard << ": " << stats.error().describe();
    any_differed = any_differed || stats->differed;
  }
  ASSERT_TRUE(any_differed);

  // Byte-equal convergence, shard by shard.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_TRUE(local.shard_snapshot(shard, kShards) == remote->shard_snapshot(shard, kShards))
        << "shard " << shard;
  }
  // LWW picked the right winners on both sides.
  EXPECT_EQ(local.get("key/0"), "local-wins");
  EXPECT_EQ(remote->get("key/0"), "local-wins");
  EXPECT_EQ(remote->get("key/9"), "only-local");
  EXPECT_EQ(local.get("key/5"), "remote-v5");
  EXPECT_FALSE(local.get("key/3").has_value());
  EXPECT_FALSE(remote->get("key/3").has_value());

  // A second pass is a no-op: already converged.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    auto stats = dvm::merkle_sync_shard_with_peer(*channel, local, shard, kShards,
                                                  dvm::kMerkleMinBuckets);
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->differed) << "shard " << shard;
    EXPECT_EQ(stats->merged, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportSuite,
                         ::testing::Values(Kind::kSim, Kind::kTcp, Kind::kUds),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return kind_name(info.param);
                         });

// ---- traffic-accounting parity ----------------------------------------------

/// One fixed workload: XDR calls, a SOAP call, a batch. Returns the
/// request/response byte totals the channels themselves measured.
void run_workload(Transport& net, HostId client, HostId server) {
  auto service = make_service();
  auto handle = serve_xdr(net, server, 9001, service);
  ASSERT_TRUE(handle.ok());
  SoapHttpServer http(net, server, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service).ok());

  auto xdr = make_xdr_channel(net, client, *Endpoint::parse("xdr://server:9001"));
  auto soap = make_soap_channel(net, client, *Endpoint::parse("http://server:8080/svc"),
                                "urn:test");
  for (int i = 0; i < 3; ++i) {
    std::vector<Value> params{Value::of_doubles({double(i), 0.5})};
    ASSERT_TRUE(xdr->invoke("scale", params).ok());
  }
  std::vector<Value> who{Value::of_string("parity")};
  ASSERT_TRUE(soap->invoke("greet", who).ok());

  std::vector<BatchItem> calls;
  for (int i = 0; i < 4; ++i) {
    calls.push_back(BatchItem{"scale", {Value::of_doubles({double(i)})}, ""});
  }
  std::vector<Result<Value>> results;
  ASSERT_TRUE(xdr->invoke_batch(calls, results).ok());
}

// The same workload over the simulator and over real TCP must report
// IDENTICAL message/byte/call counts — socket framing (length prefixes,
// kernel fragmentation) must never leak into the accounting.
TEST(TransportParity, SimAndSocketReportIdenticalTraffic) {
  SimNetwork sim;
  HostId sim_client = *sim.add_host("client");
  HostId sim_server = *sim.add_host("server");
  run_workload(sim, sim_client, sim_server);

  SockNet tcp(SockFamily::kTcp);
  HostId tcp_client = *tcp.add_host("client");
  HostId tcp_server = *tcp.add_host("server");
  run_workload(tcp, tcp_client, tcp_server);

  const NetStats& a = sim.stats();
  const NetStats& b = tcp.stats();
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.faults, b.faults);

  // And the mirrored h2.net.* counters agree with the structs.
  for (const char* name : {"h2.net.messages", "h2.net.bytes", "h2.net.calls",
                           "h2.net.drops", "h2.net.faults"}) {
    EXPECT_EQ(sim.metrics().counter(name).value(), tcp.metrics().counter(name).value())
        << name;
  }
  EXPECT_EQ(tcp.metrics().counter("h2.net.messages").value(), b.messages);
  EXPECT_EQ(tcp.metrics().counter("h2.net.bytes").value(), b.bytes);
}

}  // namespace
}  // namespace h2::net
