// Adaptive RPC batching: the H2RB/H2RZ multi-call wire format, batch
// dispatch on the XDR and SOAP servers, BatchChannel flush semantics, and
// the at-most-once interplay between re-sent batch frames and the
// server-side DedupCache.
#include "transport/batch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "resilience/dedup.hpp"
#include "resilience/resilient_channel.hpp"
#include "transport/http.hpp"
#include "transport/marshal.hpp"
#include "transport/rpc.hpp"
#include "util/buffer_pool.hpp"

namespace h2::net {
namespace {

std::vector<BatchItem> make_adds(std::size_t count, std::string_view id_prefix = {}) {
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BatchItem item;
    item.operation = "add";
    item.params.push_back(Value::of_int(static_cast<std::int64_t>(i), "n"));
    if (!id_prefix.empty()) item.call_id = std::string(id_prefix) + std::to_string(i);
    items.push_back(std::move(item));
  }
  return items;
}

// ---- wire format ------------------------------------------------------------

TEST(BatchFrame, EmptyBatchRoundTrips) {
  ByteBuffer frame = marshal_batch_call({});
  EXPECT_TRUE(is_batch_call(frame.bytes()));
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok()) << views.error().describe();
  EXPECT_TRUE(views->empty());
}

TEST(BatchFrame, SingleCallRoundTrips) {
  auto items = make_adds(1, "id-");
  ByteBuffer frame = marshal_batch_call(items);
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views->size(), 1u);
  auto call = unmarshal_call((*views)[0]);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "add");
  EXPECT_EQ(call->call_id, "id-0");
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(*call->params[0].as_int(), 0);
}

TEST(BatchFrame, LargeBatchRoundTripsAndSubFramesMatchSingletons) {
  auto items = make_adds(512);
  ByteBuffer frame = marshal_batch_call(items);
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views->size(), 512u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Each sub-frame is byte-identical to the singleton encoding — that
    // equivalence is what lets batch replies share the DedupCache.
    ByteBuffer solo = marshal_call(items[i].operation, items[i].params);
    ASSERT_EQ((*views)[i].size(), solo.size());
    EXPECT_EQ(0, std::memcmp((*views)[i].data(), solo.bytes().data(), solo.size()));
  }
}

TEST(BatchFrame, TruncatedFrameIsAParseError) {
  ByteBuffer frame = marshal_batch_call(make_adds(3));
  auto truncated = frame.bytes().first(frame.size() - 5);
  auto views = split_batch_call(truncated);
  ASSERT_FALSE(views.ok());
  EXPECT_EQ(views.error().code(), ErrorCode::kParseError);
}

TEST(BatchFrame, CorruptCountAndMagicRejected) {
  // Wrong magic: a singleton call frame is not a batch.
  ByteBuffer solo = marshal_call("noop", {});
  EXPECT_FALSE(is_batch_call(solo.bytes()));
  EXPECT_FALSE(split_batch_call(solo.bytes()).ok());

  // Absurd count (bit-flipped high byte) must be rejected before any
  // allocation is attempted.
  ByteBuffer frame = marshal_batch_call(make_adds(2));
  ByteBuffer evil;
  evil.write_bytes(frame.bytes());
  evil.patch_u32_be(4, 0xFFFFFFFF);
  auto views = split_batch_call(evil.bytes());
  ASSERT_FALSE(views.ok());
  EXPECT_NE(views.error().message().find("exceeds limit"), std::string::npos);

  // Trailing garbage after the last sub-frame.
  ByteBuffer trailing;
  trailing.write_bytes(frame.bytes());
  trailing.write_u32_be(0xDEADBEEF);
  EXPECT_FALSE(split_batch_call(trailing.bytes()).ok());
}

TEST(BatchFrame, ReplySplitterChecksItsOwnMagic) {
  ByteBuffer call_frame = marshal_batch_call(make_adds(1));
  EXPECT_FALSE(is_batch_reply(call_frame.bytes()));
  EXPECT_FALSE(split_batch_reply(call_frame.bytes()).ok());
}

// ---- end-to-end over the bindings -------------------------------------------

class BatchRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    service_ = std::make_shared<DispatcherMux>();
    service_->add("add", [this](std::span<const Value> params) -> Result<Value> {
      ++executions_;
      auto n = params.empty() ? Result<std::int64_t>(std::int64_t{0})
                              : params[0].as_int();
      if (!n.ok()) return n.error();
      total_ += *n;
      return Value::of_int(total_, "return");
    });
    service_->add("boom", [](std::span<const Value>) -> Result<Value> {
      return err::not_found("deliberate failure");
    });
  }

  SimNetwork net_;
  HostId client_ = 0, server_ = 0;
  std::shared_ptr<DispatcherMux> service_;
  int executions_ = 0;
  std::int64_t total_ = 0;
};

TEST_F(BatchRpcTest, XdrBatchExecutesInOrderWithPerCallResults) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  auto items = make_adds(4);
  items[2].operation = "boom";  // app error mid-batch must not stop the rest
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(items, results);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(*(*results[0]).as_int(), 0);
  EXPECT_EQ(*(*results[1]).as_int(), 1);
  EXPECT_EQ(results[2].error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(*(*results[3]).as_int(), 4);  // 0 + 1 + 3
  EXPECT_EQ(executions_, 3);

  // The whole batch was one network round trip.
  EXPECT_EQ(net_.stats().calls, 1u);
}

TEST_F(BatchRpcTest, XdrBatchIsOneMessageNotN) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  net_.reset_stats();
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(make_adds(64), results).ok());
  EXPECT_EQ(net_.stats().calls, 1u);
  ASSERT_EQ(results.size(), 64u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
}

TEST_F(BatchRpcTest, EmptyBatchSkipsTheWire) {
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  std::vector<Result<Value>> results{Result<Value>(Value::of_void())};
  ASSERT_TRUE(channel->invoke_batch({}, results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(BatchRpcTest, DuplicatedBatchFrameReplaysFromDedupCache) {
  auto dedup = std::make_shared<resil::DedupCache>();
  auto handle = serve_xdr(net_, server_, 9001, service_, dedup);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  // The SimNetwork duplicate fault re-runs the handler with the same
  // frame — the dedup cache must absorb the second execution entirely.
  net_.set_fault_hook([](const MessageInfo&) {
    FaultDecision d;
    d.duplicates = 1;
    return d;
  });
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(make_adds(8, "dup-"), results);
  net_.set_fault_hook(nullptr);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  EXPECT_EQ(executions_, 8);  // not 16
  EXPECT_EQ(dedup->hits(), 8u);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
}

TEST_F(BatchRpcTest, ResentBatchGetsIdenticalCachedReplies) {
  auto dedup = std::make_shared<resil::DedupCache>();
  auto handle = serve_xdr(net_, server_, 9001, service_, dedup);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  auto items = make_adds(3, "retry-");
  std::vector<Result<Value>> first, second;
  ASSERT_TRUE(channel->invoke_batch(items, first).ok());
  ASSERT_TRUE(channel->invoke_batch(items, second).ok());
  EXPECT_EQ(executions_, 3);  // the re-send executed nothing
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(*(*second[i]).as_int(), *(*first[i]).as_int());
  }
}

TEST_F(BatchRpcTest, SoapBatchRoundTripsIncludingFaults) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");

  auto items = make_adds(3);
  items[1].operation = "boom";
  net_.reset_stats();
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(items, results);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  EXPECT_EQ(net_.stats().calls, 1u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(*(*results[0]).as_int(), 0);
  // SOAP faults carry faultstring, not the original ErrorCode.
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error().message().find("deliberate failure"),
            std::string::npos);
  EXPECT_EQ(*(*results[2]).as_int(), 2);
  EXPECT_EQ(executions_, 2);
}

TEST_F(BatchRpcTest, SoapBatchDedupsPerSubCall) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto dedup = std::make_shared<resil::DedupCache>();
  http.set_dedup(dedup);
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");

  auto items = make_adds(4, "soap-");
  std::vector<Result<Value>> first, second;
  ASSERT_TRUE(channel->invoke_batch(items, first).ok());
  ASSERT_TRUE(channel->invoke_batch(items, second).ok());
  EXPECT_EQ(executions_, 4);
  ASSERT_EQ(second.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*(*second[i]).as_int(), *(*first[i]).as_int());
  }
}

TEST_F(BatchRpcTest, SoapSingletonRequestsStillServed) {
  // The batch-aware server must keep exact singleton behavior.
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");
  const Value params[] = {Value::of_int(41, "n")};
  auto r = channel->invoke("add", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_int(), 41);
  auto miss = channel->invoke("nope", {});
  ASSERT_FALSE(miss.ok());
  EXPECT_NE(miss.error().message().find("nope"), std::string::npos);
}

TEST_F(BatchRpcTest, DefaultChannelBatchLoopsOverInvoke) {
  auto channel = make_local_channel(*service_);
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(make_adds(5), results).ok());
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(executions_, 5);
  EXPECT_EQ(*(*results[4]).as_int(), 10);  // 0+1+2+3+4
}

// ---- BatchChannel -----------------------------------------------------------

TEST_F(BatchRpcTest, BatchChannelFlushesExplicitlyAndRedeemsTickets) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 16});

  std::vector<BatchChannel::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    std::vector<Value> params{Value::of_int(i, "n")};
    tickets.push_back(batch->enqueue("add", std::move(params)));
  }
  EXPECT_EQ(batch->pending(), 5u);
  EXPECT_EQ(net_.stats().calls, 0u);  // nothing sent yet
  ASSERT_TRUE(batch->flush().ok());
  EXPECT_EQ(net_.stats().calls, 1u);
  EXPECT_EQ(batch->pending(), 0u);

  auto last = batch->take(tickets[4]);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last->as_int(), 10);
  // A ticket redeems exactly once.
  EXPECT_EQ(batch->take(tickets[4]).error().code(), ErrorCode::kNotFound);
}

TEST_F(BatchRpcTest, BatchChannelAutoFlushesAtMaxBatch) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 3});

  for (int i = 0; i < 3; ++i) {
    batch->enqueue("add", {Value::of_int(1, "n")});
  }
  // The third enqueue completed the batch and flushed it.
  EXPECT_EQ(batch->pending(), 0u);
  EXPECT_EQ(net_.stats().calls, 1u);
  EXPECT_EQ(batch->flushes(), 1u);
}

TEST_F(BatchRpcTest, BatchChannelLingerFlushInVirtualTime) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100, .max_linger = kMillisecond});

  batch->enqueue("add", {Value::of_int(1, "n")});
  batch->enqueue("add", {Value::of_int(2, "n")});
  EXPECT_EQ(batch->pending(), 2u);
  net_.clock().advance(2 * kMillisecond);
  // The next enqueue notices the stragglers are past their linger bound,
  // flushes them, and starts a fresh batch with itself in it.
  batch->enqueue("add", {Value::of_int(3, "n")});
  EXPECT_EQ(batch->pending(), 1u);
  EXPECT_EQ(batch->flushes(), 1u);
}

TEST_F(BatchRpcTest, TakeOfPendingTicketForcesFlush) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto ticket = batch->enqueue("add", {Value::of_int(7, "n")});
  auto result = batch->take(ticket);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->as_int(), 7);
  EXPECT_EQ(batch->pending(), 0u);
}

TEST_F(BatchRpcTest, DirectInvokePreservesProgramOrder) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto ticket = batch->enqueue("add", {Value::of_int(1, "n")});
  // The direct call must observe the queued add: flush-then-invoke.
  const Value direct_params[] = {Value::of_int(10, "n")};
  auto direct = batch->invoke("add", direct_params);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct->as_int(), 11);
  ASSERT_TRUE(batch->take(ticket).ok());
}

TEST_F(BatchRpcTest, TransportErrorFillsEveryPendingResult) {
  // No server listening: the whole batch fails as a unit and every
  // ticket redeems to the same transport error.
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto t1 = batch->enqueue("add", {Value::of_int(1, "n")});
  auto t2 = batch->enqueue("add", {Value::of_int(2, "n")});
  EXPECT_FALSE(batch->flush().ok());
  EXPECT_EQ(batch->take(t1).error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(batch->take(t2).error().code(), ErrorCode::kUnavailable);
}

// ---- one cached unit per binding -------------------------------------------
// One DedupCache behind every binding, as Container wires it. A call id
// replayed in the other shape (singleton <-> batch) must get the first
// execution's value back without running the handler again: XDR and raw
// HTTP cache the "H2RP" reply frame, SOAP caches the Body element.

class CrossShapeDedupTest : public BatchRpcTest {
 protected:
  using Send = std::function<Result<Value>(bool batch, const std::string& id)>;

  void SetUp() override {
    BatchRpcTest::SetUp();
    auto xdr = serve_xdr(net_, server_, 9001, service_, dedup_);
    ASSERT_TRUE(xdr.ok());
    xdr_ = std::make_unique<ServerHandle>(std::move(*xdr));
    http_ = std::make_unique<SoapHttpServer>(net_, server_, 8080);
    ASSERT_TRUE(http_->start().ok());
    ASSERT_TRUE(http_->mount("svc", service_).ok());
    ASSERT_TRUE(http_->mount_raw("raw", service_).ok());
    http_->set_dedup(dedup_);
  }

  /// Sends one add(5) under `id` through `channel`: invoke() for the
  /// singleton shape, a one-call invoke_batch() for the batch shape.
  static Result<Value> send_on(Channel& channel, bool batch, const std::string& id) {
    const Value n = Value::of_int(5, "n");
    if (!batch) {
      channel.set_call_id(id);
      return channel.invoke("add", {&n, 1});
    }
    std::vector<BatchItem> items{BatchItem{"add", {n}, id}};
    std::vector<Result<Value>> results;
    if (auto status = channel.invoke_batch(items, results); !status.ok()) {
      return status.error();
    }
    return results.at(0);
  }

  /// Sends an id in one shape, then in the other, for both orders.
  void expect_cross_shape_replay(const Send& send) {
    for (bool batch_first : {false, true}) {
      SCOPED_TRACE(batch_first ? "batch, then singleton" : "singleton, then batch");
      executions_ = 0;
      const std::string id = batch_first ? "batch-first" : "singleton-first";
      auto first = send(batch_first, id);
      ASSERT_TRUE(first.ok()) << first.error().describe();
      auto replay = send(!batch_first, id);
      ASSERT_TRUE(replay.ok()) << replay.error().describe();
      auto replayed = replay->as_int();
      ASSERT_TRUE(replayed.ok()) << replayed.error().describe();
      EXPECT_EQ(*replayed, *first->as_int());
      EXPECT_EQ(executions_, 1);
    }
  }

  /// Runs a batch of two id-carrying adds, then a plain invoke() with no
  /// id: that call must run, not replay the batch's last sub-call.
  void expect_no_id_pinned_after_batch(Channel& channel, const std::string& prefix) {
    const std::int64_t base = total_;
    const int executed = executions_;
    std::vector<BatchItem> items{BatchItem{"add", {Value::of_int(1, "n")}, prefix + "a"},
                                 BatchItem{"add", {Value::of_int(2, "n")}, prefix + "b"}};
    std::vector<Result<Value>> results;
    ASSERT_TRUE(channel.invoke_batch(items, results).ok());
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[1].ok()) << results[1].error().describe();
    EXPECT_EQ(*results[1]->as_int(), base + 3);

    const Value hundred = Value::of_int(100, "n");
    auto after = channel.invoke("add", {&hundred, 1});
    ASSERT_TRUE(after.ok()) << after.error().describe();
    EXPECT_EQ(*after->as_int(), base + 103);
    EXPECT_EQ(executions_, executed + 3);
  }

  std::shared_ptr<resil::DedupCache> dedup_ = std::make_shared<resil::DedupCache>();
  std::unique_ptr<ServerHandle> xdr_;
  std::unique_ptr<SoapHttpServer> http_;
};

TEST_F(CrossShapeDedupTest, XdrReplaysAcrossShapes) {
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  expect_cross_shape_replay(
      [&](bool batch, const std::string& id) { return send_on(*channel, batch, id); });
}

TEST_F(CrossShapeDedupTest, SoapReplaysAcrossShapes) {
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"), "urn:test");
  expect_cross_shape_replay(
      [&](bool batch, const std::string& id) { return send_on(*channel, batch, id); });
}

TEST_F(CrossShapeDedupTest, RawHttpReplaysAcrossShapes) {
  // The http channel has no batch framing, so the batch shape is an
  // "H2RB" frame POSTed to the raw mount by hand.
  auto channel = make_http_channel(net_, client_, *Endpoint::parse("http://server:8080/raw"));
  expect_cross_shape_replay([&](bool batch, const std::string& id) -> Result<Value> {
    if (!batch) return send_on(*channel, batch, id);
    std::vector<BatchItem> items{BatchItem{"add", {Value::of_int(5, "n")}, id}};
    http::Request request;
    request.target = "/raw";
    request.headers.set("Content-Type", "application/octet-stream");
    request.body = marshal_batch_call(items).to_string();
    auto raw = net_.call(client_, server_, 8080, request.serialize("server").bytes());
    if (!raw.ok()) return raw.error();
    auto response = http::parse_response(raw->bytes());
    if (!response.ok()) return response.error();
    auto frames = split_batch_reply(as_byte_span(response->body));
    if (!frames.ok()) return frames.error();
    if (frames->size() != 1) return err::parse("expected one sub-reply");
    return unmarshal_reply(frames->front());
  });
}

// ---- no call id stays pinned after a batch ----------------------------------
// The default invoke_batch() loop — used by the raw-HTTP channel, which has
// no batch framing — sets each sub-call's id on the channel in turn. The
// last one must not stay pinned: the next plain invoke() would carry it,
// and a dedup-enabled server would replay that sub-call's cached reply
// instead of running the new call.

TEST_F(CrossShapeDedupTest, XdrBatchLeavesNoCallIdPinned) {
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  expect_no_id_pinned_after_batch(*channel, "xdr-");
}

TEST_F(CrossShapeDedupTest, RawHttpBatchLeavesNoCallIdPinned) {
  const Endpoint raw = *Endpoint::parse("http://server:8080/raw");
  auto channel = make_http_channel(net_, client_, raw);
  expect_no_id_pinned_after_batch(*channel, "http-");

  // The same through the resilience decorator when it stamps no ids of
  // its own: it hands the batch to the channel's default loop.
  resil::CallPolicy policy;
  policy.attach_call_id = false;
  auto resilient = resil::make_resilient_channel(make_http_channel(net_, client_, raw),
                                                 net_, policy, nullptr, "server");
  expect_no_id_pinned_after_batch(*resilient, "resilient-");
}

// ---- satellites -------------------------------------------------------------

TEST(ByteBufferPoolTest, RecyclesBuffersUpToBound) {
  ByteBufferPool pool(2);
  ByteBuffer a = pool.acquire();
  a.write_bytes(as_byte_span("payload"));
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);
  ByteBuffer b = pool.acquire();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(b.size(), 0u);  // recycled buffers come back empty

  pool.release(ByteBuffer{});
  pool.release(ByteBuffer{});
  pool.release(ByteBuffer{});  // over the bound: dropped, not pooled
  EXPECT_EQ(pool.pooled(), 2u);
}

}  // namespace
}  // namespace h2::net
