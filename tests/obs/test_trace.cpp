// Tracer unit tests: inert-when-disabled, parent/child threading through
// the thread-local context, wire-format round trips (bare and through a
// full SOAP envelope), and the bounded span ring.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "soap/envelope.hpp"

namespace h2::obs {
namespace {

TEST(Tracer, DisabledByDefaultHandsOutInertSpans) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  Span span = tracer.start_span("noop");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.finish();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_FALSE(Tracer::current().valid());
}

TEST(Tracer, RootSpanStartsAFreshTrace) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext ctx;
  {
    Span span = tracer.start_span("root");
    ASSERT_TRUE(span.active());
    ctx = span.context();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(Tracer::current().span_id, ctx.span_id);
  }
  // Finished on scope exit: recorded, and the thread-local is restored.
  EXPECT_FALSE(Tracer::current().valid());
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
  EXPECT_EQ(spans[0].parent_span, 0u);
  EXPECT_TRUE(spans[0].ok);
}

TEST(Tracer, ChildInheritsTraceAndParent) {
  Tracer tracer;
  tracer.set_enabled(true);
  Span root = tracer.start_span("root");
  Span child = tracer.start_span("child");
  EXPECT_EQ(child.context().trace_id, root.context().trace_id);
  EXPECT_NE(child.context().span_id, root.context().span_id);
  child.finish();
  // Finishing the child restores the root as current.
  EXPECT_EQ(Tracer::current().span_id, root.context().span_id);
  root.finish();

  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);  // child recorded first
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[0].parent_span, root.context().span_id);
  EXPECT_EQ(spans[1].name, "root");
}

TEST(Tracer, ServerEntryContinuesRemoteTrace) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext remote{0xabc, 0x123};
  Span span = tracer.start_span("serve", remote);
  EXPECT_EQ(span.context().trace_id, 0xabcu);
  EXPECT_NE(span.context().span_id, 0x123u);
  span.set_ok(false);
  span.finish();
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_span, 0x123u);
  EXPECT_FALSE(spans[0].ok);
}

TEST(Tracer, SpanTimestampsComeFromTheClock) {
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.set_enabled(true);
  clock.advance(5 * kMicrosecond);
  Span span = tracer.start_span("timed");
  clock.advance(7 * kMicrosecond);
  span.finish();
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start, 5 * kMicrosecond);
  EXPECT_EQ(spans[0].end, 12 * kMicrosecond);
}

TEST(Tracer, RingEvictsOldestAndCountsDrops) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr std::size_t kTotal = 5000;  // > the 4096-slot ring
  for (std::size_t i = 0; i < kTotal; ++i) {
    tracer.start_span(std::string("s").append(std::to_string(i))).finish();
  }
  EXPECT_EQ(tracer.span_count(), 4096u);
  EXPECT_EQ(tracer.dropped(), kTotal - 4096);
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4096u);
  // Oldest-first: the survivors start right after the evicted prefix.
  EXPECT_EQ(spans.front().name, std::string("s").append(std::to_string(kTotal - 4096)));
  EXPECT_EQ(spans.back().name, std::string("s").append(std::to_string(kTotal - 1)));
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TraceHeader, EncodeParseRoundTrip) {
  TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  std::string encoded = encode_trace_header(ctx);
  EXPECT_EQ(encoded, "0123456789abcdef-fedcba9876543210");
  auto parsed = parse_trace_header(encoded);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
}

TEST(TraceHeader, RejectsMalformedText) {
  EXPECT_FALSE(parse_trace_header("").has_value());
  EXPECT_FALSE(parse_trace_header("0123").has_value());
  EXPECT_FALSE(parse_trace_header("0123456789abcdef_fedcba9876543210").has_value());
  EXPECT_FALSE(parse_trace_header("zzzzzzzzzzzzzzzz-fedcba9876543210").has_value());
  // A zero trace id is "no trace", not a trace.
  EXPECT_FALSE(parse_trace_header("0000000000000000-fedcba9876543210").has_value());
}

TEST(TraceHeader, SurvivesASoapEnvelopeRoundTrip) {
  TraceContext ctx{0x1122334455667788ULL, 0x99aabbccddeeff00ULL};
  soap::HeaderEntry header;
  header.name = std::string(kTraceHeaderName);
  header.ns = std::string(kTraceHeaderNs);
  header.value = encode_trace_header(ctx);

  std::vector<Value> params{Value::of_string("world", "name")};
  std::string envelope = soap::build_request(
      "greet", "urn:test", params, std::span<const soap::HeaderEntry>(&header, 1));
  // The context is visible on the wire, in the h2 trace namespace.
  EXPECT_NE(envelope.find(header.value), std::string::npos);
  EXPECT_NE(envelope.find(std::string(kTraceHeaderNs)), std::string::npos);

  auto call = soap::parse_request(envelope);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  ASSERT_EQ(call->headers.size(), 1u);
  EXPECT_EQ(call->headers[0].name, kTraceHeaderName);
  EXPECT_EQ(call->headers[0].ns, kTraceHeaderNs);
  EXPECT_FALSE(call->headers[0].must_understand);
  auto recovered = parse_trace_header(call->headers[0].value);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->trace_id, ctx.trace_id);
  EXPECT_EQ(recovered->span_id, ctx.span_id);
}

}  // namespace
}  // namespace h2::obs
