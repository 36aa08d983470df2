// Partial-input hardening for the HTTP layer and the socket-side frame
// assembler: real captured messages are fed back one fragment at a time,
// split at EVERY byte boundary, to prove the framing logic never needs
// the luck of a single whole-message read() — the kernel offers no such
// guarantee and the multiplexer does not assume it.
#include <gtest/gtest.h>

#include <string>

#include "transport/http.hpp"
#include "transport/mux.hpp"
#include "util/buffer_pool.hpp"

namespace h2::net {
namespace {

using sock::FrameAssembler;
using sock::Proto;

http::Request sample_request() {
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.headers.set("Content-Type", "text/xml; charset=utf-8");
  req.headers.set("SOAPAction", "\"urn:test#greet\"");
  req.body = "<Envelope><Body><greet>harness</greet></Body></Envelope>";
  return req;
}

http::Response sample_response() {
  http::Response resp;
  resp.status = 200;
  resp.headers.set("Content-Type", "text/xml; charset=utf-8");
  resp.body = "<Envelope><Body><ok/></Body></Envelope>";
  return resp;
}

// ---- http::message_size ------------------------------------------------------

TEST(HttpMessageSize, CompleteMessagesMeasureExactly) {
  auto req = sample_request().serialize("server");
  auto size = http::message_size(req.bytes());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, req.size());

  auto resp = sample_response().serialize();
  size = http::message_size(resp.bytes());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, resp.size());
}

// Every proper prefix must report "incomplete", never an error and never
// a bogus frame — including prefixes that cut the head mid-header-name,
// between the CRLFCRLF bytes, and mid-body.
TEST(HttpMessageSize, EveryPrefixIsIncompleteEveryExtensionIsStable) {
  auto wire = sample_request().serialize("server");
  auto whole = wire.bytes();
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    auto size = http::message_size(whole.subspan(0, cut));
    ASSERT_TRUE(size.ok()) << "cut at " << cut;
    if (*size != 0) {
      // Once the whole head is buffered the total frame size is known —
      // and it names the full message even before the body arrives.
      EXPECT_EQ(*size, whole.size()) << "cut at " << cut;
    }
  }
  // Trailing pipelined bytes must not perturb the first message's size.
  ByteBuffer two;
  two.write_bytes(whole);
  two.write_bytes(whole);
  auto size = http::message_size(two.bytes());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, whole.size());
}

TEST(HttpMessageSize, NoContentLengthMeansBodylessMessage) {
  std::string wire = "HTTP/1.1 200 OK\r\nServer: h2\r\n\r\n";
  auto size = http::message_size(as_byte_span(wire));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, wire.size());
}

TEST(HttpMessageSize, BadContentLengthIsAnError) {
  std::string wire = "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  EXPECT_FALSE(http::message_size(as_byte_span(wire)).ok());
}

TEST(HttpMessageSize, UnterminatedGiantHeadIsAnError) {
  std::string wire = "POST / HTTP/1.1\r\nX-Pad: ";
  wire.append(http::kMaxHeadBytes, 'a');  // no CRLFCRLF ever arrives
  EXPECT_FALSE(http::message_size(as_byte_span(wire)).ok());
}

TEST(HttpMessageSize, ContentLengthNameMatchIsCaseInsensitiveAndExact) {
  std::string lower = "POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc";
  auto size = http::message_size(as_byte_span(lower));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, lower.size());

  // "X-Content-Length-Hint" must NOT be mistaken for the real header.
  std::string decoy = "POST / HTTP/1.1\r\nX-Content-Length-Hint: 999\r\n\r\n";
  size = http::message_size(as_byte_span(decoy));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, decoy.size());
}

// ---- strict parsers on messages cut out of a stream --------------------------

// The feed-style contract: buffer, measure with message_size, hand the
// exact slice to the strict parser. Split the (request + response) stream
// at every boundary and parse both messages out of each schedule.
TEST(HttpIncremental, ParseSurvivesEveryByteSplitOfPipelinedStream) {
  auto req_wire = sample_request().serialize("server");
  auto resp_wire = sample_response().serialize();
  ByteBuffer stream;
  stream.write_bytes(req_wire.bytes());
  stream.write_bytes(resp_wire.bytes());
  auto whole = stream.bytes();

  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    ByteBuffer buffered;
    int parsed = 0;
    auto feed = [&](std::span<const std::uint8_t> chunk) {
      buffered.write_bytes(chunk);
      while (true) {
        auto size = http::message_size(buffered.unread());
        ASSERT_TRUE(size.ok());
        if (*size == 0 || buffered.remaining() < *size) return;
        auto message = buffered.unread().subspan(0, *size);
        if (parsed == 0) {
          auto req = http::parse_request(message);
          ASSERT_TRUE(req.ok()) << "cut " << cut;
          EXPECT_EQ(req->target, "/svc");
          EXPECT_EQ(req->body, sample_request().body);
        } else {
          auto resp = http::parse_response(message);
          ASSERT_TRUE(resp.ok()) << "cut " << cut;
          EXPECT_EQ(resp->status, 200);
          EXPECT_EQ(resp->body, sample_response().body);
        }
        ++parsed;
        ASSERT_TRUE(buffered.skip(*size).ok());
      }
    };
    feed(whole.subspan(0, cut));
    feed(whole.subspan(cut));
    EXPECT_EQ(parsed, 2) << "cut " << cut;
  }
}

// ---- FrameAssembler ----------------------------------------------------------

TEST(FrameAssembler, SniffsXdrFromLengthPrefixAndHttpFromAscii) {
  FrameAssembler xdr;
  const std::vector<std::uint8_t> framed{0, 0, 0, 3, 'a', 'b', 'c'};
  xdr.append(framed);
  auto m = xdr.next();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ(xdr.proto(), Proto::kXdr);
  EXPECT_EQ((*m)->size(), 3u);

  FrameAssembler htp;
  std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
  htp.append(as_byte_span(wire));
  m = htp.next();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ(htp.proto(), Proto::kHttp);
  EXPECT_EQ((*m)->size(), wire.size());  // HTTP yields the whole message
}

TEST(FrameAssembler, ReassemblesXdrAcrossEveryByteSplit) {
  // Two frames back to back, payloads "hello" and "worlds!".
  ByteBuffer stream;
  stream.write_u32_be(5);
  stream.write_string("hello");
  stream.write_u32_be(7);
  stream.write_string("worlds!");
  auto whole = stream.bytes();

  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    FrameAssembler assembler;
    std::vector<std::string> got;
    auto drain = [&] {
      while (true) {
        auto m = assembler.next();
        ASSERT_TRUE(m.ok());
        if (!m->has_value()) return;
        got.emplace_back(reinterpret_cast<const char*>((*m)->data()), (*m)->size());
      }
    };
    assembler.append(whole.subspan(0, cut));
    drain();
    assembler.append(whole.subspan(cut));
    drain();
    ASSERT_EQ(got.size(), 2u) << "cut " << cut;
    EXPECT_EQ(got[0], "hello");
    EXPECT_EQ(got[1], "worlds!");
  }
}

TEST(FrameAssembler, PipelinedHttpMessagesComeOutOneAtATime) {
  auto one = sample_request().serialize("server");
  FrameAssembler assembler;
  assembler.append(one.bytes());
  assembler.append(one.bytes());
  assembler.append(one.bytes());
  for (int i = 0; i < 3; ++i) {
    auto m = assembler.next();
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(m->has_value()) << i;
    EXPECT_EQ((*m)->size(), one.size());
  }
  auto done = assembler.next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, OversizedXdrFrameIsAProtocolViolation) {
  FrameAssembler assembler;
  const std::vector<std::uint8_t> evil{0x05, 0x00, 0x00, 0x00};  // 80MB > 64MB cap
  assembler.append(evil);
  EXPECT_FALSE(assembler.next().ok());
}

TEST(FrameAssembler, EmptyXdrFrameIsDelivered) {
  FrameAssembler assembler;
  const std::vector<std::uint8_t> empty{0, 0, 0, 0};
  assembler.append(empty);
  auto m = assembler.next();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ((*m)->size(), 0u);
}

TEST(FrameAssembler, RecyclesPooledBuffers) {
  ByteBufferPool pool;
  {
    FrameAssembler assembler(pool.acquire());
    const std::vector<std::uint8_t> framed{0, 0, 0, 1, 'x'};
    assembler.append(framed);
    ASSERT_TRUE(assembler.next().ok());
    pool.release(assembler.release());
  }
  EXPECT_EQ(pool.pooled(), 1u);
}

}  // namespace
}  // namespace h2::net
