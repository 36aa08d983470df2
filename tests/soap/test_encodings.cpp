// Property tests over the four wire encodings of a double array that the
// bindings ship, each driven through its binding's own request encoder
// and decoder:
//
//   raw          little-endian IEEE bytes in a MIME attachment
//                (build_mime_request / parse_mime_request)
//   xdr          big-endian XDR array in an H2RQ frame
//                (net::marshal_call / unmarshal_call)
//   soap_xml     SOAP array, one <item> of decimal text per value
//                (build_request / parse_request)
//   soap_base64  the IEEE bytes as xsd:base64Binary in a SOAP envelope
//                (same two functions, bytes Value)
//
// Whatever the encoder emits, the decoder must reproduce exactly: the
// binary encodings keep the bits, and soap_xml's shortest-round-trip
// decimal text reproduces every finite double too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "soap/mime.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace h2::soap {
namespace {

enum class CodecId { kRaw, kXdr, kSoapXml, kSoapBase64 };

const std::string& mime_content_type() {
  static const std::string type = build_mime_request("f", "urn:x", {}).content_type;
  return type;
}

/// Encodes `values` as the one parameter of a request; returns the wire
/// bytes the binding would send.
std::string encode(CodecId id, const std::vector<double>& values) {
  std::vector<Value> params;
  if (id == CodecId::kSoapBase64) {
    std::vector<std::uint8_t> bytes(values.size() * 8);
    if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
    params.push_back(Value::of_bytes(std::move(bytes), "data"));
  } else {
    params.push_back(Value::of_doubles(values, "data"));
  }
  switch (id) {
    case CodecId::kRaw: return build_mime_request("f", "urn:x", params).body.to_string();
    case CodecId::kXdr: return net::marshal_call("f", params).to_string();
    default: return build_request("f", "urn:x", params);
  }
}

/// Decodes a request built by encode() back into its double array.
Result<std::vector<double>> decode(CodecId id, std::string_view wire) {
  std::vector<Value> params;
  if (id == CodecId::kRaw) {
    auto call = parse_mime_request(mime_content_type(), as_byte_span(wire));
    if (!call.ok()) return call.error();
    params = std::move(call->params);
  } else if (id == CodecId::kXdr) {
    auto call = net::unmarshal_call(as_byte_span(wire));
    if (!call.ok()) return call.error();
    params = std::move(call->params);
  } else {
    auto call = parse_request(wire);
    if (!call.ok()) return call.error();
    params = std::move(call->params);
  }
  if (params.size() != 1) return err::parse("expected exactly one parameter");
  if (id != CodecId::kSoapBase64) return params[0].as_doubles();
  auto bytes = params[0].bytes_view();
  if (bytes.size() % 8 != 0) return err::parse("base64Binary is not whole doubles");
  std::vector<double> out(bytes.size() / 8);
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Upper bound on the wire size of n values: fixed framing plus the
/// encoding's worst case per value.
std::size_t wire_bound(CodecId id, std::size_t n) {
  switch (id) {
    case CodecId::kRaw: return 1024 + 8 * n;
    case CodecId::kXdr: return 64 + 8 * n;
    case CodecId::kSoapXml: return 1024 + 40 * n;  // <item>-24-chars-</item>
    case CodecId::kSoapBase64: return 1024 + 4 * ((8 * n + 2) / 3);
  }
  return 0;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecId> {};

TEST_P(CodecRoundTrip, EmptyArray) {
  auto back = decode(GetParam(), encode(GetParam(), {}));
  ASSERT_TRUE(back.ok()) << back.error().describe();
  EXPECT_TRUE(back->empty());
}

TEST_P(CodecRoundTrip, SingleValue) {
  std::vector<double> values{42.5};
  auto back = decode(GetParam(), encode(GetParam(), values));
  ASSERT_TRUE(back.ok()) << back.error().describe();
  EXPECT_EQ(*back, values);
}

TEST_P(CodecRoundTrip, SpecialFiniteValues) {
  std::vector<double> values{0.0, -0.0, 1e-308, -1e308, 1.0 / 3.0,
                             3.141592653589793, 6.02214076e23};
  auto back = decode(GetParam(), encode(GetParam(), values));
  ASSERT_TRUE(back.ok()) << back.error().describe();
  ASSERT_EQ(back->size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::signbit((*back)[i]), std::signbit(values[i])) << "index " << i;
    EXPECT_EQ((*back)[i], values[i]) << "index " << i;
  }
}

TEST_P(CodecRoundTrip, RandomArraysManySizes) {
  Rng rng(1234);
  for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    auto values = rng.doubles(n, -1e6, 1e6);
    auto back = decode(GetParam(), encode(GetParam(), values));
    ASSERT_TRUE(back.ok()) << "n=" << n << ": " << back.error().describe();
    EXPECT_EQ(*back, values) << "n=" << n;
  }
}

TEST_P(CodecRoundTrip, WireSizeBoundHolds) {
  Rng rng(55);
  for (std::size_t n : {0u, 1u, 10u, 100u}) {
    auto wire = encode(GetParam(), rng.doubles(n));
    EXPECT_GE(wire.size(), 8 * n) << "n=" << n;
    EXPECT_LE(wire.size(), wire_bound(GetParam(), n)) << "n=" << n;
  }
}

TEST_P(CodecRoundTrip, GarbageInputRejectedOrEmpty) {
  auto result = decode(GetParam(), "this is not a valid payload at all");
  // Every decoder must fail cleanly (no crash, no bogus success with data).
  if (result.ok()) {
    EXPECT_TRUE(result->empty());
  }
}

TEST_P(CodecRoundTrip, TruncatedWireRejected) {
  Rng rng(66);
  auto values = rng.doubles(32);
  auto wire = encode(GetParam(), values);
  auto result = decode(GetParam(), std::string_view(wire).substr(0, wire.size() / 2));
  if (result.ok()) {
    // A decoder may accept a well-formed prefix only; it must not
    // silently return the full array.
    EXPECT_LT(result->size(), values.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CodecId::kRaw, CodecId::kXdr,
                                           CodecId::kSoapXml, CodecId::kSoapBase64),
                         [](const ::testing::TestParamInfo<CodecId>& info) {
                           switch (info.param) {
                             case CodecId::kRaw: return "raw";
                             case CodecId::kXdr: return "xdr";
                             case CodecId::kSoapXml: return "soap_xml";
                             case CodecId::kSoapBase64: return "soap_base64";
                           }
                           return "?";
                         });

TEST(CodecSizes, TextEncodingsExpandBinaryOnes) {
  // The paper's claim in miniature: for the same payload, SOAP's text
  // encodings put more bytes on the wire than the binary ones.
  Rng rng(7);
  auto values = rng.doubles(1024);
  auto xdr = encode(CodecId::kXdr, values).size();
  auto mime = encode(CodecId::kRaw, values).size();
  auto soap_b64 = encode(CodecId::kSoapBase64, values).size();
  auto soap_xml = encode(CodecId::kSoapXml, values).size();
  EXPECT_GT(soap_xml, soap_b64);
  EXPECT_GT(soap_b64, mime);
  EXPECT_GE(mime, xdr);
  // base64 alone is 4/3; with the envelope around it the ratio is higher.
  EXPECT_GE(static_cast<double>(soap_b64) / static_cast<double>(xdr), 4.0 / 3.0);
}

TEST(CodecDetail, RawAttachmentIsLittleEndianIeee) {
  // The MIME attachment's byte order is fixed, whatever the host's.
  auto wire = encode(CodecId::kRaw, {1.0, -2.0});
  const std::string le_one("\x00\x00\x00\x00\x00\x00\xf0\x3f", 8);
  const std::string le_minus_two("\x00\x00\x00\x00\x00\x00\x00\xc0", 8);
  EXPECT_NE(wire.find(le_one + le_minus_two), std::string::npos);
}

}  // namespace
}  // namespace h2::soap
