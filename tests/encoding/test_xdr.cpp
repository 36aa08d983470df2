#include "encoding/xdr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "util/rng.hpp"

namespace h2::enc {
namespace {

TEST(Xdr, IntWireFormat) {
  XdrWriter w;
  w.put_i32(-2);
  // RFC 4506: two's complement big-endian.
  auto bytes = w.buffer().bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[3], 0xFE);
}

TEST(Xdr, ScalarRoundTrips) {
  XdrWriter w;
  w.put_i32(std::numeric_limits<std::int32_t>::min());
  w.put_u32(std::numeric_limits<std::uint32_t>::max());
  w.put_i64(std::numeric_limits<std::int64_t>::min());
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  w.put_bool(true);
  w.put_bool(false);
  w.put_f32(1.5f);
  w.put_f64(-0.125);

  XdrReader r(w.take());
  EXPECT_EQ(*r.get_i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(*r.get_u32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(*r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(*r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(*r.get_bool());
  EXPECT_FALSE(*r.get_bool());
  EXPECT_EQ(*r.get_f32(), 1.5f);
  EXPECT_EQ(*r.get_f64(), -0.125);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, BoolRejectsOtherValues) {
  XdrWriter w;
  w.put_u32(2);
  XdrReader r(w.take());
  EXPECT_FALSE(r.get_bool().ok());
}

TEST(Xdr, StringPaddingToFourBytes) {
  XdrWriter w;
  w.put_string("abcde");  // 4 len + 5 chars + 3 pad = 12
  EXPECT_EQ(w.size(), 12u);
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_string(), "abcde");
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, StringExactMultipleNoPadding) {
  XdrWriter w;
  w.put_string("abcd");
  EXPECT_EQ(w.size(), 8u);
}

TEST(Xdr, NonzeroPaddingRejected) {
  XdrWriter w;
  w.put_string("a");
  auto buf = w.take();
  // Corrupt a padding byte.
  std::vector<std::uint8_t> raw(buf.bytes().begin(), buf.bytes().end());
  raw[6] = 0x7;
  XdrReader r(ByteBuffer(std::move(raw)));
  EXPECT_FALSE(r.get_string().ok());
}

TEST(Xdr, OpaqueVariableAndFixed) {
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  XdrWriter w;
  w.put_opaque(payload);
  w.put_opaque_fixed(payload);
  EXPECT_EQ(w.size(), (4u + 8u) + 8u);
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_opaque(), payload);
  EXPECT_EQ(*r.get_opaque_fixed(5), payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, F64ArrayWireSize) {
  XdrWriter w;
  std::vector<double> values{1.0, 2.0, 3.0};
  w.put_f64_array(values);
  EXPECT_EQ(w.size(), 4u + 3 * 8u);
}

TEST(Xdr, ArraysRoundTrip) {
  Rng rng(9);
  auto doubles = rng.doubles(100);
  std::vector<float> floats{1.f, -2.5f, 1e-20f};
  std::vector<std::int32_t> ints{0, -1, 65536};

  XdrWriter w;
  w.put_f64_array(doubles);
  w.put_f32_array(floats);
  w.put_i32_array(ints);

  XdrReader r(w.take());
  EXPECT_EQ(*r.get_f64_array(), doubles);
  EXPECT_EQ(*r.get_f32_array(), floats);
  EXPECT_EQ(*r.get_i32_array(), ints);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, ArrayLengthOverrunRejected) {
  // Claim 1000 doubles but provide only 8 bytes.
  XdrWriter w;
  w.put_u32(1000);
  w.put_f64(1.0);
  XdrReader r(w.take());
  auto result = r.get_f64_array();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
}

TEST(Xdr, FourByteArraysRoundTripAtEdgeLengths) {
  Rng rng(23);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1023}}) {
    std::vector<float> floats;
    std::vector<std::int32_t> ints;
    for (double d : rng.doubles(n, -1e6, 1e6)) {
      floats.push_back(static_cast<float>(d));
      ints.push_back(static_cast<std::int32_t>(rng.next_u64()));
    }
    XdrWriter w;
    w.put_f32_array(floats);
    w.put_i32_array(ints);
    // Length word + 4 big-endian bytes per element, for each array.
    ASSERT_EQ(w.size(), 2 * (4 + 4 * n));
    if (n > 0) {
      auto bytes = w.buffer().bytes();
      const std::uint32_t first = std::bit_cast<std::uint32_t>(floats[0]);
      EXPECT_EQ(bytes[4], first >> 24);
      EXPECT_EQ(bytes[7], first & 0xFF);
    }

    XdrReader r(w.take());
    auto got_floats = r.get_f32_array();
    auto got_ints = r.get_i32_array();
    ASSERT_TRUE(got_floats.ok());
    ASSERT_TRUE(got_ints.ok());
    EXPECT_EQ(*got_floats, floats) << n;
    EXPECT_EQ(*got_ints, ints) << n;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Xdr, TruncatedFourByteArraysRejected) {
  // Claim 4 elements but provide 3: both readers refuse before copying.
  XdrWriter w;
  w.put_u32(4);
  for (int i = 0; i < 3; ++i) w.put_i32(i);
  const ByteBuffer wire = w.take();

  XdrReader floats(wire.bytes());
  auto f = floats.get_f32_array();
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(f.error().message(), "xdr: f32 array length exceeds remaining bytes");

  XdrReader ints(wire.bytes());
  auto i = ints.get_i32_array();
  ASSERT_FALSE(i.ok());
  EXPECT_EQ(i.error().code(), ErrorCode::kParseError);
  EXPECT_EQ(i.error().message(), "xdr: i32 array length exceeds remaining bytes");
}

TEST(Xdr, TruncatedScalarRejected) {
  XdrWriter w;
  w.put_u32(7);
  XdrReader r(w.take());
  ASSERT_TRUE(r.get_u32().ok());
  EXPECT_FALSE(r.get_u32().ok());
}

TEST(Xdr, PaddedHelper) {
  EXPECT_EQ(xdr_padded(0), 0u);
  EXPECT_EQ(xdr_padded(1), 4u);
  EXPECT_EQ(xdr_padded(4), 4u);
  EXPECT_EQ(xdr_padded(5), 8u);
}

TEST(Xdr, EmptyContainers) {
  XdrWriter w;
  w.put_string("");
  w.put_opaque({});
  w.put_f64_array({});
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_string(), "");
  EXPECT_TRUE(r.get_opaque()->empty());
  EXPECT_TRUE(r.get_f64_array()->empty());
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace h2::enc
