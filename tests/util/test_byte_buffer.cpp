#include "util/byte_buffer.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "util/rng.hpp"

namespace h2 {
namespace {

/// Reads back a big-endian T at `offset` of the written bytes.
template <typename T>
T load_be(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | bytes[offset + i]);
  }
  return v;
}

TEST(ByteBuffer, StartsEmpty) {
  ByteBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, WriteReadU8) {
  ByteBuffer buf;
  buf.write_u8(0xAB);
  ASSERT_EQ(buf.size(), 1u);
  ASSERT_EQ(buf.unread().size(), 1u);
  EXPECT_EQ(buf.unread()[0], 0xAB);
  ASSERT_TRUE(buf.skip(1).ok());
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, BigEndianLayout) {
  ByteBuffer buf;
  buf.write_u32_be(0x01020304);
  auto bytes = buf.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[2], 0x03);
  EXPECT_EQ(bytes[3], 0x04);
}

TEST(ByteBuffer, RoundTripAllWidths) {
  ByteBuffer buf;
  buf.write_u32_be(0xDEADBEEF);
  buf.write_u64_be(0x0123456789ABCDEFULL);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(load_be<std::uint32_t>(buf.bytes(), 0), 0xDEADBEEFu);
  EXPECT_EQ(load_be<std::uint64_t>(buf.bytes(), 4), 0x0123456789ABCDEFULL);
}

TEST(ByteBuffer, FloatRoundTrip) {
  ByteBuffer buf;
  buf.write_f32_be(3.14159f);
  buf.write_f64_be(-2.718281828459045);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(std::bit_cast<float>(load_be<std::uint32_t>(buf.bytes(), 0)), 3.14159f);
  EXPECT_EQ(std::bit_cast<double>(load_be<std::uint64_t>(buf.bytes(), 4)),
            -2.718281828459045);
}

TEST(ByteBuffer, UnderrunIsError) {
  ByteBuffer buf;
  buf.write_u8(1);
  auto skipped = buf.skip(4);
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.error().code(), ErrorCode::kParseError);
}

TEST(ByteBuffer, ReadDoesNotConsumeOnFailure) {
  ByteBuffer buf;
  buf.write_u8(0x01);
  buf.write_u8(0x02);
  ASSERT_FALSE(buf.skip(4).ok());
  // The two bytes must still be unread.
  ASSERT_EQ(buf.remaining(), 2u);
  EXPECT_EQ(buf.unread()[0], 0x01);
  EXPECT_EQ(buf.unread()[1], 0x02);
}

TEST(ByteBuffer, StringAndBytes) {
  ByteBuffer buf;
  buf.write_string("hello");
  buf.write_bytes(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(buf.as_string_view(), std::string_view("hello\x01\x02\x03", 8));
}

TEST(ByteBuffer, SkipPastEndFails) {
  ByteBuffer buf;
  buf.write_u8(7);
  EXPECT_FALSE(buf.skip(2).ok());
}

TEST(ByteBuffer, ConstructFromText) {
  ByteBuffer buf("xyz");
  EXPECT_EQ(buf.as_string_view(), "xyz");
  EXPECT_EQ(buf.to_string(), "xyz");
}

TEST(ByteBuffer, TextCopiesKeepHighBytes) {
  std::string text;
  for (int c = 0; c < 256; ++c) text.push_back(static_cast<char>(c));
  ByteBuffer built(text);
  ByteBuffer appended;
  appended.write_string("x");
  appended.write_string(text);
  ASSERT_EQ(built.size(), 256u);
  ASSERT_EQ(appended.size(), 257u);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(built.bytes()[i], i);
    EXPECT_EQ(appended.bytes()[i + 1], i);
  }
  EXPECT_EQ(built.as_string_view(), text);
}

TEST(ByteBuffer, WriteFill) {
  ByteBuffer buf;
  buf.write_fill(3, 0xEE);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bytes()[2], 0xEE);
}

TEST(ByteBuffer, FuzzRoundTripMixed) {
  Rng rng(42);
  for (int iteration = 0; iteration < 50; ++iteration) {
    ByteBuffer buf;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20; ++i) {
      std::uint64_t v = rng.next_u64();
      values.push_back(v);
      buf.write_u64_be(v);
    }
    ASSERT_EQ(buf.size(), values.size() * 8);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(load_be<std::uint64_t>(buf.bytes(), i * 8), values[i]);
    }
  }
}

}  // namespace
}  // namespace h2
