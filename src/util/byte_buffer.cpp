#include "util/byte_buffer.hpp"

#include <bit>

namespace h2 {

namespace {

template <typename T>
void append_be(std::vector<std::uint8_t>& out, T v) {
  for (int shift = static_cast<int>(sizeof(T)) * 8 - 8; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

}  // namespace

void ByteBuffer::write_u32_be(std::uint32_t v) { append_be(data_, v); }
void ByteBuffer::write_u64_be(std::uint64_t v) { append_be(data_, v); }

void ByteBuffer::write_f32_be(float v) {
  write_u32_be(std::bit_cast<std::uint32_t>(v));
}
void ByteBuffer::write_f64_be(double v) {
  write_u64_be(std::bit_cast<std::uint64_t>(v));
}

Status ByteBuffer::skip(std::size_t n) {
  if (remaining() < n) {
    return err::parse("byte buffer underrun: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
  read_pos_ += n;
  return Status::success();
}

}  // namespace h2
