// Growable byte buffer: the carrier between the encoders (XdrWriter
// frames, MIME bodies) and the transports (HTTP, XDR sockets, SimNetwork
// links). Writers append big-endian (network/XDR order) numbers
// byte-exactly rather than memcpy-ing structs. The read side is only a
// cursor that framing code advances with skip() and inspects with
// unread(); typed decoding belongs to enc::XdrReader, which reads these
// bytes in place.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace h2 {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> data) : data_(std::move(data)) {}
  explicit ByteBuffer(std::string_view text) { write_string(text); }

  // ---- introspection -------------------------------------------------------

  /// Total bytes written so far (independent of the read cursor).
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Bytes remaining between the read cursor and the end.
  std::size_t remaining() const { return data_.size() - read_pos_; }

  const std::uint8_t* data() const { return data_.data(); }
  std::span<const std::uint8_t> bytes() const { return {data_.data(), data_.size()}; }
  std::span<const std::uint8_t> unread() const {
    return {data_.data() + read_pos_, remaining()};
  }

  /// Whole contents viewed as text (for HTTP/XML payloads).
  std::string_view as_string_view() const {
    return {reinterpret_cast<const char*>(data_.data()), data_.size()};
  }
  std::string to_string() const { return std::string(as_string_view()); }

  void clear() {
    data_.clear();
    read_pos_ = 0;
  }
  void reserve(std::size_t n) { data_.reserve(n); }

  // ---- writing -------------------------------------------------------------

  void write_u8(std::uint8_t v) { data_.push_back(v); }
  void write_bytes(std::span<const std::uint8_t> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  /// Appends the bytes of `s` with one memcpy (`char` iterators into the
  /// `uint8_t` vector would be copied element by element).
  void write_string(std::string_view s) {
    if (!s.empty()) std::memcpy(extend(s.size()), s.data(), s.size());
  }
  /// Appends `n` zero bytes and returns where they start, for encoders
  /// that fill a block in one pass (XDR arrays). The pointer is valid
  /// until the next write.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = data_.size();
    data_.resize(at + n);
    return data_.data() + at;
  }
  /// Appends `count` copies of `fill` (XDR padding, HTTP spacing).
  void write_fill(std::size_t count, std::uint8_t fill = 0) {
    data_.insert(data_.end(), count, fill);
  }

  void write_u32_be(std::uint32_t v);
  /// Overwrites 4 already-written bytes at `offset` with `v` in big-endian
  /// order (length backpatching for frames whose size is known only after
  /// the payload is written). `offset + 4` must not exceed size().
  void patch_u32_be(std::size_t offset, std::uint32_t v) {
    data_[offset] = static_cast<std::uint8_t>(v >> 24);
    data_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
    data_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
    data_[offset + 3] = static_cast<std::uint8_t>(v);
  }
  void write_u64_be(std::uint64_t v);
  /// IEEE-754 bits in big-endian byte order (XDR float/double encoding).
  void write_f32_be(float v);
  void write_f64_be(double v);

  // ---- reading -------------------------------------------------------------

  /// Advances the read cursor past `n` consumed bytes; fails with
  /// kParseError, moving nothing, if fewer than `n` remain.
  Status skip(std::size_t n);

 private:
  std::vector<std::uint8_t> data_;
  std::size_t read_pos_ = 0;
};

/// Views text as bytes without copying (HTTP bodies feeding binary
/// decoders). The view aliases `text`'s storage.
inline std::span<const std::uint8_t> as_byte_span(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace h2
