#include "encoding/xdr.hpp"

#include <bit>
#include <cstring>

namespace h2::enc {

namespace {

void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

std::uint64_t load_be64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

void store_be32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

std::uint32_t load_be32(const std::uint8_t* in) {
  return (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
         (std::uint32_t{in[2]} << 8) | std::uint32_t{in[3]};
}

}  // namespace

void XdrWriter::put_opaque(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  put_opaque_fixed(bytes);
}

void XdrWriter::put_opaque_fixed(std::span<const std::uint8_t> bytes) {
  buffer_.write_bytes(bytes);
  buffer_.write_fill(xdr_padded(bytes.size()) - bytes.size());
}

void XdrWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buffer_.write_string(s);
  buffer_.write_fill(xdr_padded(s.size()) - s.size());
}

void XdrWriter::put_f64_array(std::span<const double> values) {
  put_u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t* out = buffer_.extend(values.size() * 8);
  for (double v : values) {
    store_be64(out, std::bit_cast<std::uint64_t>(v));
    out += 8;
  }
}

void XdrWriter::put_f32_array(std::span<const float> values) {
  put_u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t* out = buffer_.extend(values.size() * 4);
  for (float v : values) {
    store_be32(out, std::bit_cast<std::uint32_t>(v));
    out += 4;
  }
}

void XdrWriter::put_i32_array(std::span<const std::int32_t> values) {
  put_u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t* out = buffer_.extend(values.size() * 4);
  for (std::int32_t v : values) {
    store_be32(out, static_cast<std::uint32_t>(v));
    out += 4;
  }
}

Status XdrReader::ensure(std::size_t n) const {
  if (remaining() < n) {
    return err::parse("byte buffer underrun: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
  return Status::success();
}

Result<std::int32_t> XdrReader::get_i32() {
  auto v = get_u32();
  if (!v.ok()) return v.error();
  return static_cast<std::int32_t>(*v);
}

Result<std::uint32_t> XdrReader::get_u32() {
  if (auto s = ensure(4); !s.ok()) return s.error();
  const std::uint32_t out = load_be32(cursor());
  pos_ += 4;
  return out;
}

Result<std::int64_t> XdrReader::get_i64() {
  auto v = get_u64();
  if (!v.ok()) return v.error();
  return static_cast<std::int64_t>(*v);
}

Result<std::uint64_t> XdrReader::get_u64() {
  if (auto s = ensure(8); !s.ok()) return s.error();
  const std::uint64_t out = load_be64(cursor());
  pos_ += 8;
  return out;
}

Result<bool> XdrReader::get_bool() {
  auto v = get_u32();
  if (!v.ok()) return v.error();
  if (*v > 1) return err::parse("xdr: boolean must be 0 or 1, got " + std::to_string(*v));
  return *v == 1;
}

Result<float> XdrReader::get_f32() {
  auto v = get_u32();
  if (!v.ok()) return v.error();
  return std::bit_cast<float>(*v);
}

Result<double> XdrReader::get_f64() {
  auto v = get_u64();
  if (!v.ok()) return v.error();
  return std::bit_cast<double>(*v);
}

Status XdrReader::skip_padding(std::size_t payload) {
  std::size_t pad = xdr_padded(payload) - payload;
  if (auto s = ensure(pad); !s.ok()) return s;
  for (std::size_t i = 0; i < pad; ++i) {
    if (cursor()[i] != 0) return err::parse("xdr: nonzero padding byte");
  }
  pos_ += pad;
  return Status::success();
}

Result<std::vector<std::uint8_t>> XdrReader::get_opaque() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  return get_opaque_fixed(*len);
}

Result<std::vector<std::uint8_t>> XdrReader::get_opaque_fixed(std::size_t n) {
  if (auto s = ensure(n); !s.ok()) return s.error();
  std::vector<std::uint8_t> bytes(cursor(), cursor() + n);
  pos_ += n;
  if (auto s = skip_padding(n); !s.ok()) return s.error();
  return bytes;
}

Result<std::span<const std::uint8_t>> XdrReader::get_opaque_view() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (auto s = ensure(*len); !s.ok()) return s.error();
  auto out = view_.subspan(pos_, *len);
  pos_ += *len;
  if (auto s = skip_padding(*len); !s.ok()) return s.error();
  return out;
}

Result<std::string> XdrReader::get_string() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (auto s = ensure(*len); !s.ok()) return s.error();
  std::string out(reinterpret_cast<const char*>(cursor()), *len);
  pos_ += *len;
  if (auto pad = skip_padding(*len); !pad.ok()) return pad.error();
  return out;
}

Result<std::vector<double>> XdrReader::get_f64_array() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (static_cast<std::size_t>(*len) * 8 > remaining()) {
    return err::parse("xdr: f64 array length " + std::to_string(*len) +
                      " exceeds remaining bytes");
  }
  std::vector<double> out(*len);
  const std::uint8_t* in = cursor();
  for (double& v : out) {
    v = std::bit_cast<double>(load_be64(in));
    in += 8;
  }
  pos_ += out.size() * 8;
  return out;
}

Result<std::vector<float>> XdrReader::get_f32_array() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (static_cast<std::size_t>(*len) * 4 > remaining()) {
    return err::parse("xdr: f32 array length exceeds remaining bytes");
  }
  std::vector<float> out(*len);
  const std::uint8_t* in = cursor();
  for (float& v : out) {
    v = std::bit_cast<float>(load_be32(in));
    in += 4;
  }
  pos_ += out.size() * 4;
  return out;
}

Result<std::vector<std::int32_t>> XdrReader::get_i32_array() {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (static_cast<std::size_t>(*len) * 4 > remaining()) {
    return err::parse("xdr: i32 array length exceeds remaining bytes");
  }
  std::vector<std::int32_t> out(*len);
  const std::uint8_t* in = cursor();
  for (std::int32_t& v : out) {
    v = static_cast<std::int32_t>(load_be32(in));
    in += 4;
  }
  pos_ += out.size() * 4;
  return out;
}

}  // namespace h2::enc
