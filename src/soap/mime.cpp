#include "soap/mime.hpp"

#include <bit>
#include <charconv>

#include "util/strings.hpp"

namespace h2::soap {

namespace {

constexpr const char* kBoundary = "h2-mime-boundary-7f3a91";

/// True for kinds that travel as binary attachments.
bool is_bulk(ValueKind kind) {
  return kind == ValueKind::kDoubleArray || kind == ValueKind::kBytes;
}

/// Attachment byte order for doubles: little-endian IEEE-754, spelled out
/// byte by byte so the wire is the same on any host.
void store_f64_le(char* out, double v) {
  auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(bits >> (8 * i));
}

double load_f64_le(const unsigned char* in) {
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) bits = bits << 8 | in[i];
  return std::bit_cast<double>(bits);
}

/// Appends a bulk value's raw attachment bytes to `body`.
void append_bulk(std::string& body, const Value& value) {
  if (value.kind() == ValueKind::kBytes) {
    auto view = value.bytes_view();
    body.append(reinterpret_cast<const char*>(view.data()), view.size());
    return;
  }
  auto doubles = value.doubles_view();
  std::size_t at = body.size();
  body.resize(at + doubles.size() * 8);
  for (double v : doubles) {
    store_f64_le(body.data() + at, v);
    at += 8;
  }
}

struct Attachment {
  std::string cid;
  const Value* value;  ///< the caller's bulk param, written at assembly
};

/// Writes one parameter into the envelope: bulk values become href stubs
/// whose payload is listed in `attachments`, scalars stay inline.
void write_part(EnvelopeWriter& w, const Value& value, std::string_view element_name,
                std::vector<Attachment>& attachments) {
  if (!is_bulk(value.kind())) {
    w.param(value, element_name);
    return;
  }
  std::string cid = "part" + std::to_string(attachments.size() + 1);
  w.href_param(element_name, "cid:" + cid,
               value.kind() == ValueKind::kDoubleArray ? "xsd:double[]"
                                                       : "xsd:base64Binary");
  attachments.push_back({std::move(cid), &value});
}

/// Assembles the multipart body from the envelope and attachments.
MultipartMessage assemble(const std::string& envelope,
                          const std::vector<Attachment>& attachments) {
  MultipartMessage out;
  out.content_type = std::string("multipart/related; type=\"text/xml\"; boundary=\"") +
                     kBoundary + "\"";
  std::string body;
  std::size_t attachment_bytes = 0;
  for (const Attachment& attachment : attachments) {
    const Value& value = *attachment.value;  // one of the two views is empty
    attachment_bytes += value.bytes_view().size() + value.doubles_view().size_bytes() + 128;
  }
  body.reserve(envelope.size() + attachment_bytes + 256);
  body += "--";
  body += kBoundary;
  body += "\r\nContent-Type: text/xml; charset=utf-8\r\nContent-ID: <root>\r\n\r\n";
  body += envelope;
  for (const Attachment& attachment : attachments) {
    body += "\r\n--";
    body += kBoundary;
    body += "\r\nContent-Type: application/octet-stream\r\nContent-ID: <" +
            attachment.cid + ">\r\n\r\n";
    append_bulk(body, *attachment.value);
  }
  body += "\r\n--";
  body += kBoundary;
  body += "--\r\n";
  out.body = ByteBuffer(body);
  return out;
}

/// Extracts the boundary parameter from a Content-Type value.
Result<std::string> boundary_of(std::string_view content_type) {
  auto pos = content_type.find("boundary=");
  if (pos == std::string_view::npos) {
    return err::parse("mime: Content-Type has no boundary parameter");
  }
  std::string_view rest = content_type.substr(pos + 9);
  if (!rest.empty() && rest.front() == '"') {
    auto close = rest.find('"', 1);
    if (close == std::string_view::npos) return err::parse("mime: unterminated boundary");
    return std::string(rest.substr(1, close - 1));
  }
  auto end = rest.find(';');
  return std::string(str::trim(end == std::string_view::npos ? rest : rest.substr(0, end)));
}

struct Part {
  std::string content_id;  // without <>
  std::string content_type;
  std::string_view body;
};

/// Splits a multipart/related body into parts.
Result<std::vector<Part>> split_parts(std::string_view boundary,
                                      std::span<const std::uint8_t> raw) {
  std::string_view text(reinterpret_cast<const char*>(raw.data()), raw.size());
  std::string open = "--" + std::string(boundary);
  std::vector<Part> parts;

  std::size_t pos = text.find(open);
  if (pos == std::string_view::npos) return err::parse("mime: no opening boundary");
  while (true) {
    pos += open.size();
    if (text.substr(pos, 2) == "--") return parts;  // closing boundary
    if (text.substr(pos, 2) != "\r\n") return err::parse("mime: malformed boundary line");
    pos += 2;
    auto header_end = text.find("\r\n\r\n", pos);
    if (header_end == std::string_view::npos) {
      return err::parse("mime: part without header terminator");
    }
    Part part;
    for (const auto& line : str::split(std::string(text.substr(pos, header_end - pos)), '\n')) {
      auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = str::to_lower(str::trim(std::string_view(line).substr(0, colon)));
      std::string value(str::trim(std::string_view(line).substr(colon + 1)));
      if (name == "content-id") {
        if (value.size() >= 2 && value.front() == '<' && value.back() == '>') {
          value = value.substr(1, value.size() - 2);
        }
        part.content_id = value;
      } else if (name == "content-type") {
        part.content_type = value;
      }
    }
    std::size_t body_start = header_end + 4;
    auto next = text.find("\r\n" + open, body_start);
    if (next == std::string_view::npos) return err::parse("mime: missing next boundary");
    part.body = text.substr(body_start, next - body_start);
    parts.push_back(std::move(part));
    pos = next + 2;
  }
}

const Part* find_part(const std::vector<Part>& parts, std::string_view cid) {
  for (const Part& part : parts) {
    if (part.content_id == cid) return &part;
  }
  return nullptr;
}

/// Rebuilds a bulk value from its attachment part. `xsi_type` is the
/// href element's type as written (empty defaults to base64Binary).
Result<Value> attachment_to_value(const std::vector<Part>& parts, std::string_view href,
                                  std::string_view xsi_type, std::string_view name) {
  if (!str::starts_with(href, "cid:")) {
    return err::parse("mime: unsupported href '" + std::string(href) + "'");
  }
  const Part* part = find_part(parts, href.substr(4));
  if (part == nullptr) {
    return err::parse("mime: dangling attachment reference " + std::string(href));
  }
  if (xsi_type == "xsd:double[]") {
    if (part->body.size() % 8 != 0) {
      return err::parse("mime: double[] attachment not a multiple of 8 bytes");
    }
    std::vector<double> values(part->body.size() / 8);
    const auto* in = reinterpret_cast<const unsigned char*>(part->body.data());
    for (double& v : values) {
      v = load_f64_le(in);
      in += 8;
    }
    return Value::of_doubles(std::move(values), std::string(name));
  }
  return Value::of_bytes(std::vector<std::uint8_t>(part->body.begin(), part->body.end()),
                         std::string(name));
}

/// HrefResolver over a parsed part list, for the shared envelope parser.
HrefResolver make_resolver(const std::vector<Part>& parts) {
  return [&parts](std::string_view href, std::string_view xsi_type,
                  std::string_view name) {
    return attachment_to_value(parts, href, xsi_type, name);
  };
}

/// Finds the root (envelope) part and the attachment list.
Result<std::pair<std::string_view, std::vector<Part>>> open_message(
    std::string_view content_type, std::span<const std::uint8_t> body) {
  auto boundary = boundary_of(content_type);
  if (!boundary.ok()) return boundary.error();
  auto parts = split_parts(*boundary, body);
  if (!parts.ok()) return parts.error();
  if (parts->empty()) return err::parse("mime: no parts");
  // SOAP-with-Attachments: the root part comes first (or is named <root>).
  const Part* root = find_part(*parts, "root");
  if (root == nullptr) root = &parts->front();
  return std::make_pair(root->body, std::move(*parts));
}

}  // namespace

MultipartMessage build_mime_request(std::string_view operation,
                                    std::string_view service_ns,
                                    std::span<const Value> params) {
  std::vector<Attachment> attachments;
  std::string envelope;
  EnvelopeWriter w(envelope);
  w.envelope_open();
  w.body_open();
  w.call_open(operation, service_ns, /*response=*/false);
  int position = 0;
  for (const Value& p : params) {
    if (!p.name().empty()) {
      write_part(w, p, p.name(), attachments);
    } else {
      char buf[16] = {'a', 'r', 'g'};
      auto [end, ec] = std::to_chars(buf + 3, buf + sizeof buf, position);
      write_part(w, p, std::string_view(buf, static_cast<std::size_t>(end - buf)),
                 attachments);
    }
    ++position;
  }
  w.call_close(operation, /*response=*/false);
  w.body_close();
  w.envelope_close();
  return assemble(envelope, attachments);
}

MultipartMessage build_mime_response(std::string_view operation,
                                     std::string_view service_ns, const Value& result) {
  std::vector<Attachment> attachments;
  std::string envelope;
  EnvelopeWriter w(envelope);
  w.envelope_open();
  w.body_open();
  w.call_open(operation, service_ns, /*response=*/true);
  write_part(w, result, "return", attachments);
  w.call_close(operation, /*response=*/true);
  w.body_close();
  w.envelope_close();
  return assemble(envelope, attachments);
}

MultipartMessage build_mime_fault(const Fault& fault) {
  return assemble(build_fault(fault), {});
}

Result<RpcCall> parse_mime_request(std::string_view content_type,
                                   std::span<const std::uint8_t> body) {
  auto message = open_message(content_type, body);
  if (!message.ok()) return message.error();
  const auto& [envelope_text, parts] = *message;
  HrefResolver resolver = make_resolver(parts);
  return parse_request(envelope_text, &resolver);
}

Result<RpcReply> parse_mime_reply(std::string_view content_type,
                                  std::span<const std::uint8_t> body) {
  auto message = open_message(content_type, body);
  if (!message.ok()) return message.error();
  const auto& [envelope_text, parts] = *message;
  HrefResolver resolver = make_resolver(parts);
  return parse_reply(envelope_text, &resolver);
}

}  // namespace h2::soap
