#include "soap/envelope.hpp"

#include <algorithm>
#include <charconv>
#include <optional>

#include "encoding/base64.hpp"
#include "util/strings.hpp"
#include "xml/escape.hpp"
#include "xml/pull_parser.hpp"

namespace h2::soap {

namespace {

/// Longest `<item>…</item>` a double array writes: the tags plus the
/// longest shortest-round-trip double (24 chars, "-2.2250738585072014e-308").
constexpr std::size_t kMaxItemBytes = 6 + 24 + 7;

/// Appends a number with std::to_chars (shortest round-trip form for
/// doubles — same digits str::format_double produces).
void append_double(std::string& out, double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

// ---- writer --------------------------------------------------------------------

void EnvelopeWriter::envelope_open() {
  out_ += "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"";
  out_ += kEnvelopeNs;
  out_ += "\" xmlns:SOAP-ENC=\"";
  out_ += kEncodingNs;
  out_ += "\" xmlns:xsd=\"";
  out_ += kXsdNs;
  out_ += "\" xmlns:xsi=\"";
  out_ += kXsiNs;
  out_ += "\">";
}

void EnvelopeWriter::headers(std::span<const HeaderEntry> entries) {
  if (entries.empty()) return;
  out_ += "<SOAP-ENV:Header>";
  int hdr_index = 0;
  for (const HeaderEntry& entry : entries) {
    char prefix[16] = {'h'};
    auto [pend, ec] = std::to_chars(prefix + 1, prefix + sizeof prefix, hdr_index++);
    std::string_view pfx(prefix, static_cast<std::size_t>(pend - prefix));
    out_.push_back('<');
    out_ += pfx;
    out_.push_back(':');
    out_ += entry.name;
    out_ += " xmlns:";
    out_ += pfx;
    out_ += "=\"";
    xml::escape_attr_to(out_, entry.ns);
    out_.push_back('"');
    if (entry.must_understand) out_ += " SOAP-ENV:mustUnderstand=\"1\"";
    if (!entry.actor.empty()) {
      out_ += " SOAP-ENV:actor=\"";
      xml::escape_attr_to(out_, entry.actor);
      out_.push_back('"');
    }
    out_.push_back('>');
    xml::escape_text_to(out_, entry.value);
    out_ += "</";
    out_ += pfx;
    out_.push_back(':');
    out_ += entry.name;
    out_.push_back('>');
  }
  out_ += "</SOAP-ENV:Header>";
}

void EnvelopeWriter::body_open() { out_ += "<SOAP-ENV:Body>"; }

void EnvelopeWriter::call_open(std::string_view operation, std::string_view service_ns,
                               bool response) {
  out_ += "<m:";
  out_ += operation;
  if (response) out_ += "Response";
  out_ += " xmlns:m=\"";
  xml::escape_attr_to(out_, service_ns);
  out_ += "\">";
}

void EnvelopeWriter::param(const Value& value, std::string_view element_name) {
  out_.push_back('<');
  out_ += element_name;
  switch (value.kind()) {
    case ValueKind::kVoid:
      out_ += " xsi:nil=\"true\"/>";
      return;
    case ValueKind::kBool:
      out_ += " xsi:type=\"xsd:boolean\">";
      out_ += value.as_bool().value() ? "true" : "false";
      break;
    case ValueKind::kInt:
      out_ += " xsi:type=\"xsd:long\">";
      append_int(out_, value.as_int().value());
      break;
    case ValueKind::kDouble:
      out_ += " xsi:type=\"xsd:double\">";
      append_double(out_, value.as_double().value());
      break;
    case ValueKind::kString:
      out_ += " xsi:type=\"xsd:string\">";
      xml::escape_text_to(out_, value.string_view());
      break;
    case ValueKind::kDoubleArray: {
      auto items = value.doubles_view();
      out_ += " xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[";
      append_int(out_, static_cast<std::int64_t>(items.size()));
      out_ += "]\"";
      if (items.empty()) {
        out_ += "/>";
        return;
      }
      out_.push_back('>');
      // Items are written in place into storage sized once for the
      // longest form, then the string is cut back to what was written.
      constexpr std::string_view kOpen = "<item>";
      constexpr std::string_view kClose = "</item>";
      const std::size_t start = out_.size();
      out_.resize(start + items.size() * kMaxItemBytes);
      char* cursor = out_.data() + start;
      char* const end = out_.data() + out_.size();
      for (double v : items) {
        cursor = std::copy(kOpen.begin(), kOpen.end(), cursor);
        cursor = std::to_chars(cursor, end, v).ptr;
        cursor = std::copy(kClose.begin(), kClose.end(), cursor);
      }
      out_.resize(static_cast<std::size_t>(cursor - out_.data()));
      break;
    }
    case ValueKind::kBytes:
      out_ += " xsi:type=\"xsd:base64Binary\">";
      enc::base64_encode_to(out_, value.bytes_view());
      break;
  }
  out_ += "</";
  out_ += element_name;
  out_.push_back('>');
}

void EnvelopeWriter::href_param(std::string_view element_name, std::string_view cid,
                                std::string_view xsi_type) {
  out_.push_back('<');
  out_ += element_name;
  out_ += " href=\"";
  xml::escape_attr_to(out_, cid);
  out_ += "\" xsi:type=\"";
  xml::escape_attr_to(out_, xsi_type);
  out_ += "\"/>";
}

void EnvelopeWriter::call_close(std::string_view operation, bool response) {
  out_ += "</m:";
  out_ += operation;
  if (response) out_ += "Response";
  out_.push_back('>');
}

void EnvelopeWriter::body_close() { out_ += "</SOAP-ENV:Body>"; }

void EnvelopeWriter::envelope_close() { out_ += "</SOAP-ENV:Envelope>"; }

void EnvelopeWriter::fault(const Fault& f) {
  out_ += "<SOAP-ENV:Fault><faultcode>SOAP-ENV:";
  xml::escape_text_to(out_, f.code);
  out_ += "</faultcode><faultstring>";
  xml::escape_text_to(out_, f.message);
  out_ += "</faultstring>";
  if (!f.detail.empty()) {
    out_ += "<detail>";
    xml::escape_text_to(out_, f.detail);
    out_ += "</detail>";
  }
  out_ += "</SOAP-ENV:Fault>";
}

std::size_t EnvelopeWriter::estimate(const Value& value, std::size_t name_len) {
  std::size_t fixed = 2 * name_len + 40;  // tags + xsi:type attribute
  switch (value.kind()) {
    case ValueKind::kDoubleArray:
      return fixed + 40 + value.doubles_view().size() * kMaxItemBytes;
    case ValueKind::kBytes:
      return fixed + enc::base64_encoded_size(value.bytes_view().size());
    case ValueKind::kString:
      return fixed + value.string_view().size() + value.string_view().size() / 8;
    default:
      return fixed + 32;
  }
}

// ---- building ------------------------------------------------------------------

namespace {

constexpr std::size_t kEnvelopeOverhead = 256;

/// Writes one request parameter, defaulting unnamed params to argN.
void write_param(EnvelopeWriter& w, const Value& p, int position) {
  if (!p.name().empty()) {
    w.param(p, p.name());
    return;
  }
  char buf[16] = {'a', 'r', 'g'};
  auto [end, ec] = std::to_chars(buf + 3, buf + sizeof buf, position);
  w.param(p, std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

}  // namespace

void build_batch_request_into(std::string& out, std::string_view service_ns,
                              std::span<const BatchCall> calls,
                              std::span<const HeaderEntry> headers) {
  out.clear();
  std::size_t est = kEnvelopeOverhead + service_ns.size();
  for (const HeaderEntry& h : headers) {
    est += 2 * h.name.size() + h.ns.size() + h.value.size() + h.actor.size() + 64;
  }
  for (const BatchCall& call : calls) {
    est += 2 * call.operation.size() + 32;
    for (const Value& p : call.params) {
      est += EnvelopeWriter::estimate(p, p.name().empty() ? 5 : p.name().size());
    }
  }
  if (out.capacity() < est) out.reserve(est);
  EnvelopeWriter w(out);
  w.envelope_open();
  w.headers(headers);
  w.body_open();
  for (const BatchCall& call : calls) {
    w.call_open(call.operation, service_ns, /*response=*/false);
    int position = 0;
    for (const Value& p : call.params) write_param(w, p, position++);
    w.call_close(call.operation, /*response=*/false);
  }
  w.body_close();
  w.envelope_close();
}

void build_request_into(std::string& out, std::string_view operation,
                        std::string_view service_ns, std::span<const Value> params,
                        std::span<const HeaderEntry> headers) {
  const BatchCall call{operation, params};
  build_batch_request_into(out, service_ns, {&call, 1}, headers);
}

void build_response_into(std::string& out, std::string_view operation,
                         std::string_view service_ns, const Value& result) {
  out.clear();
  std::size_t est = kEnvelopeOverhead + 2 * operation.size() + service_ns.size() +
                    EnvelopeWriter::estimate(result, 6);
  if (out.capacity() < est) out.reserve(est);
  EnvelopeWriter w(out);
  w.envelope_open();
  w.body_open();
  w.call_open(operation, service_ns, /*response=*/true);
  w.param(result, "return");
  w.call_close(operation, /*response=*/true);
  w.body_close();
  w.envelope_close();
}

void build_fault_into(std::string& out, const Fault& fault) {
  out.clear();
  EnvelopeWriter w(out);
  w.envelope_open();
  w.body_open();
  w.fault(fault);
  w.body_close();
  w.envelope_close();
}

std::string build_request(std::string_view operation, std::string_view service_ns,
                          std::span<const Value> params,
                          std::span<const HeaderEntry> headers) {
  std::string out;
  build_request_into(out, operation, service_ns, params, headers);
  return out;
}

std::string build_response(std::string_view operation, std::string_view service_ns,
                           const Value& result) {
  std::string out;
  build_response_into(out, operation, service_ns, result);
  return out;
}

std::string build_fault(const Fault& fault) {
  std::string out;
  build_fault_into(out, fault);
  return out;
}

// ---- parsing -------------------------------------------------------------------

namespace {

using xml::PullParser;
using xml::Token;

/// Scratch buffers threaded through the parse so steady-state decoding
/// never allocates (they only grow when content actually holds entities
/// or spans multiple text runs).
struct ParseScratch {
  std::string text;
  std::string attr;
};

/// Reads one parameter/return element (parser positioned on its start
/// tag) into a Value, consuming through the matching end tag. The type
/// comes from xsi:type, falling back to shape inference when untyped.
Result<Value> read_param(PullParser& p, const HrefResolver* resolver,
                         ParseScratch& scratch) {
  std::string name(p.local_name());

  // Collect attributes up front: next() invalidates them.
  bool nil = p.raw_attr("xsi:nil").has_value();
  auto type_attr = p.attr("xsi:type", scratch.attr);
  if (!type_attr.ok()) return type_attr.error();
  std::string full_type;
  std::string type;
  if (*type_attr) {
    full_type.assign(**type_attr);
    auto colon = full_type.find(':');
    type = colon == std::string::npos ? full_type : full_type.substr(colon + 1);
  }
  auto array_attr = p.raw_attr("SOAP-ENC:arrayType");

  if (resolver != nullptr) {
    auto href = p.attr("href", scratch.attr);
    if (!href.ok()) return href.error();
    if (*href) {
      std::string href_value(**href);
      auto skipped = p.skip_element();
      if (!skipped.ok()) return skipped.error();
      return (*resolver)(href_value, full_type, name);
    }
  }

  if (nil) {
    auto skipped = p.skip_element();
    if (!skipped.ok()) return skipped.error();
    return Value::of_void(std::move(name));
  }

  if (type == "Array" || array_attr.has_value()) {
    std::vector<double> values;
    // "xsd:double[65536]": the declared count, when it parses, must match
    // the items read. It pre-sizes the vector, capped so a hostile header
    // can't force a huge allocation before parsing.
    std::optional<std::int64_t> declared;
    if (array_attr) {
      auto lb = array_attr->find('[');
      auto rb = array_attr->find(']');
      if (lb != std::string_view::npos && rb != std::string_view::npos && rb > lb + 1) {
        auto n = str::parse_i64(array_attr->substr(lb + 1, rb - lb - 1));
        if (n.ok()) declared = *n;
      }
    }
    if (declared && *declared > 0) {
      values.reserve(static_cast<std::size_t>(std::min<std::int64_t>(*declared, 1 << 22)));
    }
    int base = p.depth();
    while (true) {
      // An exact <item>digits</item> is read in one step; any other shape
      // takes the general walk below.
      std::optional<std::string_view> text = p.next_leaf("item");
      if (!text) {
        auto t = p.next();
        if (!t.ok()) return t.error();
        if (*t == Token::kEndElement && p.depth() == base - 1) break;
        if (*t != Token::kStartElement) continue;
        if (p.local_name() != "item") {
          auto skipped = p.skip_element();
          if (!skipped.ok()) return skipped.error();
          continue;
        }
        auto inner = p.inner_text(scratch.text);
        if (!inner.ok()) return inner.error();
        text = *inner;
      }
      auto v = str::parse_double(str::trim(*text));
      if (!v.ok()) return v.error().context("soap array item in <" + name + ">");
      values.push_back(*v);
    }
    if (declared && *declared != static_cast<std::int64_t>(values.size())) {
      return err::parse("soap: array <" + name + "> declares " + std::to_string(*declared) +
                        " items, holds " + std::to_string(values.size()));
    }
    return Value::of_doubles(std::move(values), std::move(name));
  }

  if (type == "base64Binary") {
    auto text = p.inner_text(scratch.text);
    if (!text.ok()) return text.error();
    auto bytes = enc::base64_decode(str::trim(*text));
    if (!bytes.ok()) return bytes.error().context("soap base64 in <" + name + ">");
    return Value::of_bytes(std::move(*bytes), std::move(name));
  }
  if (type == "boolean") {
    auto raw = p.inner_text(scratch.text);
    if (!raw.ok()) return raw.error();
    auto text = str::trim(*raw);
    if (text == "true" || text == "1") return Value::of_bool(true, std::move(name));
    if (text == "false" || text == "0") return Value::of_bool(false, std::move(name));
    return err::parse("soap: bad boolean '" + std::string(text) + "'");
  }
  if (type == "long" || type == "int" || type == "integer" || type == "short") {
    auto text = p.inner_text(scratch.text);
    if (!text.ok()) return text.error();
    auto v = str::parse_i64(str::trim(*text));
    if (!v.ok()) return v.error().context("soap integer in <" + name + ">");
    return Value::of_int(*v, std::move(name));
  }
  if (type == "double" || type == "float" || type == "decimal") {
    auto text = p.inner_text(scratch.text);
    if (!text.ok()) return text.error();
    auto v = str::parse_double(str::trim(*text));
    if (!v.ok()) return v.error().context("soap double in <" + name + ">");
    return Value::of_double(*v, std::move(name));
  }
  if (type == "string" || type.empty()) {
    auto text = p.inner_text(scratch.text);
    if (!text.ok()) return text.error();
    return Value::of_string(std::string(*text), std::move(name));
  }
  return err::unsupported("soap: unsupported xsi:type '" + type + "'");
}

/// Reads one <Header> child element (parser on its start tag).
Result<HeaderEntry> read_header(PullParser& p, ParseScratch& scratch) {
  HeaderEntry entry;
  entry.name.assign(p.local_name());
  if (auto ns = p.namespace_uri()) entry.ns.assign(*ns);
  // Envelope-namespace attributes, regardless of the producer's prefix.
  for (const xml::PullAttribute& attr : p.attributes()) {
    auto colon = attr.name.find(':');
    std::string_view local =
        colon == std::string_view::npos ? attr.name : attr.name.substr(colon + 1);
    if (local != "mustUnderstand" && local != "actor") continue;
    std::string_view prefix =
        colon == std::string_view::npos ? std::string_view{} : attr.name.substr(0, colon);
    auto ns = p.resolve_namespace(prefix);
    if (!ns || *ns != kEnvelopeNs) continue;
    std::string_view value = attr.raw_value;
    std::string decoded;
    if (value.find('&') != std::string_view::npos) {
      auto status = xml::decode_entities_to(value, decoded);
      if (!status.ok()) return status.error();
      value = decoded;
    }
    if (local == "mustUnderstand") {
      entry.must_understand = (value == "1" || value == "true");
    } else {
      entry.actor.assign(value);
    }
  }
  auto text = p.inner_text(scratch.text);
  if (!text.ok()) return text.error();
  entry.value.assign(*text);
  return entry;
}

/// Advances to the root start tag and checks it is a SOAP 1.1 Envelope.
Status open_envelope(PullParser& p) {
  auto first = p.next();
  if (!first.ok()) return first.error();
  if (p.local_name() != "Envelope") {
    return err::parse("soap: root element is <" + std::string(p.name()) +
                      ">, expected Envelope");
  }
  auto ns = p.namespace_uri();
  if (!ns || *ns != kEnvelopeNs) {
    return err::parse("soap: Envelope not in SOAP 1.1 namespace");
  }
  return Status::success();
}

/// Consumes epilog misc after the envelope's end tag; any real content is
/// a parse error.
Status close_document(PullParser& p) {
  auto tail = p.next();
  if (!tail.ok()) return tail.error();
  return Status::success();
}

/// Parses an entire <Header> element (parser on its start tag).
Status read_headers(PullParser& p, ParseScratch& scratch,
                    std::vector<HeaderEntry>& out) {
  int base = p.depth();
  if (p.self_closing()) {
    return p.skip_element();
  }
  while (true) {
    auto t = p.next();
    if (!t.ok()) return t.error();
    if (*t == Token::kEndElement && p.depth() == base - 1) return Status::success();
    if (*t != Token::kStartElement) continue;
    auto entry = read_header(p, scratch);
    if (!entry.ok()) return entry.error();
    out.push_back(std::move(*entry));
  }
}

/// Reads the children of a <Fault> element (parser on its start tag).
Result<Fault> read_fault(PullParser& p, ParseScratch& scratch) {
  Fault fault;
  bool have_code = false, have_string = false, have_detail = false;
  int base = p.depth();
  if (p.self_closing()) {
    auto st = p.skip_element();
    if (!st.ok()) return st.error();
    return fault;
  }
  while (true) {
    auto t = p.next();
    if (!t.ok()) return t.error();
    if (*t == Token::kEndElement && p.depth() == base - 1) return fault;
    if (*t != Token::kStartElement) continue;
    std::string_view local = p.local_name();
    if (local == "faultcode" && !have_code) {
      have_code = true;
      auto text = p.inner_text(scratch.text);
      if (!text.ok()) return text.error();
      std::string_view code = *text;
      if (auto colon = code.find(':'); colon != std::string_view::npos) {
        code = code.substr(colon + 1);
      }
      fault.code.assign(code);
    } else if (local == "faultstring" && !have_string) {
      have_string = true;
      auto text = p.inner_text(scratch.text);
      if (!text.ok()) return text.error();
      fault.message.assign(*text);
    } else if (local == "detail" && !have_detail) {
      have_detail = true;
      auto text = p.inner_text(scratch.text);
      if (!text.ok()) return text.error();
      fault.detail.assign(*text);
    } else {
      auto st = p.skip_element();
      if (!st.ok()) return st.error();
    }
  }
}

}  // namespace

Result<BatchRpcCall> parse_batch_request(std::string_view envelope_xml,
                                         const HrefResolver* resolver) {
  PullParser p(envelope_xml);
  ParseScratch scratch;
  if (auto st = open_envelope(p); !st.ok()) return st.error().context("soap request");

  BatchRpcCall out;
  bool seen_header = false;
  bool seen_body = false;
  while (true) {
    auto t = p.next();
    if (!t.ok()) return t.error().context("soap request");
    if (*t == Token::kEndElement && p.depth() == 0) break;
    if (*t != Token::kStartElement) continue;

    if (p.local_name() == "Header" && !seen_header) {
      seen_header = true;
      auto st = read_headers(p, scratch, out.headers);
      if (!st.ok()) return st.error().context("soap request");
      continue;
    }
    if (p.local_name() == "Body" && !seen_body) {
      seen_body = true;
      if (p.self_closing()) {
        auto st = p.skip_element();
        if (!st.ok()) return st.error().context("soap request");
        continue;
      }
      while (true) {
        auto bt = p.next();
        if (!bt.ok()) return bt.error().context("soap request");
        if (*bt == Token::kEndElement && p.depth() == 1) break;
        if (*bt != Token::kStartElement) continue;
        BatchRpcCall::Call call;
        call.operation.assign(p.local_name());
        if (auto ns = p.namespace_uri(); ns && out.service_ns.empty()) {
          out.service_ns.assign(*ns);
        }
        if (p.self_closing()) {
          auto st = p.skip_element();
          if (!st.ok()) return st.error().context("soap request");
          out.calls.push_back(std::move(call));
          continue;
        }
        while (true) {
          auto pt = p.next();
          if (!pt.ok()) return pt.error().context("soap request");
          if (*pt == Token::kEndElement && p.depth() == 2) break;
          if (*pt != Token::kStartElement) continue;
          auto v = read_param(p, resolver, scratch);
          if (!v.ok()) return v.error().context("parameter of " + call.operation);
          call.params.push_back(std::move(*v));
        }
        out.calls.push_back(std::move(call));
      }
      continue;
    }
    // Extra Body/Header elements or foreign envelope children: skip whole.
    auto st = p.skip_element();
    if (!st.ok()) return st.error().context("soap request");
  }
  if (auto st = close_document(p); !st.ok()) return st.error().context("soap request");

  if (!seen_body) return err::parse("soap: missing Body");
  return out;
}

Result<std::vector<RpcReply>> parse_batch_reply(std::string_view envelope_xml,
                                                const HrefResolver* resolver) {
  PullParser p(envelope_xml);
  ParseScratch scratch;
  if (auto st = open_envelope(p); !st.ok()) return st.error().context("soap reply");

  std::vector<RpcReply> out;
  bool seen_body = false;
  while (true) {
    auto t = p.next();
    if (!t.ok()) return t.error().context("soap reply");
    if (*t == Token::kEndElement && p.depth() == 0) break;
    if (*t != Token::kStartElement) continue;

    if (p.local_name() == "Body" && !seen_body) {
      seen_body = true;
      if (p.self_closing()) {
        auto st = p.skip_element();
        if (!st.ok()) return st.error().context("soap reply");
        continue;
      }
      while (true) {
        auto bt = p.next();
        if (!bt.ok()) return bt.error().context("soap reply");
        if (*bt == Token::kEndElement && p.depth() == 1) break;
        if (*bt != Token::kStartElement) continue;

        if (p.local_name() == "Fault") {
          auto fault = read_fault(p, scratch);
          if (!fault.ok()) return fault.error().context("soap reply");
          out.push_back(RpcReply{std::move(*fault)});
          continue;
        }

        // <opResponse>: the first child element is the return value; a
        // void response has none.
        RpcReply reply{Value::of_void("return")};
        if (p.self_closing()) {
          auto st = p.skip_element();
          if (!st.ok()) return st.error().context("soap reply");
          out.push_back(std::move(reply));
          continue;
        }
        bool have_value = false;
        int base = p.depth();
        while (true) {
          auto rt = p.next();
          if (!rt.ok()) return rt.error().context("soap reply");
          if (*rt == Token::kEndElement && p.depth() == base - 1) break;
          if (*rt != Token::kStartElement) continue;
          if (have_value) {
            auto st = p.skip_element();
            if (!st.ok()) return st.error().context("soap reply");
            continue;
          }
          have_value = true;
          auto v = read_param(p, resolver, scratch);
          if (!v.ok()) return v.error().context("soap return value");
          reply = RpcReply{std::move(*v)};
        }
        out.push_back(std::move(reply));
      }
      continue;
    }
    auto st = p.skip_element();
    if (!st.ok()) return st.error().context("soap reply");
  }
  if (auto st = close_document(p); !st.ok()) return st.error().context("soap reply");

  if (!seen_body) return err::parse("soap: missing Body");
  return out;
}

Result<RpcCall> parse_request(std::string_view envelope_xml, const HrefResolver* resolver) {
  auto batch = parse_batch_request(envelope_xml, resolver);
  if (!batch.ok()) return batch.error();
  if (batch->calls.size() != 1) {
    return err::parse("soap: request Body must contain exactly one operation element");
  }
  BatchRpcCall::Call& call = batch->calls.front();
  return RpcCall{std::move(call.operation), std::move(batch->service_ns),
                 std::move(batch->headers), std::move(call.params)};
}

Result<RpcReply> parse_reply(std::string_view envelope_xml, const HrefResolver* resolver) {
  auto replies = parse_batch_reply(envelope_xml, resolver);
  if (!replies.ok()) return replies.error();
  if (replies->size() != 1) {
    return err::parse("soap: reply Body must contain exactly one element");
  }
  return std::move(replies->front());
}

}  // namespace h2::soap
