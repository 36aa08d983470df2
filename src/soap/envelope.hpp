// SOAP 1.1 envelopes: RPC-style requests/responses and faults, built from
// and parsed into the cross-binding h2::Value model. The XML produced here
// is genuine SOAP 1.1 (Envelope/Body, SOAP-ENC arrays, xsi types); the
// parser accepts anything this builder emits plus reasonable variations
// (prefix choice, attribute order, whitespace).
//
// Fast path: building streams through EnvelopeWriter (single pass, one
// size-estimated buffer, no DOM); parsing streams through xml::PullParser
// (no DOM allocation, numeric payloads go straight from input slices to
// doubles via from_chars).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "encoding/value.hpp"
#include "util/error.hpp"

namespace h2::soap {

// Standard namespace URIs.
inline constexpr const char* kEnvelopeNs = "http://schemas.xmlsoap.org/soap/envelope/";
inline constexpr const char* kEncodingNs = "http://schemas.xmlsoap.org/soap/encoding/";
inline constexpr const char* kXsdNs = "http://www.w3.org/2001/XMLSchema";
inline constexpr const char* kXsiNs = "http://www.w3.org/2001/XMLSchema-instance";

/// SOAP 1.1 fault. `code` is the qualified fault code local part
/// ("Client", "Server", "VersionMismatch", "MustUnderstand").
struct Fault {
  std::string code;
  std::string message;  // <faultstring>
  std::string detail;   // flattened <detail> text, optional

  std::string describe() const { return code + ": " + message; }
};

/// One SOAP Header entry. `must_understand` maps to soap:mustUnderstand;
/// a receiver that does not recognize such a header MUST fault with
/// MustUnderstand (SOAP 1.1 §4.2.3) — enforced by SoapHttpServer.
struct HeaderEntry {
  std::string name;             ///< element local name ("TransactionId")
  std::string ns;               ///< header namespace URI
  std::string value;            ///< text content
  bool must_understand = false;
  std::string actor;            ///< optional SOAP-ENV:actor URI

  bool operator==(const HeaderEntry&) const = default;
};

/// A decoded RPC request: the operation element's local name, its
/// namespace URI, header entries, and the child parameters in order.
struct RpcCall {
  std::string operation;
  std::string service_ns;
  std::vector<HeaderEntry> headers;
  std::vector<Value> params;
};

/// A decoded RPC reply: either the (single) return value or a fault.
struct RpcReply {
  std::variant<Value, Fault> payload;

  bool is_fault() const { return std::holds_alternative<Fault>(payload); }
  const Fault& fault() const { return std::get<Fault>(payload); }
  const Value& value() const { return std::get<Value>(payload); }
};

// ---- building -----------------------------------------------------------------

/// Serializes an RPC request envelope. `operation` becomes the body child
/// element in namespace `service_ns`; params become its children.
std::string build_request(std::string_view operation, std::string_view service_ns,
                          std::span<const Value> params);

/// As above, with SOAP Header entries.
std::string build_request(std::string_view operation, std::string_view service_ns,
                          std::span<const Value> params,
                          std::span<const HeaderEntry> headers);

/// Serializes an RPC response envelope (`<opResponse><return .../></op…>`).
std::string build_response(std::string_view operation, std::string_view service_ns,
                           const Value& result);

/// Serializes a fault envelope.
std::string build_fault(const Fault& fault);

/// Buffer-reusing forms: clear `out` and build into it, preserving its
/// capacity. Steady-state callers (channels, the SOAP HTTP server) keep
/// one scratch string alive so repeated calls stop allocating.
void build_request_into(std::string& out, std::string_view operation,
                        std::string_view service_ns, std::span<const Value> params,
                        std::span<const HeaderEntry> headers = {});
void build_response_into(std::string& out, std::string_view operation,
                         std::string_view service_ns, const Value& result);
void build_fault_into(std::string& out, const Fault& fault);

/// Single-pass envelope writer. Appends SOAP 1.1 fragments to a
/// caller-owned string; text/attribute content is escaped with a bulk-run
/// scanner and numbers are formatted with std::to_chars. Produces the same
/// bytes the DOM builder+writer used to. The mime binding drives it
/// directly so attachments can replace bulk params with href stubs.
class EnvelopeWriter {
 public:
  explicit EnvelopeWriter(std::string& out) : out_(out) {}

  void envelope_open();
  void headers(std::span<const HeaderEntry> entries);  ///< no-op when empty
  void body_open();
  /// `<m:{op}{Response?} xmlns:m="ns">`
  void call_open(std::string_view operation, std::string_view service_ns,
                 bool response);
  /// One parameter/return element, chosen by the value's kind.
  void param(const Value& value, std::string_view element_name);
  /// SOAP-with-Attachments stub: `<name href="cid:..." xsi:type="..."/>`.
  void href_param(std::string_view element_name, std::string_view cid,
                  std::string_view xsi_type);
  void call_close(std::string_view operation, bool response);
  void body_close();
  void envelope_close();
  /// Complete `<SOAP-ENV:Fault>` element (inside an open body).
  void fault(const Fault& fault);

  /// Bytes a param() call for `value` will need, for up-front reserve().
  static std::size_t estimate(const Value& value, std::size_t name_len);

 private:
  std::string& out_;
};

// ---- parsing -------------------------------------------------------------------

/// Parses a request envelope into an RpcCall.
Result<RpcCall> parse_request(std::string_view envelope_xml);

/// Parses a response envelope into an RpcReply (result or fault).
Result<RpcReply> parse_reply(std::string_view envelope_xml);

/// Resolves a SOAP-with-Attachments parameter that carries an href
/// attribute instead of inline content. Receives the href value as
/// written ("cid:part1"), the element's xsi:type as written (empty when
/// absent), and the element's local name. Used by soap::mime.
using HrefResolver = std::function<Result<Value>(
    std::string_view href, std::string_view xsi_type, std::string_view name)>;

/// As parse_request/parse_reply, delegating href-carrying parameters to
/// `resolver` (nullptr behaves like the plain overloads: href is ignored
/// and the element parses by xsi:type as usual).
Result<RpcCall> parse_request(std::string_view envelope_xml,
                              const HrefResolver* resolver);
Result<RpcReply> parse_reply(std::string_view envelope_xml,
                             const HrefResolver* resolver);

// ---- batching -----------------------------------------------------------------
// A batch envelope is ordinary SOAP 1.1 with REPEATED operation elements
// in one Body — one HTTP round trip carries N calls. The transport layer
// marks batches with headers (net::kBatchCountHeaderName et al.); this
// layer only builds/parses the repeated-element shape.

/// One sub-call of a batch request (views into caller-owned storage).
struct BatchCall {
  std::string_view operation;
  std::span<const Value> params;
};

/// A decoded multi-call request: shared headers plus the Body's operation
/// elements in order. `service_ns` is the first operation's namespace
/// (sub-calls of one service share it). A singleton request parses as a
/// one-element batch.
struct BatchRpcCall {
  std::string service_ns;
  std::vector<HeaderEntry> headers;
  struct Call {
    std::string operation;
    std::vector<Value> params;
  };
  std::vector<Call> calls;
};

/// Serializes a batch request: each call becomes one operation element of
/// a single Body; `headers` are shared by the whole batch. Clears `out`
/// and reuses its capacity, like build_request_into.
void build_batch_request_into(std::string& out, std::string_view service_ns,
                              std::span<const BatchCall> calls,
                              std::span<const HeaderEntry> headers = {});

/// Parses a request Body carrying ANY number of operation elements (the
/// strict parse_request is the exactly-one special case).
Result<BatchRpcCall> parse_batch_request(std::string_view envelope_xml);

/// Parses a reply Body carrying one element per sub-call (opResponse or
/// Fault), in order.
Result<std::vector<RpcReply>> parse_batch_reply(std::string_view envelope_xml);

}  // namespace h2::soap
