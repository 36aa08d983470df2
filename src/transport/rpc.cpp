#include "transport/rpc.hpp"

#include "obs/trace.hpp"
#include "resilience/dedup.hpp"
#include "soap/envelope.hpp"
#include "soap/mime.hpp"
#include "transport/http.hpp"
#include "transport/marshal.hpp"

namespace h2::net {

namespace {

/// Maps a dispatch error to a SOAP fault code: caller mistakes are Client,
/// everything else is Server.
const char* fault_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kParseError:
    case ErrorCode::kNotFound:
      return "Client";
    default:
      return "Server";
  }
}

ErrorCode error_code_for_fault(const std::string& fault_code) {
  return fault_code == "Client" ? ErrorCode::kInvalidArgument : ErrorCode::kUnavailable;
}

/// Turns a decoded SOAP/MIME reply into a call result; a fault becomes an
/// error whose message starts with `fault_prefix`.
Result<Value> to_result(soap::RpcReply reply, std::string_view fault_prefix) {
  if (reply.is_fault()) {
    return Error(error_code_for_fault(reply.fault().code),
                 std::string(fault_prefix) + reply.fault().describe());
  }
  return std::move(std::get<Value>(reply.payload));
}

/// Names a failed round trip in its error: "xdr call add", "soap batch".
std::string round_trip_context(std::string_view binding, std::string_view operation,
                               bool batch) {
  return std::string(binding) + (batch ? " batch" : " call " + std::string(operation));
}

/// Gives every pending sub-call the same transport-level verdict.
void fill_results(std::vector<Result<Value>>& results, std::size_t count,
                  const Error& error) {
  results.clear();
  results.assign(count, Result<Value>(error));
}

/// Unmarshal -> dedup -> dispatch for one call frame, appending its
/// "H2RP" reply frame to `out`. That frame is the XDR binding's cached
/// unit, so a replayed call id gets the same bytes whether it arrives
/// alone or inside a batch.
void serve_call(std::span<const std::uint8_t> frame, Dispatcher& dispatcher,
                resil::DedupCache* dedup, enc::XdrWriter& out) {
  auto call = unmarshal_call(frame);
  if (!call.ok()) {
    marshal_reply_into(out, call.error().context("xdr server"));
    return;
  }
  const bool keyed = dedup != nullptr && !call->call_id.empty();
  if (keyed) {
    if (auto cached = dedup->lookup(call->call_id)) {
      out.buffer().write_bytes(cached->bytes());
      return;
    }
  }
  const std::size_t start = out.size();
  marshal_reply_into(out, dispatcher.dispatch(call->operation, call->params));
  if (!keyed) return;
  // Cache faults too: the dispatcher ran, and a duplicate must see the
  // same outcome rather than a second execution.
  ByteBuffer reply;
  reply.write_bytes(out.buffer().bytes().subspan(start));
  dedup->store(call->call_id, std::move(reply));
}

/// The server half of the XDR binding, shared by serve_xdr and the raw
/// HTTP mount. A singleton call frame gets its "H2RP" reply; an "H2RB"
/// batch runs its sub-calls in order and gets an "H2RZ" frame of
/// length-prefixed "H2RP" sub-replies. `scratch` donates its capacity.
ByteBuffer serve_xdr_frame(std::span<const std::uint8_t> raw, Dispatcher& dispatcher,
                           resil::DedupCache* dedup, ByteBuffer scratch) {
  scratch.clear();
  enc::XdrWriter out(std::move(scratch));
  if (!is_batch_call(raw)) {
    serve_call(raw, dispatcher, dedup, out);
    return out.take();
  }
  auto frames = split_batch_call(raw);
  if (!frames.ok()) {
    // Unreadable outer frame: answer with a singleton error reply. The
    // client demux recognizes the "H2RP" magic and applies the error to
    // every pending sub-call.
    marshal_reply_into(out, frames.error().context("xdr server"));
    return out.take();
  }
  marshal_batch_reply_begin(out, static_cast<std::uint32_t>(frames->size()));
  for (std::span<const std::uint8_t> frame : *frames) {
    // u32 placeholder, serve in place, backpatch: no staging buffer.
    const std::size_t length_at = out.size();
    out.put_u32(0);
    serve_call(frame, dispatcher, dedup, out);
    out.buffer().patch_u32_be(length_at,
                              static_cast<std::uint32_t>(out.size() - length_at - 4));
  }
  return out.take();
}

/// Client half: turns the server's answer into per-call results. Accepts
/// either an "H2RZ" frame (count must match) or a bare "H2RP" error reply
/// covering the whole batch.
Status demux_batch_reply(std::span<const std::uint8_t> bytes, std::size_t expected,
                         std::vector<Result<Value>>& results) {
  if (!is_batch_reply(bytes)) {
    auto outcome = unmarshal_reply(bytes);
    Error error = outcome.ok()
                      ? Error(ErrorCode::kParseError,
                              "xdr frame: singleton reply to a batch call")
                      : outcome.error();
    fill_results(results, expected, error);
    return error;
  }
  auto frames = split_batch_reply(bytes);
  if (!frames.ok()) {
    fill_results(results, expected, frames.error());
    return frames.error();
  }
  if (frames->size() != expected) {
    Error error(ErrorCode::kParseError,
                "xdr frame: batch reply count " + std::to_string(frames->size()) +
                    " != request count " + std::to_string(expected));
    fill_results(results, expected, error);
    return error;
  }
  results.clear();
  results.reserve(expected);
  for (std::span<const std::uint8_t> frame : *frames) {
    results.push_back(unmarshal_reply(frame));
  }
  return Status::success();
}

class LocalChannel final : public Channel {
 public:
  LocalChannel(Dispatcher& dispatcher, bool instance_bound)
      : dispatcher_(dispatcher), instance_bound_(instance_bound) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    // One entity: the target's dispatcher. No marshaling, no copies —
    // exactly the unmediated access the paper's Java/JavaObject bindings
    // promise for co-deployed components.
    stats_ = CallStats{.entities_traversed = 1, .request_bytes = 0, .response_bytes = 0};
    return dispatcher_.dispatch(operation, params);
  }

  const char* binding_name() const override {
    return instance_bound_ ? "localobject" : "local";
  }
  CallStats last_stats() const override { return stats_; }

 private:
  Dispatcher& dispatcher_;
  bool instance_bound_;
  CallStats stats_;
};

class XdrChannel final : public Channel {
 public:
  XdrChannel(Transport& net, HostId from, Endpoint to)
      : net_(net), from_(from), to_(std::move(to)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    // Marshal into a pooled buffer: after the first few calls the frame
    // capacity is recycled instead of reallocated per call.
    enc::XdrWriter writer(net_.buffer_pool().acquire());
    marshal_call_into(writer, operation, params, call_id_);
    auto response = round_trip(writer.take(), operation, /*batch=*/false);
    if (!response.ok()) return response.error();
    // unmarshal_reply borrows the response bytes (the decoded Value owns
    // its own storage), so the reply buffer can be recycled immediately.
    auto reply = unmarshal_reply(response->bytes());
    net_.buffer_pool().release(std::move(*response));
    return reply;
  }

  Status invoke_batch(std::span<const BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    results.clear();
    if (calls.empty()) return Status::success();
    auto response = round_trip(marshal_batch_call(calls, net_.buffer_pool().acquire()),
                               {}, /*batch=*/true);
    if (!response.ok()) {
      fill_results(results, calls.size(), response.error());
      return response.error();
    }
    Status verdict = demux_batch_reply(response->bytes(), calls.size(), results);
    net_.buffer_pool().release(std::move(*response));
    return verdict;
  }

  const char* binding_name() const override { return "xdr"; }
  CallStats last_stats() const override { return stats_; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }
  const Endpoint* remote() const override { return &to_; }

 private:
  /// The one XDR round trip: sends `frame` (recycled to the pool) and
  /// returns the reply bytes for the caller to decode and release.
  Result<ByteBuffer> round_trip(ByteBuffer frame, std::string_view operation, bool batch) {
    auto host = net_.resolve(to_.host);
    if (!host.ok()) {
      net_.buffer_pool().release(std::move(frame));
      return host.error();
    }
    stats_ = CallStats{.entities_traversed = 4,  // stub, socket, skeleton, dispatcher
                       .request_bytes = frame.size(),
                       .response_bytes = 0};
    auto response = net_.call(from_, *host, to_.port, frame.bytes());
    net_.buffer_pool().release(std::move(frame));
    if (!response.ok()) {
      return response.error().context(round_trip_context("xdr", operation, batch));
    }
    stats_.response_bytes = response->size();
    return response;
  }

  Transport& net_;
  HostId from_;
  Endpoint to_;
  std::string call_id_;
  CallStats stats_;
};

/// Base of the three HTTP POST bindings (soap, http, mime): they share one
/// round trip and differ only in body encoding and error wording.
class HttpPostChannel : public Channel {
 public:
  CallStats last_stats() const override { return stats_; }
  const Endpoint* remote() const override { return &to_; }

 protected:
  /// How a binding words its errors and which statuses carry a reply.
  struct Labels {
    const char* binding;       ///< "soap" -> "soap call op" / "soap batch"
    const char* response;      ///< context of an unparsable HTTP response
    const char* bad_status;    ///< prefix of a rejected status; nullptr accepts any
    bool fault_status;         ///< a 500 carries an in-band fault reply
  };

  HttpPostChannel(Transport& net, HostId from, Endpoint to, int entities, Labels labels)
      : net_(net), from_(from), to_(std::move(to)), entities_(entities), labels_(labels) {}

  /// POSTs `request` (its headers and body already set) to the endpoint
  /// and returns the parsed response once its status passes the check.
  Result<http::Response> post(http::Request& request, std::string_view operation,
                              bool batch) {
    auto host = net_.resolve(to_.host);
    if (!host.ok()) return host.error();
    request.method = "POST";
    request.target = "/" + to_.path;
    ByteBuffer wire = request.serialize(to_.host);
    stats_ = CallStats{.entities_traversed = entities_,
                       .request_bytes = wire.size(),
                       .response_bytes = 0};
    auto raw = net_.call(from_, *host, to_.port, wire.bytes());
    if (!raw.ok()) {
      return raw.error().context(round_trip_context(labels_.binding, operation, batch));
    }
    stats_.response_bytes = raw->size();
    auto response = http::parse_response(raw->bytes());
    if (!response.ok()) return response.error().context(labels_.response);
    const bool accepted = response->status == 200 ||
                          (labels_.fault_status && response->status == 500);
    if (labels_.bad_status != nullptr && !accepted) {
      return err::unavailable(labels_.bad_status + std::to_string(response->status) +
                              " " + response->reason);
    }
    return response;
  }

  Transport& net_;
  HostId from_;
  Endpoint to_;
  int entities_;
  Labels labels_;
  CallStats stats_;
};

class SoapChannel final : public HttpPostChannel {
 public:
  // stub, soap encoder, http client, socket, http server, soap decoder
  // = 6 entities before the dispatcher runs.
  SoapChannel(Transport& net, HostId from, Endpoint to, std::string service_ns)
      : HttpPostChannel(net, from, std::move(to), 6,
                        {"soap", "soap http response", "soap: http status ", true}),
        service_ns_(std::move(service_ns)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    begin_headers();
    if (!call_id_.empty()) {
      // Idempotency key, same non-mustUnderstand shape as Trace: servers
      // without dedup simply ignore it.
      add_header(resil::kCallIdHeaderName, resil::kCallIdHeaderNs, call_id_);
    }
    const soap::BatchCall call{operation, params};
    auto response = post_envelope({&call, 1}, operation, /*batch=*/false);
    if (!response.ok()) return response.error();
    auto reply = soap::parse_reply(response->body);
    if (!reply.ok()) return reply.error();
    return to_result(std::move(*reply), "soap fault: ");
  }

  Status invoke_batch(std::span<const BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    results.clear();
    if (calls.empty()) return Status::success();
    // The batch marker: count + comma-joined per-sub-call idempotency keys
    // (position i names sub-call i; empty slots mean "no key"). Both are
    // plain non-mustUnderstand headers.
    begin_headers();
    add_header(kBatchCountHeaderName, kBatchHeaderNs, std::to_string(calls.size()));
    bool any_ids = false;
    for (const BatchItem& item : calls) any_ids = any_ids || !item.call_id.empty();
    if (any_ids) {
      std::string ids;
      for (std::size_t i = 0; i < calls.size(); ++i) {
        if (i > 0) ids += ',';
        ids += calls[i].call_id;
      }
      add_header(kBatchIdsHeaderName, kBatchHeaderNs, std::move(ids));
    }
    batch_scratch_.clear();
    batch_scratch_.reserve(calls.size());
    for (const BatchItem& item : calls) {
      batch_scratch_.push_back({item.operation, item.params});
    }
    auto fail = [&](Error error) -> Status {
      fill_results(results, calls.size(), error);
      return error;
    };
    auto response = post_envelope(batch_scratch_, "batch", /*batch=*/true);
    if (!response.ok()) return fail(response.error());
    auto replies = soap::parse_batch_reply(response->body);
    if (!replies.ok()) return fail(replies.error());
    if (replies->size() != calls.size()) {
      // A single fault element answering a multi-call batch is a
      // whole-envelope rejection (bad request, MustUnderstand, ...).
      if (replies->size() == 1 && (*replies)[0].is_fault()) {
        return fail(to_result(std::move((*replies)[0]), "soap fault: ").error());
      }
      return fail(Error(ErrorCode::kParseError,
                        "soap: batch reply count " + std::to_string(replies->size()) +
                            " != request count " + std::to_string(calls.size())));
    }
    results.reserve(calls.size());
    for (soap::RpcReply& reply : *replies) {
      results.push_back(to_result(std::move(reply), "soap fault: "));
    }
    return Status::success();
  }

  const char* binding_name() const override { return "soap"; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }

 private:
  /// Starts the header list of the next request. When a span is open on
  /// this thread, its context rides along as a non-mustUnderstand
  /// <h2:Trace> header so the serving host can continue the trace.
  void begin_headers() {
    headers_.clear();
    obs::TraceContext trace = obs::Tracer::current();
    if (trace.valid()) {
      add_header(obs::kTraceHeaderName, obs::kTraceHeaderNs,
                 obs::encode_trace_header(trace));
    }
  }

  void add_header(std::string_view name, std::string_view ns, std::string value) {
    soap::HeaderEntry entry;
    entry.name = std::string(name);
    entry.ns = std::string(ns);
    entry.value = std::move(value);
    headers_.push_back(std::move(entry));
  }

  /// Builds the envelope for `calls` under headers_ into the channel's
  /// scratch buffer (so steady-state calls reuse its capacity), lends it
  /// to the request, and POSTs it. `action` names the SOAPAction
  /// fragment: the operation, or "batch".
  Result<http::Response> post_envelope(std::span<const soap::BatchCall> calls,
                                       std::string_view action, bool batch) {
    soap::build_batch_request_into(envelope_, service_ns_, calls, headers_);
    http::Request request;
    request.headers.set("Content-Type", "text/xml; charset=utf-8");
    request.headers.set("SOAPAction", "\"" + service_ns_ + "#" + std::string(action) + "\"");
    request.body = std::move(envelope_);
    auto response = post(request, action, batch);
    envelope_ = std::move(request.body);
    return response;
  }

  std::string service_ns_;
  std::string call_id_;
  std::string envelope_;  ///< reused request-envelope buffer
  std::vector<soap::HeaderEntry> headers_;  ///< reused header scratch
  std::vector<soap::BatchCall> batch_scratch_;  ///< reused batch-call views
};

class HttpChannel final : public HttpPostChannel {
 public:
  // stub, http client, socket, http server, dispatcher — SOAP's two XML
  // codec entities are gone.
  HttpChannel(Transport& net, HostId from, Endpoint to)
      : HttpPostChannel(net, from, std::move(to), 5,
                        {"http", "http response", "http: status ", false}) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    http::Request request;
    request.headers.set("Content-Type", "application/octet-stream");
    request.body = marshal_call(operation, params, call_id_).to_string();
    auto response = post(request, operation, /*batch=*/false);
    if (!response.ok()) return response.error();
    // View the body in place: the reply frame is decoded without a copy.
    return unmarshal_reply(as_byte_span(response->body));
  }

  const char* binding_name() const override { return "http"; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }

 private:
  std::string call_id_;
};

class MimeChannel final : public HttpPostChannel {
 public:
  // Same entity chain as SOAP (the envelope is still XML) — the win is
  // wire bytes and codec CPU, not hop count. Any status carries a reply:
  // faults travel as single-part envelopes.
  MimeChannel(Transport& net, HostId from, Endpoint to, std::string service_ns)
      : HttpPostChannel(net, from, std::move(to), 6,
                        {"mime", "mime http response", nullptr, true}),
        service_ns_(std::move(service_ns)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    auto multipart = soap::build_mime_request(operation, service_ns_, params);
    http::Request request;
    request.headers.set("Content-Type", multipart.content_type);
    request.body = multipart.body.to_string();
    auto response = post(request, operation, /*batch=*/false);
    if (!response.ok()) return response.error();
    auto reply = soap::parse_mime_reply(response->headers.get_or("content-type", ""),
                                        as_byte_span(response->body));
    if (!reply.ok()) return reply.error();
    return to_result(std::move(*reply), "mime fault: ");
  }

  const char* binding_name() const override { return "mime"; }
  // set_call_id stays the no-op default: the multipart request format has
  // no header slot for per-call metadata, so mime channels get retries
  // and breakers but not dedup (callers needing at-most-once pick another
  // binding).

 private:
  std::string service_ns_;
};

}  // namespace

std::unique_ptr<Channel> make_http_channel(Transport& net, HostId from,
                                           const Endpoint& to) {
  return std::make_unique<HttpChannel>(net, from, to);
}

std::unique_ptr<Channel> make_mime_channel(Transport& net, HostId from,
                                           const Endpoint& to, std::string service_ns) {
  return std::make_unique<MimeChannel>(net, from, to, std::move(service_ns));
}

std::unique_ptr<Channel> make_local_channel(Dispatcher& dispatcher, bool instance_bound) {
  return std::make_unique<LocalChannel>(dispatcher, instance_bound);
}

std::unique_ptr<Channel> make_xdr_channel(Transport& net, HostId from,
                                          const Endpoint& to) {
  return std::make_unique<XdrChannel>(net, from, to);
}

std::unique_ptr<Channel> make_soap_channel(Transport& net, HostId from,
                                           const Endpoint& to, std::string service_ns) {
  return std::make_unique<SoapChannel>(net, from, to, std::move(service_ns));
}

Result<ServerHandle> serve_xdr(Transport& net, HostId host, std::uint16_t port,
                               std::shared_ptr<Dispatcher> dispatcher,
                               std::shared_ptr<resil::DedupCache> dedup) {
  auto status = net.listen(
      host, port,
      [dispatcher, dedup](std::span<const std::uint8_t> raw) -> Result<ByteBuffer> {
        // SockNet sends the reply and frees it on the reactor thread, so it
        // starts fresh: a pooled buffer would carry memory the client
        // thread allocated over to the reactor thread to free.
        return serve_xdr_frame(raw, *dispatcher, dedup.get(), ByteBuffer{});
      });
  if (!status.ok()) return status.error();
  return ServerHandle(&net, host, port);
}

SoapHttpServer::SoapHttpServer(Transport& net, HostId host, std::uint16_t port)
    : net_(net), host_(host), port_(port) {}

SoapHttpServer::~SoapHttpServer() { stop(); }

Status SoapHttpServer::start() {
  if (running_) return Status::success();
  auto status = net_.listen(host_, port_, [this](std::span<const std::uint8_t> raw) {
    return handle(raw);
  });
  if (!status.ok()) return status;
  running_ = true;
  return Status::success();
}

void SoapHttpServer::stop() {
  if (!running_) return;
  (void)net_.close(host_, port_);
  running_ = false;
}

Status SoapHttpServer::mount(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return insert(std::move(path), Mount{std::move(dispatcher), MountKind::kSoap});
}

Status SoapHttpServer::mount_raw(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return insert(std::move(path), Mount{std::move(dispatcher), MountKind::kRaw});
}

Status SoapHttpServer::mount_mime(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return insert(std::move(path), Mount{std::move(dispatcher), MountKind::kMime});
}

Status SoapHttpServer::insert(std::string path, Mount mount) {
  if (!path.empty() && path.front() == '/') path.erase(0, 1);
  std::lock_guard lock(mounts_mu_);
  if (mounts_.count(path)) {
    const char* server = mount.kind == MountKind::kSoap ? "soap server" : "http server";
    return err::already_exists(std::string(server) + ": path '/" + path +
                               "' already mounted");
  }
  mounts_[std::move(path)] = std::move(mount);
  return Status::success();
}

Status SoapHttpServer::unmount(std::string_view path) {
  if (!path.empty() && path.front() == '/') path.remove_prefix(1);
  std::lock_guard lock(mounts_mu_);
  auto it = mounts_.find(path);
  if (it == mounts_.end()) {
    return err::not_found("soap server: path '/" + std::string(path) + "' not mounted");
  }
  mounts_.erase(it);
  return Status::success();
}

std::size_t SoapHttpServer::mounted_count() const {
  std::lock_guard lock(mounts_mu_);
  return mounts_.size();
}

void SoapHttpServer::set_dedup(std::shared_ptr<resil::DedupCache> dedup) {
  std::lock_guard lock(mounts_mu_);
  dedup_ = std::move(dedup);
}

Result<ByteBuffer> SoapHttpServer::handle(std::span<const std::uint8_t> raw) {
  auto make_response = [](int status, const char* content_type) {
    http::Response response;
    response.status = status;
    response.reason = std::string(http::reason_for(status));
    response.headers.set("Content-Type", content_type);
    return response;
  };
  auto fault = [&](int status, const char* code, const std::string& message) {
    http::Response response = make_response(status, "text/xml; charset=utf-8");
    soap::build_fault_into(response.body, {code, message, ""});
    return response.serialize();
  };

  auto request = http::parse_request(raw);
  if (!request.ok()) {
    return fault(400, "Client", request.error().message());
  }
  if (request->method != "POST") {
    return fault(405, "Client", "method " + request->method + " not allowed");
  }
  std::string_view path(request->target);
  if (!path.empty() && path.front() == '/') path.remove_prefix(1);
  // Copy the mount (and the dedup handle) out under the lock, then
  // dispatch without it: a concurrent — or reentrant — unmount may erase
  // the map entry mid-call, but our shared_ptr keeps the dispatcher alive.
  MountKind kind;
  std::shared_ptr<Dispatcher> dispatcher;
  std::shared_ptr<resil::DedupCache> dedup;
  {
    std::lock_guard lock(mounts_mu_);
    auto it = mounts_.find(path);
    if (it == mounts_.end()) {
      return fault(404, "Client", "no service at " + request->target);
    }
    kind = it->second.kind;
    dispatcher = it->second.dispatcher;
    dedup = dedup_;
  }

  if (kind == MountKind::kMime) {
    // SOAP-with-Attachments: parse the multipart request, dispatch, and
    // answer with a multipart response (faults as single-part envelopes).
    std::string content_type = request->headers.get_or("content-type", "");
    auto call = soap::parse_mime_request(content_type, as_byte_span(request->body));
    soap::MultipartMessage reply;
    int status_code = 200;
    if (!call.ok()) {
      reply = soap::build_mime_fault({"Client", call.error().message(), ""});
      status_code = 400;
    } else {
      auto result = dispatcher->dispatch(call->operation, call->params);
      if (!result.ok()) {
        reply = soap::build_mime_fault(
            {fault_code_for(result.error().code()), result.error().message(), ""});
        status_code = 500;
      } else {
        reply = soap::build_mime_response(call->operation, call->service_ns, *result);
      }
    }
    http::Response response = make_response(status_code, reply.content_type.c_str());
    response.body = reply.body.to_string();
    return response.serialize();
  }

  if (kind == MountKind::kRaw) {
    // The http binding: XDR frame in, XDR frame out, served exactly as
    // serve_xdr serves it; dispatch errors travel in-band inside the
    // reply frame. The body is viewed in place — no per-request copy.
    ByteBuffer reply = serve_xdr_frame(as_byte_span(request->body), *dispatcher,
                                       dedup.get(), net_.buffer_pool().acquire());
    http::Response response = make_response(200, "application/octet-stream");
    response.body = reply.to_string();
    net_.buffer_pool().release(std::move(reply));
    return response.serialize();
  }

  auto call = soap::parse_batch_request(request->body);
  if (!call.ok()) {
    return fault(400, "Client", call.error().message());
  }
  for (const soap::HeaderEntry& header : call->headers) {
    if (header.must_understand && !understood_.count(header.name)) {
      return fault(500, "MustUnderstand",
                   "header '" + header.name + "' not understood");
    }
  }
  // Recover the trace context, idempotency key(s) and batch marker.
  obs::TraceContext remote_parent;
  std::string call_id;
  std::string batch_count;
  std::string batch_ids;
  for (const soap::HeaderEntry& header : call->headers) {
    if (header.name == obs::kTraceHeaderName && header.ns == obs::kTraceHeaderNs) {
      if (auto parsed = obs::parse_trace_header(header.value)) remote_parent = *parsed;
    } else if (header.name == resil::kCallIdHeaderName &&
               header.ns == resil::kCallIdHeaderNs) {
      call_id = header.value;
    } else if (header.ns == kBatchHeaderNs) {
      if (header.name == kBatchCountHeaderName) batch_count = header.value;
      if (header.name == kBatchIdsHeaderName) batch_ids = header.value;
    }
  }

  // No BatchCount header: a singleton, keyed by its CallId header, that
  // must carry exactly one operation element and answers a fault with
  // 500. A BatchCount header selects a batch, keyed per sub-call by
  // BatchCallIds, that always answers 200.
  const bool singleton = batch_count.empty();
  std::vector<std::string_view> ids;
  if (singleton) {
    if (call->calls.size() != 1) {
      return fault(400, "Client",
                   "soap: request Body must contain exactly one operation element");
    }
    ids.push_back(call_id);
  } else {
    std::size_t declared = 0;
    for (char c : batch_count) {
      if (c < '0' || c > '9') return fault(400, "Client", "soap: bad BatchCount header");
      declared = declared * 10 + static_cast<std::size_t>(c - '0');
    }
    if (declared != call->calls.size()) {
      return fault(400, "Client",
                   "soap: BatchCount " + batch_count + " != " +
                       std::to_string(call->calls.size()) + " operation elements");
    }
    if (!batch_ids.empty()) {
      std::string_view rest = batch_ids;
      while (true) {
        std::size_t comma = rest.find(',');
        ids.push_back(rest.substr(0, comma));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
      if (ids.size() != call->calls.size()) {
        return fault(400, "Client", "soap: BatchCallIds count mismatch");
      }
    }
  }

  // Each operation element gets one Body element (opResponse or Fault),
  // written straight into the response body. That element is the SOAP
  // binding's cached unit: a replayed id splices it back into whatever
  // envelope it arrives in.
  http::Response response = make_response(200, "text/xml; charset=utf-8");
  soap::EnvelopeWriter writer(response.body);
  writer.envelope_open();
  writer.body_open();
  std::size_t element_start = 0;
  for (std::size_t i = 0; i < call->calls.size(); ++i) {
    const soap::BatchRpcCall::Call& sub = call->calls[i];
    const std::string_view id = ids.empty() ? std::string_view{} : ids[i];
    const bool keyed = dedup && !id.empty();
    element_start = response.body.size();
    if (keyed) {
      if (auto cached = dedup->lookup(id)) {
        response.body.append(cached->as_string_view());
        continue;
      }
    }
    // Name string only when it will be recorded (tracing is usually off).
    obs::Span span;
    if (net_.tracer().enabled()) {
      span = net_.tracer().start_span("soap.serve." + sub.operation, remote_parent);
      if (span.active()) span.annotate("host=" + net_.host_name(host_));
    }
    auto result = dispatcher->dispatch(sub.operation, sub.params);
    span.set_ok(result.ok());
    span.finish();
    if (!result.ok()) {
      writer.fault({fault_code_for(result.error().code()), result.error().message(), ""});
    } else {
      response.body.reserve(element_start + 2 * sub.operation.size() +
                            call->service_ns.size() +
                            soap::EnvelopeWriter::estimate(*result, 6) + 64);
      writer.call_open(sub.operation, call->service_ns, /*response=*/true);
      writer.param(*result, "return");
      writer.call_close(sub.operation, /*response=*/true);
    }
    // Cache success and dispatch faults alike — the handler executed
    // either way, and a duplicate must observe the same outcome.
    if (keyed) {
      ByteBuffer element;
      element.write_bytes(as_byte_span(response.body).subspan(element_start));
      dedup->store(id, std::move(element));
    }
  }
  writer.body_close();
  writer.envelope_close();
  if (singleton &&
      std::string_view(response.body).substr(element_start).starts_with("<SOAP-ENV:Fault>")) {
    response.status = 500;
    response.reason = std::string(http::reason_for(500));
  }
  return response.serialize();
}

}  // namespace h2::net
