// The binding layer: Dispatcher (server side), Channel (client side), and
// the concrete channels/servers for each Harness II binding kind. Figure 5
// of the paper ("local and remote communication in Harness II") is this
// file: the same abstract invocation travels through very different
// numbers of entities depending on the binding:
//
//   localobject / local   client -> dispatcher                  (1 hop)
//   xdr                   client -> xdr frame -> socket ->
//                         xdr server -> dispatcher              (4 hops)
//   soap                  client -> soap encode -> http client ->
//                         socket -> http server -> soap decode ->
//                         dispatcher                            (6 hops)
//
// CallStats records hop counts and wire bytes so EXP-LOC can report the
// "number of entities that need to be traversed to deliver a message".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>

#include "encoding/value.hpp"
#include "transport/endpoint.hpp"
#include "transport/marshal.hpp"
#include "transport/simnet.hpp"
#include "util/error.hpp"

namespace h2::resil {
class DedupCache;
}  // namespace h2::resil

namespace h2::net {

/// Server-side invocation target. Containers and plugins implement this.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual Result<Value> dispatch(std::string_view operation,
                                 std::span<const Value> params) = 0;
};

/// Convenience Dispatcher: operation name -> handler function.
class DispatcherMux final : public Dispatcher {
 public:
  using Fn = std::function<Result<Value>(std::span<const Value>)>;

  /// Registers a handler; replaces any previous one for `operation`.
  void add(std::string operation, Fn handler) {
    handlers_[std::move(operation)] = std::move(handler);
  }

  Result<Value> dispatch(std::string_view operation,
                         std::span<const Value> params) override {
    // Transparent lookup: the map's std::less<> compares string_views
    // directly, so the hot dispatch path doesn't allocate a key copy.
    auto it = handlers_.find(operation);
    if (it == handlers_.end()) {
      return err::not_found("no such operation '" + std::string(operation) + "'");
    }
    return it->second(params);
  }

  std::size_t size() const { return handlers_.size(); }

 private:
  std::map<std::string, Fn, std::less<>> handlers_;
};

/// Per-call accounting filled in by every channel.
struct CallStats {
  int entities_traversed = 0;      ///< stub/encoder/socket/server/... count
  std::size_t request_bytes = 0;   ///< bytes put on the (possibly sim) wire
  std::size_t response_bytes = 0;
};

/// Client-side invocation path for one bound port.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual Result<Value> invoke(std::string_view operation,
                               std::span<const Value> params) = 0;
  /// Binding kind name ("soap", "xdr", "local", "localobject").
  virtual const char* binding_name() const = 0;
  /// Accounting for the most recent invoke().
  virtual CallStats last_stats() const = 0;

  /// Idempotency key to attach to the next invoke()s (SOAP <h2:CallId>
  /// header / XDR "H2RC" frame field). Channels without a header path
  /// (local, localobject, mime) ignore it — their transports either
  /// cannot lose replies or do not support per-call metadata.
  virtual void set_call_id(std::string call_id) { (void)call_id; }

  /// The remote endpoint this channel targets, or nullptr for in-process
  /// channels. The resilience layer uses this to key circuit breakers.
  virtual const Endpoint* remote() const { return nullptr; }

  /// Invokes `calls` as one logical round — wire bindings override this to
  /// pack all calls into ONE message (XDR "H2RB" frame / SOAP batch
  /// envelope), amortizing the per-call stub/encoder/socket/server
  /// overhead the paper's Section 5 localizes.
  ///
  /// The returned Status is the TRANSPORT outcome: an error means no
  /// per-call verdicts exist (the whole batch may be retried under its
  /// sub-call ids); success means `results` holds one final Result per
  /// call, in order — individual sub-calls may still carry application
  /// errors. On transport failure `results` is filled with that error for
  /// every call. The default implementation loops over invoke(), so every
  /// channel supports the API even when its binding has no batch framing;
  /// it sets each sub-call's id and clears the id after the last one, so
  /// no id stays pinned to the next invoke() after a batch.
  virtual Status invoke_batch(std::span<const BatchItem> calls,
                              std::vector<Result<Value>>& results) {
    results.clear();
    results.reserve(calls.size());
    for (const BatchItem& item : calls) {
      // Stamp unconditionally: a channel's forced id is sticky, so an
      // empty id must overwrite the previous sub-call's.
      set_call_id(item.call_id);
      results.push_back(invoke(item.operation, item.params));
    }
    set_call_id({});
    return Status::success();
  }
};

// ---- channels (client side) -------------------------------------------------

/// Direct in-process dispatch — the paper's "Java binding" fast path.
/// The dispatcher must outlive the channel.
std::unique_ptr<Channel> make_local_channel(Dispatcher& dispatcher,
                                            bool instance_bound = false);

/// XDR frames over a direct transport "socket" (simulated or real).
std::unique_ptr<Channel> make_xdr_channel(Transport& net, HostId from,
                                          const Endpoint& to);

/// SOAP 1.1 over HTTP/1.1 over any Transport.
std::unique_ptr<Channel> make_soap_channel(Transport& net, HostId from,
                                           const Endpoint& to,
                                           std::string service_ns);

/// Raw HTTP binding: POST with an XDR call frame as an
/// application/octet-stream body — HTTP's firewall friendliness without
/// SOAP's XML encoding tax.
std::unique_ptr<Channel> make_http_channel(Transport& net, HostId from,
                                           const Endpoint& to);

/// MIME binding (SOAP-with-Attachments): XML envelope for control, raw
/// binary multipart attachments for bulk arrays — standards-compliant SOAP
/// without the BASE64/per-item encoding tax on scientific payloads.
std::unique_ptr<Channel> make_mime_channel(Transport& net, HostId from,
                                           const Endpoint& to, std::string service_ns);

// ---- servers ----------------------------------------------------------------

/// A bound server port; unbinds on destruction.
class ServerHandle {
 public:
  ServerHandle(Transport* net, HostId host, std::uint16_t port)
      : net_(net), host_(host), port_(port) {}
  ~ServerHandle() { release(); }
  ServerHandle(ServerHandle&& other) noexcept
      : net_(other.net_), host_(other.host_), port_(other.port_) {
    other.net_ = nullptr;
  }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;
  ServerHandle& operator=(ServerHandle&& other) noexcept {
    if (this != &other) {
      release();
      net_ = other.net_;
      host_ = other.host_;
      port_ = other.port_;
      other.net_ = nullptr;
    }
    return *this;
  }

  std::uint16_t port() const { return port_; }

  /// Unbinds the port and disarms the handle. Both the destructor and
  /// move-assignment funnel through here; a port already closed by
  /// someone else (crash_node's close_all, a stopped container) is fine —
  /// close()'s kNotFound is deliberately ignored.
  void release() {
    if (net_ != nullptr) (void)net_->close(host_, port_);
    net_ = nullptr;
  }

 private:
  Transport* net_;
  HostId host_;
  std::uint16_t port_;
};

/// Binds an XDR frame server for `dispatcher` at (host, port), serving
/// singleton and "H2RB" batch frames. With `dedup`, calls carrying an
/// "H2RC" call id already seen are answered from the cache instead of
/// re-executing the dispatcher — the server half of the resilience
/// layer's at-most-once guarantee.
Result<ServerHandle> serve_xdr(Transport& net, HostId host, std::uint16_t port,
                               std::shared_ptr<Dispatcher> dispatcher,
                               std::shared_ptr<resil::DedupCache> dedup = nullptr);

/// An HTTP server hosting SOAP services at paths ("/time", "/mm", ...).
/// One per (host, port); services mount and unmount dynamically — this is
/// the "service container" of the paper's Figure 3.
class SoapHttpServer {
 public:
  SoapHttpServer(Transport& net, HostId host, std::uint16_t port);
  ~SoapHttpServer();
  SoapHttpServer(const SoapHttpServer&) = delete;
  SoapHttpServer& operator=(const SoapHttpServer&) = delete;

  /// Starts listening. Fails if the port is taken.
  Status start();
  void stop();
  bool running() const { return running_; }

  /// Mounts `dispatcher` at `path` (no leading slash required), speaking
  /// SOAP envelopes.
  Status mount(std::string path, std::shared_ptr<Dispatcher> dispatcher);

  /// Mounts `dispatcher` at `path` speaking raw XDR frames in the HTTP
  /// body (the http binding).
  Status mount_raw(std::string path, std::shared_ptr<Dispatcher> dispatcher);

  /// Mounts `dispatcher` at `path` speaking multipart/related
  /// SOAP-with-Attachments (the mime binding).
  Status mount_mime(std::string path, std::shared_ptr<Dispatcher> dispatcher);

  Status unmount(std::string_view path);
  std::size_t mounted_count() const;

  /// Enables at-most-once execution for the soap and raw mounts: calls
  /// carrying a CallId (SOAP header / "H2RC" frame) already seen in
  /// `dedup` are answered from the cache instead of dispatching again.
  /// The cached unit is per call, not per HTTP response — the SOAP Body
  /// element (opResponse or Fault) or the "H2RP" reply frame — so a
  /// replay is correct whichever shape, singleton or batch, the id
  /// arrives in. Pass nullptr to disable.
  void set_dedup(std::shared_ptr<resil::DedupCache> dedup);

  /// Declares a SOAP header (by local name) as understood by this server.
  /// Requests carrying a mustUnderstand="1" header NOT declared here are
  /// rejected with a MustUnderstand fault (SOAP 1.1 §4.2.3).
  void declare_understood(std::string header_name) {
    understood_.insert(std::move(header_name));
  }

 private:
  enum class MountKind { kSoap, kRaw, kMime };
  struct Mount {
    std::shared_ptr<Dispatcher> dispatcher;
    MountKind kind = MountKind::kSoap;
  };

  Status insert(std::string path, Mount mount);
  Result<ByteBuffer> handle(std::span<const std::uint8_t> raw);

  Transport& net_;
  HostId host_;
  std::uint16_t port_;
  bool running_ = false;
  // mounts_mu_ makes mount/unmount safe against a dispatch in flight on
  // another thread (and against a handler unmounting its own path):
  // handle() copies the Mount's shared_ptr under the lock, then dispatches
  // without it, so the dispatcher outlives any concurrent unmount.
  mutable std::mutex mounts_mu_;
  std::map<std::string, Mount, std::less<>> mounts_;
  std::set<std::string, std::less<>> understood_;
  std::shared_ptr<resil::DedupCache> dedup_;
};

}  // namespace h2::net
