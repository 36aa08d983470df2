// Layer decorators for the traced run. Each one wraps a public seam of
// the library — Transport, Channel, Dispatcher, the service handler —
// and records a span around every call into the layer it wraps, so the
// per-layer breakdown is measured from outside the library and src/ is
// left untouched:
//
//   resilience  ResilientChannel::invoke           (timed by the caller)
//   stub        inner Channel::invoke              (TracedChannel)
//   transport   Transport::call                    (TracedTransport)
//   server      handler bound at Transport::listen (TracedTransport)
//   dispatch    Dispatcher::dispatch               (TracedDispatcher)
//   plugin      the service handler                (traced_handler)
//
// The layers nest in that order, so a layer's self time is its span
// minus its child's, and the self times of one call add back to the
// resilience span. Spans of one call share the call id the client sets
// with begin_call(); the loops are closed (one call in flight), so the
// server-side spans, recorded on the reactor thread, read the same id.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "transport/rpc.hpp"
#include "transport/socknet.hpp"

namespace h2bench {

enum Layer : std::uint8_t { kResilience, kStub, kTransport, kServer, kDispatch, kPlugin };
inline constexpr std::size_t kLayerCount = 6;
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "resilience", "stub", "transport", "server", "dispatch", "plugin"};

struct Span {
  std::uint32_t call;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span store. Writers on the client and reactor threads append
/// under one mutex; the run reads the spans after the calls have ended.
class SpanLog {
 public:
  explicit SpanLog(std::size_t expected_calls) { spans_.reserve(expected_calls * kLayerCount); }

  void begin_call(std::uint32_t id) { current_.store(id, std::memory_order_release); }

  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint32_t id = current_.load(std::memory_order_acquire);
    std::lock_guard lock(mu_);
    spans_.push_back(Span{id, layer, start_ns, end_ns});
  }

  void clear() {
    std::lock_guard lock(mu_);
    spans_.clear();
  }

  std::vector<Span> take() {
    std::lock_guard lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<std::uint32_t> current_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn()` as a span of `layer` and returns its result.
template <typename Fn>
auto timed(SpanLog& log, Layer layer, Fn&& fn) {
  const std::int64_t start = now_ns();
  auto result = fn();
  log.record(layer, start, now_ns());
  return result;
}

/// Transport forwarding every operation to a SockNet. call() is the
/// transport span; handlers bound through listen() are wrapped so their
/// run on the reactor thread is the server span.
class TracedTransport final : public h2::net::Transport {
 public:
  TracedTransport(h2::net::SockNet& inner, SpanLog& log)
      : Transport(&wall_), inner_(inner), log_(log) {}

  h2::Result<h2::net::HostId> resolve(std::string_view name) const override {
    return inner_.resolve(name);
  }
  const std::string& host_name(h2::net::HostId id) const override {
    return inner_.host_name(id);
  }
  const char* transport_name() const override { return inner_.transport_name(); }

  h2::Status listen(h2::net::HostId host, std::uint16_t port,
                    h2::net::Handler handler) override {
    return inner_.listen(host, port,
                         [this, handler = std::move(handler)](
                             std::span<const std::uint8_t> request) {
                           return timed(log_, kServer, [&] { return handler(request); });
                         });
  }
  h2::Status close(h2::net::HostId host, std::uint16_t port) override {
    return inner_.close(host, port);
  }
  bool is_listening(h2::net::HostId host, std::uint16_t port) const override {
    return inner_.is_listening(host, port);
  }

  h2::Result<h2::ByteBuffer> call(h2::net::HostId from, h2::net::HostId to,
                                  std::uint16_t port,
                                  std::span<const std::uint8_t> request) override {
    return timed(log_, kTransport, [&] { return inner_.call(from, to, port, request); });
  }

  void sleep_for(h2::Nanos duration) override { inner_.sleep_for(duration); }

 private:
  h2::WallClock wall_;
  h2::net::SockNet& inner_;
  SpanLog& log_;
};

/// The client stub (encode, transport call, reply decode) as one span.
class TracedChannel final : public h2::net::Channel {
 public:
  TracedChannel(std::unique_ptr<h2::net::Channel> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  h2::Result<h2::Value> invoke(std::string_view operation,
                               std::span<const h2::Value> params) override {
    return timed(log_, kStub, [&] { return inner_->invoke(operation, params); });
  }
  const char* binding_name() const override { return inner_->binding_name(); }
  h2::net::CallStats last_stats() const override { return inner_->last_stats(); }
  void set_call_id(std::string call_id) override { inner_->set_call_id(std::move(call_id)); }
  const h2::net::Endpoint* remote() const override { return inner_->remote(); }

 private:
  std::unique_ptr<h2::net::Channel> inner_;
  SpanLog& log_;
};

/// Server-side dispatch (operation lookup plus the service handler).
class TracedDispatcher final : public h2::net::Dispatcher {
 public:
  TracedDispatcher(std::shared_ptr<h2::net::Dispatcher> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  h2::Result<h2::Value> dispatch(std::string_view operation,
                                 std::span<const h2::Value> params) override {
    return timed(log_, kDispatch, [&] { return inner_->dispatch(operation, params); });
  }

 private:
  std::shared_ptr<h2::net::Dispatcher> inner_;
  SpanLog& log_;
};

/// The service handler as the plugin span.
inline h2::net::DispatcherMux::Fn traced_handler(h2::net::DispatcherMux::Fn fn,
                                                 SpanLog& log) {
  return [fn = std::move(fn), &log](std::span<const h2::Value> params) {
    return timed(log, kPlugin, [&] { return fn(params); });
  };
}

}  // namespace h2bench
