// Transport — the seam between the binding layer (channels, servers,
// batching, resilience) and whatever actually moves the bytes. Two
// implementations exist:
//
//   SimNetwork  in-process virtual hosts on a VirtualClock; deterministic,
//               single-threaded, fault-injectable (src/transport/simnet.*)
//   SockNet     real TCP / Unix-domain sockets behind a poll-driven
//               connection multiplexer (src/transport/socknet.*)
//
// The surface is exactly what the channels and servers consume: name
// resolution, synchronous call(), listen()/close(), a time source, and
// the shared per-world infrastructure (metrics, tracer, buffer pool,
// call-serial generator, breaker-registry slot). Everything above this
// line — SOAP/XDR codecs, HTTP framing, batching, dedup, failover — is
// byte-identical over either implementation; that is the point.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/byte_buffer.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace h2::resil {
class BreakerRegistry;
}  // namespace h2::resil

namespace h2::net {

using HostId = std::uint32_t;
inline constexpr HostId kInvalidHost = 0xFFFFFFFF;

/// Cumulative traffic counters. Both transports account the same way —
/// one counted message per request and per reply, payload bytes only
/// (socket framing overhead such as length prefixes is excluded), so a
/// sim run and a socket run of the same workload report identical counts.
struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;      ///< synchronous round trips
  std::uint64_t drops = 0;      ///< messages lost to partitions/dead ports
  std::uint64_t faults = 0;     ///< messages dropped/duplicated/delayed by the hook
};

/// Request handler bound to a (host, port). Receives the request bytes,
/// returns response bytes (ignored for one-way sends). Over SockNet the
/// handler runs on the multiplexer thread; an error return closes the
/// connection, so wire servers encode their errors in-band (reply frames,
/// HTTP status + fault bodies) — all of ours do.
using Handler = std::function<Result<ByteBuffer>(std::span<const std::uint8_t>)>;

class Transport {
 public:
  /// `time_source` must outlive the transport (it is a member of the
  /// derived class; only its address is taken here).
  explicit Transport(Clock* time_source)
      : time_source_(time_source),
        tracer_(time_source),
        c_messages_(metrics_.counter("h2.net.messages")),
        c_bytes_(metrics_.counter("h2.net.bytes")),
        c_calls_(metrics_.counter("h2.net.calls")),
        c_drops_(metrics_.counter("h2.net.drops")),
        c_faults_(metrics_.counter("h2.net.faults")) {}

  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // ---- identity ---------------------------------------------------------------

  virtual Result<HostId> resolve(std::string_view name) const = 0;
  virtual const std::string& host_name(HostId id) const = 0;

  /// "sim", "tcp" or "uds" — for logs, metrics labels and test names.
  virtual const char* transport_name() const = 0;

  // ---- servers ----------------------------------------------------------------

  /// Binds `handler` to (host, port). Fails if the port is taken.
  virtual Status listen(HostId host, std::uint16_t port, Handler handler) = 0;
  virtual Status close(HostId host, std::uint16_t port) = 0;
  virtual bool is_listening(HostId host, std::uint16_t port) const = 0;

  // ---- traffic ----------------------------------------------------------------

  /// Synchronous round trip: request bytes out, response bytes back.
  virtual Result<ByteBuffer> call(HostId from, HostId to, std::uint16_t port,
                                  std::span<const std::uint8_t> request) = 0;

  // ---- time -------------------------------------------------------------------

  /// Virtual time for SimNetwork, monotonic wall time for SockNet. The
  /// batching linger and resilience deadline/backoff mechanics run on
  /// this, which is what keeps them meaningful in both worlds.
  Nanos now() const { return time_source_->now(); }

  /// Waiting costs time: advances the VirtualClock in sim, really sleeps
  /// over sockets. Used for retry backoff.
  virtual void sleep_for(Nanos duration) = 0;

  // ---- shared infrastructure --------------------------------------------------

  /// Traffic since construction or the last reset_stats(): the h2.net.*
  /// counters, less the baseline reset_stats() recorded.
  NetStats stats() const {
    return {c_messages_.value() - baseline_.messages, c_bytes_.value() - baseline_.bytes,
            c_calls_.value() - baseline_.calls, c_drops_.value() - baseline_.drops,
            c_faults_.value() - baseline_.faults};
  }
  void reset_stats() {
    baseline_ = {};
    baseline_ = stats();
  }

  /// The world's metrics registry. Every layer running over this
  /// transport (kernel, container, DVM) records here, so one snapshot
  /// covers the whole stack. The h2.net.* counters are the one traffic
  /// ledger; stats() reads them.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The world's span tracer (disabled by default; sim/tests opt in).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Monotonic serial for idempotency keys and channel seeds. Drawing from
  /// the transport keeps ids unique across all hosts of one world (and
  /// deterministic in sim: single-threaded increments).
  std::uint64_t next_call_serial() { return ++call_serial_; }

  /// Shared frame/body buffer pool: channels and servers of this world
  /// recycle their wire buffers here instead of reallocating per call.
  ByteBufferPool& buffer_pool() { return buffer_pool_; }

  /// Per-world circuit-breaker registry slot (lazily attached by the
  /// resilience layer; see resil::BreakerRegistry::of). Held as an opaque
  /// shared_ptr so the transport does not link against h2_resilience.
  const std::shared_ptr<resil::BreakerRegistry>& breaker_registry() const {
    return breakers_;
  }
  void set_breaker_registry(std::shared_ptr<resil::BreakerRegistry> registry) {
    breakers_ = std::move(registry);
  }

 protected:
  Clock* time_source_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  // Cached handles: the traffic hot path must not touch the name map.
  obs::Counter& c_messages_;
  obs::Counter& c_bytes_;
  obs::Counter& c_calls_;
  obs::Counter& c_drops_;
  obs::Counter& c_faults_;
  ByteBufferPool buffer_pool_;

 private:
  NetStats baseline_;  ///< counter readings at the last reset_stats()
  std::atomic<std::uint64_t> call_serial_{0};
  std::shared_ptr<resil::BreakerRegistry> breakers_;
};

}  // namespace h2::net
