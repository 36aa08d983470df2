// SockNet: the real-socket Transport. The same binding stack that runs
// over SimNetwork — XDR frames, SOAP over HTTP/1.1, batching, dedup,
// resilience — runs here over loopback TCP or Unix-domain sockets, with
// kernel syscalls where the simulator charged a VirtualClock.
//
// Hosts are still logical names registered in-process (the container has
// one machine), but every byte now crosses a real socket: servers sit
// behind reactor event loops (one ConnMux per EventLoop/EpollDriver
// pair, listeners spread round-robin), clients keep persistent
// connections per (destination, port) and frame requests exactly as a
// remote peer would. Logical ports are virtualized — each listen()
// binds an ephemeral kernel port (or a unique socket path) so
// concurrent test runs never collide.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "loop/epoll_driver.hpp"
#include "loop/event_loop.hpp"
#include "transport/mux.hpp"
#include "transport/tcp.hpp"
#include "transport/transport.hpp"
#include "util/clock.hpp"

namespace h2::net {

enum class SockFamily { kTcp, kUds };

class SockNet final : public Transport {
 public:
  /// `reactors` is the number of event loops serving listeners (each on
  /// its own EpollDriver thread). Listeners are assigned round-robin at
  /// listen() time; 1 reproduces the PR 6 single-mux shape.
  explicit SockNet(SockFamily family = SockFamily::kTcp,
                   std::size_t reactors = 1);
  ~SockNet() override;

  // ---- topology (mirrors SimNetwork so harness code is interchangeable) ------

  Result<HostId> add_host(const std::string& name);
  Result<HostId> resolve(std::string_view name) const override;
  const std::string& host_name(HostId id) const override;
  const char* transport_name() const override {
    return family_ == SockFamily::kTcp ? "tcp" : "uds";
  }
  SockFamily family() const { return family_; }

  // ---- servers ----------------------------------------------------------------

  Status listen(HostId host, std::uint16_t port, Handler handler) override;
  Status close(HostId host, std::uint16_t port) override;
  bool is_listening(HostId host, std::uint16_t port) const override;
  Status close_all(HostId host);

  /// The kernel-level address a logical (host, port) is actually bound to.
  Result<sock::SockAddr> endpoint_of(HostId host, std::uint16_t port) const;

  // ---- traffic ----------------------------------------------------------------

  /// Synchronous round trip over a persistent pooled connection. Requests
  /// starting with an "H2R" frame magic travel length-prefixed (XDR
  /// framing); anything else is sent raw as HTTP. The reply is reassembled
  /// incrementally from however the kernel fragments it.
  Result<ByteBuffer> call(HostId from, HostId to, std::uint16_t port,
                          std::span<const std::uint8_t> request) override;

  // ---- time -------------------------------------------------------------------

  void sleep_for(Nanos duration) override;

  // ---- introspection (tests / benchmarks) ------------------------------------

  /// Client connections dialed so far; persistent reuse keeps this far
  /// below the call count.
  std::uint64_t connections_dialed() const;
  /// Aggregated over every reactor's mux.
  sock::ConnMux::Stats mux_stats() const;
  std::size_t reactor_count() const { return muxes_.size(); }
  /// Server connections torn down by an immediate error event.
  std::uint64_t conn_errors() const { return mux_stats().conn_errors; }

 private:
  struct Binding {
    int listener_id = 0;
    std::size_t mux_index = 0;
    sock::SockAddr addr;
  };
  struct Host {
    std::string name;
    std::map<std::uint16_t, Binding> servers;
  };

  static std::uint64_t pool_key(HostId to, std::uint16_t port) {
    return (static_cast<std::uint64_t>(to) << 16) | port;
  }

  Status check_host(HostId id) const;  // callers hold mu_
  /// One request/reply exchange on an established connection. Sets
  /// `*reply_started` once any reply byte arrives — a pooled connection
  /// that dies before that may simply be stale (retried on a fresh dial).
  Result<ByteBuffer> exchange(int fd, std::span<const std::uint8_t> request,
                              bool xdr_framed, bool* reply_started);

  SockFamily family_;
  WallClock wall_;
  /// One reactor = one loop + its epoll thread + the mux reacting on it.
  /// Construction order matters: muxes shut down before drivers stop.
  std::vector<std::unique_ptr<loop::EventLoop>> loops_;
  std::vector<std::unique_ptr<loop::EpollDriver>> drivers_;
  std::vector<std::unique_ptr<sock::ConnMux>> muxes_;
  std::size_t next_mux_ = 0;

  mutable std::mutex mu_;
  std::vector<Host> hosts_;
  /// Idle persistent client connections keyed by (destination, port).
  std::map<std::uint64_t, std::vector<sock::OwnedFd>> conn_pool_;
  std::string uds_dir_;         ///< mkdtemp'd; removed in the destructor
  std::uint64_t uds_serial_ = 0;
  std::uint64_t dialed_ = 0;
};

}  // namespace h2::net
