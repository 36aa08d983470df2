#include "transport/socknet.hpp"

#include <cstdlib>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace h2::net {

SockNet::SockNet(SockFamily family, std::size_t reactors)
    : Transport(&wall_), family_(family) {
  if (reactors == 0) reactors = 1;
  obs::Counter& conn_errors = metrics_.counter("h2.net.conn_errors");
  for (std::size_t i = 0; i < reactors; ++i) {
    loops_.push_back(
        std::make_unique<loop::EventLoop>("socknet/r" + std::to_string(i)));
    drivers_.push_back(std::make_unique<loop::EpollDriver>(*loops_.back()));
    muxes_.push_back(
        std::make_unique<sock::ConnMux>(buffer_pool_, *loops_.back()));
    // Immediate error-event teardowns surface on the shared metric the
    // moment they happen — breakers and dashboards see a dead peer
    // without waiting for a client timeout.
    muxes_.back()->set_conn_down(
        [&conn_errors](int, std::string_view, bool immediate) {
          if (immediate) conn_errors.add();
        });
  }
}

SockNet::~SockNet() {
  // Muxes unregister their fds from the loops first; only then stop the
  // reactor threads (the reverse order would tear down under live events).
  for (auto& mux : muxes_) mux->shutdown();
  for (auto& driver : drivers_) driver->stop();
  std::lock_guard lock(mu_);
  conn_pool_.clear();
  for (const auto& host : hosts_) {
    for (const auto& [port, binding] : host.servers) {
      if (binding.addr.uds) ::unlink(binding.addr.path.c_str());
    }
  }
  if (!uds_dir_.empty()) ::rmdir(uds_dir_.c_str());
}

Result<HostId> SockNet::add_host(const std::string& name) {
  std::lock_guard lock(mu_);
  for (const auto& host : hosts_) {
    if (host.name == name) {
      return err::already_exists("socknet: host '" + name + "' already exists");
    }
  }
  hosts_.push_back(Host{name, {}});
  return static_cast<HostId>(hosts_.size() - 1);
}

Result<HostId> SockNet::resolve(std::string_view name) const {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].name == name) return static_cast<HostId>(i);
  }
  return err::not_found("socknet: no host named '" + std::string(name) + "'");
}

const std::string& SockNet::host_name(HostId id) const {
  static const std::string kUnknown = "<unknown>";
  std::lock_guard lock(mu_);
  if (id >= hosts_.size()) return kUnknown;
  return hosts_[id].name;
}

Status SockNet::check_host(HostId id) const {
  if (id >= hosts_.size()) {
    return err::invalid_argument("socknet: bad host id " + std::to_string(id));
  }
  return Status::success();
}

Status SockNet::listen(HostId host, std::uint16_t port, Handler handler) {
  std::lock_guard lock(mu_);
  if (auto s = check_host(host); !s.ok()) return s;
  auto& servers = hosts_[host].servers;
  if (servers.count(port)) {
    return err::already_exists("socknet: port " + std::to_string(port) +
                               " already bound on " + hosts_[host].name);
  }

  sock::SockAddr addr;
  if (family_ == SockFamily::kUds) {
    if (uds_dir_.empty()) {
      char tmpl[] = "/tmp/h2sock.XXXXXX";
      const char* dir = ::mkdtemp(tmpl);
      if (dir == nullptr) return err::internal("socknet: mkdtemp failed");
      uds_dir_ = dir;
    }
    addr.uds = true;
    // The serial makes a close()+listen() cycle bind a fresh path, so a
    // stale pooled client cannot accidentally reach the new incarnation.
    addr.path = uds_dir_ + "/h" + std::to_string(host) + "p" + std::to_string(port) +
                "s" + std::to_string(++uds_serial_) + ".sock";
  }
  // TCP: addr defaults to 127.0.0.1:0 — the kernel assigns the real port.

  auto fd = sock::listen_on(addr);
  if (!fd.ok()) return fd.error();
  std::size_t mux_index = next_mux_++ % muxes_.size();
  auto listener_id =
      muxes_[mux_index]->add_listener(std::move(*fd), std::move(handler));
  if (!listener_id.ok()) return listener_id.error();
  servers[port] = Binding{*listener_id, mux_index, addr};
  return Status::success();
}

Status SockNet::close(HostId host, std::uint16_t port) {
  std::lock_guard lock(mu_);
  if (auto s = check_host(host); !s.ok()) return s;
  auto& servers = hosts_[host].servers;
  auto it = servers.find(port);
  if (it == servers.end()) {
    return err::not_found("socknet: port " + std::to_string(port) + " not bound");
  }
  (void)muxes_[it->second.mux_index]->remove_listener(it->second.listener_id);
  if (it->second.addr.uds) ::unlink(it->second.addr.path.c_str());
  servers.erase(it);
  // Idle pooled connections to this port are now dead weight: drop them so
  // the next call dials (and is properly refused, as SimNetwork refuses
  // delivery to a closed port).
  conn_pool_.erase(pool_key(host, port));
  return Status::success();
}

bool SockNet::is_listening(HostId host, std::uint16_t port) const {
  std::lock_guard lock(mu_);
  return host < hosts_.size() && hosts_[host].servers.count(port) > 0;
}

Status SockNet::close_all(HostId host) {
  std::vector<std::uint16_t> ports;
  {
    std::lock_guard lock(mu_);
    if (auto s = check_host(host); !s.ok()) return s;
    for (const auto& [port, binding] : hosts_[host].servers) ports.push_back(port);
  }
  for (auto port : ports) (void)close(host, port);
  return Status::success();
}

Result<sock::SockAddr> SockNet::endpoint_of(HostId host, std::uint16_t port) const {
  std::lock_guard lock(mu_);
  if (auto s = check_host(host); !s.ok()) return s.error();
  auto it = hosts_[host].servers.find(port);
  if (it == hosts_[host].servers.end()) {
    return err::not_found("socknet: port " + std::to_string(port) + " not bound");
  }
  return it->second.addr;
}

std::uint64_t SockNet::connections_dialed() const {
  std::lock_guard lock(mu_);
  return dialed_;
}

sock::ConnMux::Stats SockNet::mux_stats() const {
  sock::ConnMux::Stats total;
  for (const auto& mux : muxes_) {
    auto s = mux->stats();
    total.accepted += s.accepted;
    total.served += s.served;
    total.closed += s.closed;
    total.conn_errors += s.conn_errors;
  }
  return total;
}

void SockNet::sleep_for(Nanos duration) {
  if (duration <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(duration));
}

Result<ByteBuffer> SockNet::exchange(int fd, std::span<const std::uint8_t> request,
                                     bool xdr_framed, bool* reply_started) {
  Status written = Status::success();
  if (xdr_framed) {
    const auto prefix = sock::frame_prefix(request.size());
    written = sock::write_all(fd, prefix, request);
  } else {
    written = sock::write_all(fd, request);
  }
  if (!written.ok()) return written.error();

  sock::FrameAssembler assembler(buffer_pool_.acquire(),
                                 xdr_framed ? sock::Proto::kXdr : sock::Proto::kHttp);
  const Nanos deadline = wall_.now() + call_timeout_;
  std::uint8_t chunk[64 * 1024];
  while (true) {
    auto message = assembler.next();
    if (!message.ok()) {
      buffer_pool_.release(assembler.release());
      return message.error();
    }
    if (message->has_value()) {
      ByteBuffer out;
      out.write_bytes(**message);
      buffer_pool_.release(assembler.release());
      return out;
    }
    Nanos remaining = deadline - wall_.now();
    if (remaining <= 0) {
      buffer_pool_.release(assembler.release());
      return err::timeout("socknet: no complete reply within deadline");
    }
    auto n = sock::read_some(fd, chunk, remaining);
    if (!n.ok()) {
      buffer_pool_.release(assembler.release());
      return n.error();
    }
    if (*n == 0) {
      bool mid_reply = assembler.buffered() > 0;
      buffer_pool_.release(assembler.release());
      return err::unavailable(mid_reply ? "socknet: connection closed mid-reply"
                                        : "socknet: connection closed by peer");
    }
    *reply_started = true;
    assembler.append({chunk, *n});
  }
}

Result<ByteBuffer> SockNet::call(HostId from, HostId to, std::uint16_t port,
                                 std::span<const std::uint8_t> request) {
  sock::SockAddr addr;
  sock::OwnedFd conn;
  {
    std::lock_guard lock(mu_);
    if (auto s = check_host(from); !s.ok()) return s.error();
    if (auto s = check_host(to); !s.ok()) return s.error();
    auto it = hosts_[to].servers.find(port);
    if (it == hosts_[to].servers.end()) {
      ++stats_.drops;
      c_drops_.add();
      return err::unavailable("socknet: connection refused, " + hosts_[to].name + ":" +
                              std::to_string(port));
    }
    addr = it->second.addr;
    auto& idle = conn_pool_[pool_key(to, port)];
    if (!idle.empty()) {
      conn = std::move(idle.back());
      idle.pop_back();
    }
  }

  // Client-side framing mirrors the server's per-connection sniff: H2R*
  // frame magics travel length-prefixed, everything else is raw HTTP.
  const bool xdr_framed = request.size() >= 3 && request[0] == 'H' &&
                          request[1] == '2' && request[2] == 'R';

  // One retry: a pooled connection may be stale (server closed it while it
  // sat idle). A fresh dial that still fails is a real error.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool fresh = false;
    if (!conn.valid()) {
      auto dialed = sock::dial(addr, call_timeout_);
      if (!dialed.ok()) {
        std::lock_guard lock(mu_);
        ++stats_.drops;
        c_drops_.add();
        return err::unavailable("socknet: connection refused, " + hosts_[to].name +
                                ":" + std::to_string(port) + " (" +
                                dialed.error().message() + ")");
      }
      conn = std::move(*dialed);
      fresh = true;
      std::lock_guard lock(mu_);
      ++dialed_;
    }

    bool reply_started = false;
    auto response = exchange(conn.get(), request, xdr_framed, &reply_started);
    if (response.ok()) {
      std::lock_guard lock(mu_);
      // Same accounting as SimNetwork's successful round trip: one message
      // per direction, payload bytes only (the length prefix is framing).
      stats_.messages += 2;
      stats_.bytes += request.size() + response->size();
      ++stats_.calls;
      c_messages_.add(2);
      c_bytes_.add(request.size() + response->size());
      c_calls_.add();
      conn_pool_[pool_key(to, port)].push_back(std::move(conn));
      return response;
    }

    conn.reset();
    const bool stale_pooled = !fresh && !reply_started &&
                              response.error().code() == ErrorCode::kUnavailable;
    if (stale_pooled) continue;

    if (response.error().code() == ErrorCode::kTimeout) {
      // Reply never arrived — the handler may or may not have run, exactly
      // the ambiguity SimNetwork's drop_reply models.
      std::lock_guard lock(mu_);
      ++stats_.drops;
      c_drops_.add();
    }
    return response.error();
  }
  std::lock_guard lock(mu_);
  ++stats_.drops;
  c_drops_.add();
  return err::unavailable("socknet: connection refused, " + hosts_[to].name + ":" +
                          std::to_string(port) + " (pooled and fresh both failed)");
}

}  // namespace h2::net
