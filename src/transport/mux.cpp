#include "transport/mux.hpp"

#include <cerrno>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <string>

#include "transport/http.hpp"

namespace h2::net::sock {

namespace {

/// One non-blocking gathering write. Returns the bytes the socket
/// accepted (0 on would-block), or -1 on a hard error.
ssize_t write_some(int fd, std::span<const std::uint8_t> first,
                   std::span<const std::uint8_t> second) {
  struct iovec iov[2];
  int iovcnt = 0;
  if (!first.empty()) {
    iov[iovcnt].iov_base = const_cast<std::uint8_t*>(first.data());
    iov[iovcnt].iov_len = first.size();
    ++iovcnt;
  }
  if (!second.empty()) {
    iov[iovcnt].iov_base = const_cast<std::uint8_t*>(second.data());
    iov[iovcnt].iov_len = second.size();
    ++iovcnt;
  }
  if (iovcnt == 0) return 0;
  while (true) {
    ssize_t n = ::writev(fd, iov, iovcnt);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

}  // namespace

Result<std::optional<std::span<const std::uint8_t>>> FrameAssembler::next() {
  std::span<const std::uint8_t> data = buffer_.unread();
  if (data.empty()) return std::optional<std::span<const std::uint8_t>>{};
  if (proto_ == Proto::kUnknown) {
    proto_ = data[0] < 0x20 ? Proto::kXdr : Proto::kHttp;
  }
  if (proto_ == Proto::kXdr) {
    if (data.size() < 4) return std::optional<std::span<const std::uint8_t>>{};
    std::size_t frame = (std::size_t{data[0]} << 24) | (std::size_t{data[1]} << 16) |
                        (std::size_t{data[2]} << 8) | std::size_t{data[3]};
    if (frame > kMaxFrameBytes) {
      return err::parse("socknet: frame length " + std::to_string(frame) +
                        " exceeds cap " + std::to_string(kMaxFrameBytes));
    }
    if (data.size() < 4 + frame) return std::optional<std::span<const std::uint8_t>>{};
    (void)buffer_.skip(4 + frame);
    return std::optional(data.subspan(4, frame));
  }
  auto size = http::message_size(data);
  if (!size.ok()) return size.error();
  if (*size == 0 || data.size() < *size) {
    return std::optional<std::span<const std::uint8_t>>{};
  }
  (void)buffer_.skip(*size);
  return std::optional(data.subspan(0, *size));
}

ConnMux::ConnMux(ByteBufferPool& pool, loop::EventLoop& loop)
    : pool_(pool), loop_(loop) {}

ConnMux::~ConnMux() { shutdown(); }

void ConnMux::set_conn_down(ConnDownFn fn) {
  std::lock_guard lock(mu_);
  conn_down_ = std::move(fn);
}

void ConnMux::set_max_outbound_bytes(std::size_t cap) {
  std::lock_guard lock(mu_);
  max_outbound_ = cap;
}

Result<int> ConnMux::add_listener(OwnedFd listener, Handler handler) {
  std::lock_guard lock(mu_);
  if (stop_) return err::unavailable("socknet: mux is shut down");
  int id = next_listener_id_++;
  int raw = listener.get();
  listeners_.push_back(Listener{id, std::move(listener), std::move(handler)});
  auto watched = loop_.watch_fd(
      raw, loop::kFdRead, [this, id](unsigned) { on_listener_ready(id); });
  if (!watched.ok()) {
    listeners_.pop_back();
    return watched.error();
  }
  return id;
}

Status ConnMux::remove_listener(int id) {
  {
    std::lock_guard lock(mu_);
    auto it = std::find_if(listeners_.begin(), listeners_.end(),
                           [id](const Listener& l) { return l.id == id; });
    if (it == listeners_.end()) {
      return err::not_found("socknet: no listener " + std::to_string(id));
    }
    (void)loop_.unwatch_fd(it->fd.get());
    // Closing the fd here releases the port immediately; the listener's
    // live connections die on the loop thread (where their callbacks run).
    listeners_.erase(it);
  }
  loop_.dispatch([this] { sweep_orphans(); });
  return Status::success();
}

void ConnMux::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  loop_.run_sync([this] { teardown_all(); });
}

void ConnMux::teardown_all() {
  std::lock_guard lock(mu_);
  for (auto& conn : conns_) {
    (void)loop_.unwatch_fd(conn->fd.get());
    pool_.release(conn->assembler.release());
    ++stats_.closed;
  }
  conns_.clear();
  for (auto& listener : listeners_) {
    (void)loop_.unwatch_fd(listener.fd.get());
  }
  listeners_.clear();
}

ConnMux::Stats ConnMux::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void ConnMux::on_listener_ready(int id) {
  std::lock_guard lock(mu_);
  if (stop_) return;
  auto it = std::find_if(listeners_.begin(), listeners_.end(),
                         [id](const Listener& l) { return l.id == id; });
  if (it == listeners_.end()) return;  // removed while the event was in flight
  while (true) {
    auto accepted = accept_on(it->fd.get(), /*tcp_nodelay=*/true);
    if (!accepted.ok()) break;  // EAGAIN: queue drained
    auto conn = std::make_unique<Conn>();
    conn->listener_id = it->id;
    conn->fd = std::move(*accepted);
    conn->assembler = FrameAssembler(pool_.acquire());
    conn->handler = it->handler;
    Conn* raw = conn.get();
    auto watched = loop_.watch_fd(
        conn->fd.get(), loop::kFdRead,
        [this, raw](unsigned events) { on_conn_ready(raw, events); });
    if (!watched.ok()) {
      pool_.release(conn->assembler.release());
      continue;  // drop this connection; keep accepting
    }
    conns_.push_back(std::move(conn));
    ++stats_.accepted;
  }
}

void ConnMux::on_conn_ready(Conn* conn, unsigned events) {
  if ((events & loop::kFdError) != 0) {
    // POLLERR-class: the socket is dead (RST, transport failure). Tear
    // down now — no read attempt, no timeout — and say so.
    teardown_conn(conn, "error-event", /*immediate=*/true);
    return;
  }
  if ((events & loop::kFdWrite) != 0) {
    // Writable again: drain queued reply bytes before taking new work.
    if (!flush_outbox(*conn)) {
      std::string reason =
          conn->close_reason.empty() ? "closed" : conn->close_reason;
      teardown_conn(conn, reason, /*immediate=*/false);
      return;
    }
    if ((events & (loop::kFdRead | loop::kFdHangup)) == 0) return;
  }
  // Readable and/or hangup: drain first — an orderly close may still
  // deliver final pipelined requests ahead of the EOF.
  if (!service_conn(*conn)) {
    std::string reason =
        conn->close_reason.empty() ? "closed" : conn->close_reason;
    // Overflow is an immediate conn-down: the peer stopped reading, the
    // server chose to shed it, and breakers should hear kUnavailable now.
    teardown_conn(conn, reason, /*immediate=*/conn->overflowed);
  }
}

void ConnMux::teardown_conn(Conn* conn, std::string_view reason, bool immediate) {
  ConnDownFn down;
  int listener_id = -1;
  {
    std::lock_guard lock(mu_);
    auto it = std::find_if(conns_.begin(), conns_.end(),
                           [conn](const std::unique_ptr<Conn>& c) { return c.get() == conn; });
    if (it == conns_.end()) return;
    (void)loop_.unwatch_fd(conn->fd.get());
    listener_id = conn->listener_id;
    pool_.release(conn->assembler.release());
    conns_.erase(it);
    ++stats_.closed;
    if (immediate) ++stats_.conn_errors;
    down = conn_down_;
  }
  if (down) down(listener_id, reason, immediate);
}

void ConnMux::sweep_orphans() {
  std::vector<int> downed;
  ConnDownFn down;
  {
    std::lock_guard lock(mu_);
    std::set<int> live;
    for (const Listener& listener : listeners_) live.insert(listener.id);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (live.count((*it)->listener_id) == 0) {
        (void)loop_.unwatch_fd((*it)->fd.get());
        pool_.release((*it)->assembler.release());
        downed.push_back((*it)->listener_id);
        it = conns_.erase(it);
        ++stats_.closed;
      } else {
        ++it;
      }
    }
    down = conn_down_;
  }
  if (down) {
    for (int id : downed) down(id, "listener-removed", /*immediate=*/false);
  }
}

bool ConnMux::service_conn(Conn& conn) {
  // Drain the socket. The fd is non-blocking: read until EAGAIN or EOF,
  // feeding the assembler as fragments arrive.
  std::uint8_t chunk[64 * 1024];
  bool saw_eof = false;
  while (true) {
    ssize_t n = ::read(conn.fd.get(), chunk, sizeof(chunk));
    if (n > 0) {
      conn.assembler.append({chunk, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard error
  }

  while (true) {
    auto message = conn.assembler.next();
    if (!message.ok()) return false;  // protocol violation: drop the conn
    if (!message->has_value()) break;
    auto reply = conn.handler(**message);
    {
      std::lock_guard lock(mu_);
      ++stats_.served;
    }
    // Handlers encode errors in-band (reply frames / HTTP faults); an
    // out-of-band error means the server cannot answer at all — the only
    // honest signal left on a byte stream is closing the connection.
    if (!reply.ok()) return false;
    if (conn.assembler.proto() == Proto::kXdr) {
      // One gathering syscall: length prefix + pooled reply body; any
      // remainder the socket won't take queues in the per-conn outbox.
      const auto prefix = frame_prefix(reply->size());
      if (!send_or_buffer(conn, prefix, reply->bytes())) return false;
    } else {
      if (!send_or_buffer(conn, reply->bytes(), {})) return false;
    }
  }
  return !saw_eof;
}

bool ConnMux::send_or_buffer(Conn& conn, std::span<const std::uint8_t> first,
                             std::span<const std::uint8_t> second) {
  // Replies are ordered: while earlier bytes wait in the outbox, new
  // bytes must queue behind them rather than jump the socket.
  if (conn.outbox.remaining() == 0) {
    while (!first.empty() || !second.empty()) {
      ssize_t n = write_some(conn.fd.get(), first, second);
      if (n < 0) {
        conn.close_reason = "write-error";
        return false;
      }
      if (n == 0) break;  // socket full: spill the rest to the outbox
      std::size_t wrote = static_cast<std::size_t>(n);
      std::size_t from_first = std::min(wrote, first.size());
      first = first.subspan(from_first);
      second = second.subspan(wrote - from_first);
    }
    if (first.empty() && second.empty()) return true;
  }
  std::size_t cap;
  {
    std::lock_guard lock(mu_);
    cap = max_outbound_;
  }
  // Compact consumed storage before growing, as the assembler does.
  if (conn.outbox.remaining() == 0 && conn.outbox.size() > 0) conn.outbox.clear();
  conn.outbox.write_bytes(first);
  conn.outbox.write_bytes(second);
  if (cap != 0 && conn.outbox.remaining() > cap) {
    {
      std::lock_guard lock(mu_);
      ++stats_.overflows;
    }
    conn.overflowed = true;
    conn.close_reason = "backpressure-overflow";
    return false;
  }
  if (!conn.write_watched) {
    conn.write_watched = true;
    (void)loop_.set_fd_interest(conn.fd.get(), loop::kFdRead | loop::kFdWrite);
  }
  return true;
}

bool ConnMux::flush_outbox(Conn& conn) {
  while (conn.outbox.remaining() > 0) {
    ssize_t n = write_some(conn.fd.get(), conn.outbox.unread(), {});
    if (n < 0) {
      conn.close_reason = "write-error";
      return false;
    }
    if (n == 0) return true;  // still full; keep write interest armed
    (void)conn.outbox.skip(static_cast<std::size_t>(n));
  }
  conn.outbox.clear();
  if (conn.write_watched) {
    conn.write_watched = false;
    (void)loop_.set_fd_interest(conn.fd.get(), loop::kFdRead);
  }
  return true;
}

}  // namespace h2::net::sock
