// ConnMux — the reactor serving socket listeners of one SockNet. Each
// mux registers its listening sockets and accepted connections with an
// EventLoop (fd-readiness callbacks, BigWorld EventDispatcher style):
// the loop's driver — normally an EpollDriver thread — delivers
// readiness, the mux reassembles complete messages out of the
// fragmented byte stream (length-framed XDR or keep-alive HTTP/1.1,
// sniffed per connection), invokes the bound Handler, and writes the
// reply back with a single gathering writev. No thread per connection,
// and no thread per mux either: several muxes can share one loop, and
// a multi-reactor SockNet runs one mux per loop.
//
// Error events (POLLERR-class) tear the connection down immediately —
// before any read attempt — and fire the conn-down callback, so circuit
// breakers learn about a dead peer without waiting for a timeout.
// Hangups still drain buffered bytes first: an orderly close may carry
// final pipelined requests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "loop/event_loop.hpp"
#include "transport/tcp.hpp"
#include "transport/transport.hpp"
#include "util/buffer_pool.hpp"

namespace h2::net::sock {

/// Wire protocol of one connection, decided once from its first byte: a
/// length-framed XDR stream's 4-byte big-endian prefix starts 0x00-0x03
/// (frames are capped at kMaxFrameBytes), while HTTP starts with an ASCII
/// method or version token (>= 0x20).
enum class Proto { kUnknown, kXdr, kHttp };

/// Hard cap on one length-framed XDR message; a larger prefix is a
/// protocol violation (or an HTTP stream mis-sniffed), not a real frame.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// The 4-byte big-endian length prefix that heads one length-framed XDR
/// message on the wire (FrameAssembler strips it on the way in).
inline std::array<std::uint8_t, 4> frame_prefix(std::size_t size) {
  return {static_cast<std::uint8_t>(size >> 24), static_cast<std::uint8_t>(size >> 16),
          static_cast<std::uint8_t>(size >> 8), static_cast<std::uint8_t>(size)};
}

/// Reassembles complete messages from an incremental byte stream. Bytes
/// arrive in arbitrary fragments via append(); next() yields one complete
/// message at a time — the XDR frame payload (prefix stripped) or a whole
/// HTTP head+body message. Returned spans alias the internal buffer and
/// stay valid until the next append()/next().
class FrameAssembler {
 public:
  /// `buffer` donates recycled capacity (pass a pooled buffer). A known
  /// protocol skips sniffing — clients know what they dialed for.
  explicit FrameAssembler(ByteBuffer buffer = ByteBuffer{},
                          Proto proto = Proto::kUnknown)
      : buffer_(std::move(buffer)), proto_(proto) {
    buffer_.clear();
  }

  void append(std::span<const std::uint8_t> bytes) {
    // Compact before growing: once everything buffered has been consumed
    // the storage can restart from zero instead of creeping forward.
    if (buffer_.remaining() == 0 && buffer_.size() > 0) buffer_.clear();
    buffer_.write_bytes(bytes);
  }

  /// One complete message, std::nullopt when more bytes are needed, or a
  /// parse error on protocol violation (oversized frame/head).
  Result<std::optional<std::span<const std::uint8_t>>> next();

  Proto proto() const { return proto_; }
  std::size_t buffered() const { return buffer_.remaining(); }

  /// Surrenders the internal buffer (for returning capacity to a pool).
  ByteBuffer release() { return std::move(buffer_); }

 private:
  ByteBuffer buffer_;
  Proto proto_;
};

class ConnMux {
 public:
  /// Default per-connection cap on queued outbound reply bytes. A client
  /// that stops reading can absorb this much buffering; past it the
  /// connection is torn down (see set_max_outbound_bytes).
  static constexpr std::size_t kDefaultMaxOutboundBytes = 4u << 20;

  struct Stats {
    std::uint64_t accepted = 0;     ///< connections accepted over all listeners
    std::uint64_t served = 0;       ///< complete messages dispatched to handlers
    std::uint64_t closed = 0;       ///< connections torn down (EOF/error/unbind)
    std::uint64_t conn_errors = 0;  ///< closed by an immediate error event (RST-class)
    std::uint64_t overflows = 0;    ///< closed by the outbound-backpressure cap
  };

  /// Told when a connection goes down. `immediate` is true for
  /// error-event teardowns (no read attempt was needed) — the signal
  /// breakers want right away.
  using ConnDownFn =
      std::function<void(int listener_id, std::string_view reason, bool immediate)>;

  /// Reacts on `loop`, one reactor client among possibly many. The
  /// caller pairs the loop with a driver and keeps both alive until
  /// after shutdown().
  ConnMux(ByteBufferPool& pool, loop::EventLoop& loop);
  ~ConnMux();
  ConnMux(const ConnMux&) = delete;
  ConnMux& operator=(const ConnMux&) = delete;

  /// Registers a listening socket; its accepted connections dispatch to
  /// `handler`. Returns a listener id for remove_listener.
  Result<int> add_listener(OwnedFd listener, Handler handler);

  /// Closes the listener AND every connection accepted from it — after an
  /// unbind, a client reusing a kept-alive connection must see a closed
  /// socket, exactly as SimNetwork's closed port refuses delivery.
  Status remove_listener(int id);

  /// Registers the conn-down callback (invoked off the mux mutex, on
  /// the loop thread). Set before traffic starts.
  void set_conn_down(ConnDownFn fn);

  /// Caps the outbound bytes queued per connection. Replies that cannot
  /// be written immediately (a slow or stalled reader) buffer in the
  /// connection's outbox and drain on writability; once the outbox would
  /// exceed `cap`, the connection is torn down as "backpressure-overflow"
  /// (an immediate conn-down, so breakers see kUnavailable) instead of
  /// buffering without bound. 0 = unlimited.
  void set_max_outbound_bytes(std::size_t cap);

  /// Unregisters and closes everything. Idempotent.
  void shutdown();

  Stats stats() const;

 private:
  struct Listener {
    int id;
    OwnedFd fd;
    Handler handler;
  };
  struct Conn {
    int listener_id;
    OwnedFd fd;
    FrameAssembler assembler;
    Handler handler;  ///< copied from the listener at accept time
    ByteBuffer outbox;          ///< reply bytes the socket would not take yet
    bool write_watched = false; ///< kFdWrite interest currently armed
    bool overflowed = false;    ///< outbox blew the cap; teardown pending
    std::string close_reason;   ///< set by the write path for teardown
  };

  /// Loop callbacks (run on the loop thread).
  void on_listener_ready(int id);
  void on_conn_ready(Conn* conn, unsigned events);
  /// Drains readable bytes, dispatches complete messages, writes replies.
  /// False → connection is done (EOF, error, protocol violation).
  bool service_conn(Conn& conn);
  /// Writes what the socket takes now and queues the rest in the outbox
  /// (arming write interest); false → hard error or backpressure cap hit.
  bool send_or_buffer(Conn& conn, std::span<const std::uint8_t> first,
                      std::span<const std::uint8_t> second);
  /// Drains the outbox on writability; disarms write interest when empty.
  bool flush_outbox(Conn& conn);
  /// Unwatches + frees one connection; fires the conn-down callback.
  /// Only ever runs on the loop thread (or after the driver stopped).
  void teardown_conn(Conn* conn, std::string_view reason, bool immediate);
  /// Drops connections whose listener is gone (loop thread).
  void sweep_orphans();
  void teardown_all();

  ByteBufferPool& pool_;
  loop::EventLoop& loop_;
  mutable std::mutex mu_;
  std::vector<Listener> listeners_;
  std::vector<std::unique_ptr<Conn>> conns_;
  ConnDownFn conn_down_;
  Stats stats_;
  std::size_t max_outbound_ = kDefaultMaxOutboundBytes;
  int next_listener_id_ = 1;
  bool stop_ = false;
};

}  // namespace h2::net::sock
