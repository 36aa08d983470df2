// Outbound backpressure in the connection multiplexer: a client that
// pipelines requests without reading replies forces the mux to buffer
// reply bytes per connection. Under the cap the outbox drains on
// writability in order; past the cap the connection is torn down as an
// IMMEDIATE conn-down ("backpressure-overflow"), the signal circuit
// breakers map to kUnavailable — bounded memory instead of a slow
// reader holding the reactor's heap hostage.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "loop/epoll_driver.hpp"
#include "transport/mux.hpp"
#include "transport/tcp.hpp"
#include "util/buffer_pool.hpp"

namespace h2::net::sock {
namespace {

constexpr Nanos kIoTimeout = 5ULL * 1000 * 1000 * 1000;  // 5s; CI-safe

/// One length-framed XDR request: 4-byte big-endian prefix + payload.
std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
  const auto prefix = frame_prefix(payload.size());
  std::vector<std::uint8_t> out(prefix.begin(), prefix.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Reads exactly `want` bytes or fails the test.
bool read_exact(int fd, std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    auto n = read_some(fd, out.subspan(got), kIoTimeout);
    if (!n.ok() || *n == 0) return false;
    got += *n;
  }
  return true;
}

/// Captures the mux's conn-down callback (loop thread) for the test
/// thread to poll and wait on.
struct DownWatcher {
  std::mutex mu;
  std::condition_variable cv;
  bool down = false;
  std::string reason;
  bool immediate = false;

  ConnMux::ConnDownFn hook() {
    return [this](int, std::string_view why, bool imm) {
      std::lock_guard<std::mutex> lock(mu);
      down = true;
      reason = std::string(why);
      immediate = imm;
      cv.notify_all();
    };
  }

  bool fired() {
    std::lock_guard<std::mutex> lock(mu);
    return down;
  }

  bool wait() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10), [this] { return down; });
  }
};

class MuxBackpressureTest : public ::testing::Test {
 protected:
  /// Serves replies of `reply_bytes`, first byte echoing the request's
  /// first byte so the client can verify reply order.
  void start(std::size_t reply_bytes) {
    driver_ = std::make_unique<loop::EpollDriver>(loop_);
    ASSERT_TRUE(driver_->ok());
    mux_ = std::make_unique<ConnMux>(pool_, loop_);
    mux_->set_conn_down(down_.hook());
    SockAddr addr;  // TCP, kernel-assigned port
    auto listener = listen_on(addr);
    ASSERT_TRUE(listener.ok()) << listener.error().describe();
    addr_ = addr;
    auto id = mux_->add_listener(
        std::move(*listener),
        [reply_bytes](std::span<const std::uint8_t> request) -> Result<ByteBuffer> {
          ByteBuffer reply;
          std::vector<std::uint8_t> body(reply_bytes, 0xAB);
          if (!request.empty()) body[0] = request[0];
          reply.write_bytes(body);
          return reply;
        });
    ASSERT_TRUE(id.ok()) << id.error().describe();
  }

  void TearDown() override {
    if (mux_) mux_->shutdown();
    if (driver_) driver_->stop();
  }

  ByteBufferPool pool_;
  loop::EventLoop loop_{"mux-test"};
  std::unique_ptr<loop::EpollDriver> driver_;
  std::unique_ptr<ConnMux> mux_;
  SockAddr addr_;
  DownWatcher down_;
};

TEST_F(MuxBackpressureTest, SlowReaderPastTheCapIsTornDownImmediately) {
  constexpr std::size_t kReplyBytes = 256u << 10;
  start(kReplyBytes);
  mux_->set_max_outbound_bytes(64u << 10);  // far below one reply burst

  auto client = dial(addr_, kIoTimeout);
  ASSERT_TRUE(client.ok()) << client.error().describe();

  // Pipeline requests and never read: kernel buffers absorb the first
  // replies, then the outbox fills past the cap. 64 × 256KB of replies is
  // far beyond any default socket buffering.
  std::vector<std::uint8_t> payload(64, 0x01);
  auto wire = frame(payload);
  for (int i = 0; i < 64 && !down_.fired(); ++i) {
    if (!write_all(client->get(), wire).ok()) break;  // mux already hung up
  }

  ASSERT_TRUE(down_.wait()) << "overflow teardown never fired";
  EXPECT_EQ(down_.reason, "backpressure-overflow");
  EXPECT_TRUE(down_.immediate);  // breakers must see kUnavailable, not a timeout
  EXPECT_EQ(mux_->stats().overflows, 1u);
  EXPECT_GE(mux_->stats().closed, 1u);

  // The socket is really gone: the client eventually reads EOF/reset.
  std::uint8_t buf[4096];
  for (;;) {
    auto n = read_some(client->get(), buf, kIoTimeout);
    if (!n.ok() || *n == 0) break;
  }
}

TEST_F(MuxBackpressureTest, BufferedRepliesDrainInOrderUnderTheCap) {
  constexpr std::size_t kReplyBytes = 32u << 10;
  constexpr int kRequests = 8;
  start(kReplyBytes);  // default 4MB cap; 8 × 32KB sits well under it

  auto client = dial(addr_, kIoTimeout);
  ASSERT_TRUE(client.ok()) << client.error().describe();

  // Send everything before reading anything: replies the socket won't
  // take queue in the outbox and must come back complete and in request
  // order once we start draining.
  for (int i = 0; i < kRequests; ++i) {
    std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(i + 1));
    ASSERT_TRUE(write_all(client->get(), frame(payload)).ok()) << i;
  }
  for (int i = 0; i < kRequests; ++i) {
    std::uint8_t prefix[4];
    ASSERT_TRUE(read_exact(client->get(), prefix)) << "reply " << i;
    const std::uint32_t len = (std::uint32_t{prefix[0]} << 24) |
                              (std::uint32_t{prefix[1]} << 16) |
                              (std::uint32_t{prefix[2]} << 8) | prefix[3];
    ASSERT_EQ(len, kReplyBytes) << "reply " << i;
    std::vector<std::uint8_t> body(len);
    ASSERT_TRUE(read_exact(client->get(), body)) << "reply " << i;
    EXPECT_EQ(body[0], static_cast<std::uint8_t>(i + 1)) << "reply order broke";
    EXPECT_EQ(body[1], 0xAB);
  }

  EXPECT_EQ(mux_->stats().served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(mux_->stats().overflows, 0u);
  EXPECT_FALSE(down_.fired());
}

TEST_F(MuxBackpressureTest, ZeroCapMeansUnlimitedBuffering) {
  constexpr std::size_t kReplyBytes = 256u << 10;
  constexpr int kRequests = 24;  // 6MB of replies: past the 4MB default cap
  start(kReplyBytes);
  mux_->set_max_outbound_bytes(0);

  auto client = dial(addr_, kIoTimeout);
  ASSERT_TRUE(client.ok()) << client.error().describe();
  for (int i = 0; i < kRequests; ++i) {
    std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(i + 1));
    ASSERT_TRUE(write_all(client->get(), frame(payload)).ok()) << i;
  }
  std::size_t total = 0;
  const std::size_t want = static_cast<std::size_t>(kRequests) * (4 + kReplyBytes);
  std::vector<std::uint8_t> buf(64u << 10);
  while (total < want) {
    auto n = read_some(client->get(), buf, kIoTimeout);
    ASSERT_TRUE(n.ok()) << "after " << total << " of " << want << " bytes";
    ASSERT_NE(*n, 0u) << "server hung up early after " << total << " bytes";
    total += *n;
  }
  EXPECT_EQ(total, want);
  EXPECT_EQ(mux_->stats().overflows, 0u);
  EXPECT_FALSE(down_.fired());
}

}  // namespace
}  // namespace h2::net::sock
