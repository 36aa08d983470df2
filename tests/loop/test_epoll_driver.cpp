// EpollDriver tests — the threaded reactor path. These run under the
// tsan preset too: cross-thread post storms and run_sync rendezvous are
// exactly where a data race would hide.
#include "loop/epoll_driver.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "loop/event_loop.hpp"

namespace h2::loop {
namespace {

// Polls until `pred` holds or ~2s elapse. Wall-clock tolerant: the
// assertions below check ordering and counts, never precise latency.
template <typename Pred>
bool wait_for(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(EpollDriver, StartsAndStopsCleanly) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());
  // The reactor thread flips running() once it is on CPU — poll for it.
  EXPECT_TRUE(wait_for([&] { return driver.running(); }));
  EXPECT_TRUE(loop.has_driver());
  driver.stop();
  EXPECT_FALSE(driver.running());
  EXPECT_FALSE(loop.has_driver());
  driver.stop();  // idempotent
}

TEST(EpollDriver, CrossThreadPostsAllExecuteOnLoopThread) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  constexpr int kThreads = 4;
  constexpr int kPostsPerThread = 250;
  std::atomic<int> ran{0};
  std::atomic<int> off_loop{0};

  std::vector<std::thread> posters;
  posters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        loop.post([&] {
          if (!loop.is_current()) off_loop.fetch_add(1);
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : posters) t.join();

  ASSERT_TRUE(wait_for([&] { return ran.load() == kThreads * kPostsPerThread; }));
  EXPECT_EQ(off_loop.load(), 0);
  driver.stop();

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.posted, stats.executed);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GT(stats.cross_thread_posts, 0u);
}

TEST(EpollDriver, DispatchFromLoopThreadRunsInline) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  std::atomic<bool> inner_ran{false};
  loop.run_sync([&] {
    // On the loop thread dispatch must not defer — completion patterns
    // (post_probe etc.) rely on same-thread inline delivery.
    loop.dispatch([&] { inner_ran.store(true); });
    EXPECT_TRUE(inner_ran.load());
  });
  driver.stop();
}

TEST(EpollDriver, RunSyncFromForeignThreadBlocksUntilRun) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  bool ran = false;  // unsynchronized on purpose: run_sync is the fence
  loop.run_sync([&ran, &loop] {
    EXPECT_TRUE(loop.is_current());
    ran = true;
  });
  EXPECT_TRUE(ran);
  driver.stop();
}

TEST(EpollDriver, TimerFiresOnLoopThread) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  std::atomic<int> fires{0};
  std::atomic<bool> on_loop{false};
  (void)loop.schedule(2 * kMillisecond, [&] {
    on_loop.store(loop.is_current());
    fires.fetch_add(1);
  });
  ASSERT_TRUE(wait_for([&] { return fires.load() == 1; }));
  EXPECT_TRUE(on_loop.load());
  driver.stop();
}

TEST(EpollDriver, PeriodicTimerKeepsFiringUntilCancelled) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  std::atomic<int> fires{0};
  TimerId id = loop.schedule_periodic(kMillisecond, [&] { fires.fetch_add(1); });
  ASSERT_TRUE(wait_for([&] { return fires.load() >= 3; }));
  loop.run_sync([&] { EXPECT_TRUE(loop.cancel_timer(id)); });
  driver.stop();
  EXPECT_GE(fires.load(), 3);
}

TEST(EpollDriver, FdReadinessDeliveredViaEpoll) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::mutex mu;
  std::condition_variable cv;
  std::string received;
  ASSERT_TRUE(loop.watch_fd(sv[0], kFdRead, [&](unsigned events) {
                    if ((events & kFdRead) == 0) return;
                    char buf[64];
                    ssize_t n = ::read(sv[0], buf, sizeof buf);
                    if (n <= 0) return;
                    std::lock_guard<std::mutex> lock(mu);
                    received.append(buf, static_cast<std::size_t>(n));
                    cv.notify_all();
                  }).ok());

  ASSERT_EQ(::write(sv[1], "ping", 4), 4);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                            [&] { return received == "ping"; }));
  }
  ASSERT_TRUE(loop.unwatch_fd(sv[0]).ok());
  driver.stop();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(EpollDriver, PeerCloseDeliversHangupImmediately) {
  // Satellite 2 regression: error/hangup readiness must reach the
  // callback without waiting for a read attempt to fail first.
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::atomic<unsigned> seen{0};
  // Interest is deliberately empty: kFdError/kFdHangup are always on.
  ASSERT_TRUE(loop.watch_fd(sv[0], 0, [&](unsigned events) {
                    seen.fetch_or(events);
                  }).ok());

  ::close(sv[1]);
  ASSERT_TRUE(wait_for([&] { return (seen.load() & (kFdHangup | kFdError)) != 0; }));
  ASSERT_TRUE(loop.unwatch_fd(sv[0]).ok());
  driver.stop();
  ::close(sv[0]);
}

TEST(EpollDriver, TwoLoopsPingPong) {
  // The multi-reactor shape the kernel/container split uses: two
  // threaded loops posting to each other.
  EventLoop a("a");
  EventLoop b("b");
  EpollDriver da(a);
  EpollDriver db(b);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());

  constexpr int kRounds = 200;
  std::atomic<int> hops{0};
  std::function<void(int)> hop = [&](int left) {
    if (left == 0) return;
    EventLoop& target = (left % 2 == 0) ? a : b;
    target.post([&hop, &hops, left] {
      hops.fetch_add(1);
      hop(left - 1);
    });
  };
  hop(kRounds);
  ASSERT_TRUE(wait_for([&] { return hops.load() == kRounds; }));
  da.stop();
  db.stop();
  EXPECT_EQ(a.stats().posted, a.stats().executed);
  EXPECT_EQ(b.stats().posted, b.stats().executed);
}

TEST(EpollDriver, CoalescesCrossThreadWakeups) {
  EventLoop loop("t");
  EpollDriver driver(loop);
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(wait_for([&] { return driver.running(); }));

  // Hold the reactor inside a task so a burst of posts piles up behind a
  // single in-flight wakeup.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocked{false};
  loop.post([&] {
    blocked.store(true);
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(wait_for([&] { return blocked.load(); }));

  constexpr int kPosts = 200;
  std::atomic<int> ran{0};
  for (int i = 0; i < kPosts; ++i) {
    loop.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  ASSERT_TRUE(wait_for([&] { return ran.load() == kPosts; }));
  driver.stop();

  auto stats = driver.wake_stats();
  // The whole burst posted while one wakeup was pending: at most a
  // handful of eventfd writes for 200+ wake requests.
  EXPECT_GE(stats.wake_requests, static_cast<std::uint64_t>(kPosts));
  EXPECT_LT(stats.wake_writes, stats.wake_requests);
  // The blocked drain ran the whole burst as one batch.
  EXPECT_GE(stats.max_batch, static_cast<std::uint64_t>(kPosts));
  EXPECT_GE(stats.batch_64_plus, 1u);
  EXPECT_GE(stats.tasks, static_cast<std::uint64_t>(kPosts) + 1);
}

TEST(EpollDriver, PostAfterStopRunsAtNextEagerDrain) {
  EventLoop loop("t");
  {
    EpollDriver driver(loop);
    ASSERT_TRUE(driver.ok());
    driver.stop();
  }
  int ran = 0;
  loop.post([&ran] { ++ran; });  // loop is eager again: runs inline
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.stats().pending, 0u);
}

}  // namespace
}  // namespace h2::loop
