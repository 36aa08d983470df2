// EpollDriver — runs one EventLoop on its own OS thread: epoll for fd
// readiness, an eventfd for cross-thread wakeups (post/schedule/stop),
// and the loop's timer-wheel deadline as the wait timeout.
//
// Lifecycle: the constructor attaches to the loop and starts the
// thread; stop() (or the destructor) signals it, joins, runs one final
// drain so run_sync() waiters posted before the stop complete, and
// detaches — the loop reverts to eager mode with its state intact.
// Shut down the loop's clients (muxes, timers) before stopping the
// driver; a post() that races a completed stop() runs at the next
// eager drain instead of being lost.
#pragma once

#include <atomic>
#include <thread>

#include "loop/event_loop.hpp"

namespace h2::loop {

class EpollDriver final : public Driver {
 public:
  /// Attaches to `loop` and starts the reactor thread.
  explicit EpollDriver(EventLoop& loop);
  ~EpollDriver() override;

  EpollDriver(const EpollDriver&) = delete;
  EpollDriver& operator=(const EpollDriver&) = delete;

  /// False when epoll/eventfd setup failed; the loop stays eager.
  bool ok() const { return epoll_fd_ >= 0; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Cross-thread wakeup coalescing counters. `wake_writes <=
  /// wake_requests`: while one eventfd write is in flight, further
  /// posts skip the syscall and ride the same reactor wakeup; the batch
  /// fields record how many queued tasks each reactor drain then ran.
  struct WakeStats {
    std::uint64_t wake_requests = 0;  ///< wake() calls (posts, timers, stop)
    std::uint64_t wake_writes = 0;    ///< eventfd writes actually issued
    std::uint64_t batches = 0;        ///< reactor drains that ran >= 1 task
    std::uint64_t tasks = 0;          ///< tasks run across those drains
    std::uint64_t max_batch = 0;      ///< largest single drain
    std::uint64_t batch_1 = 0;        ///< drains running exactly 1 task
    std::uint64_t batch_2_7 = 0;
    std::uint64_t batch_8_63 = 0;
    std::uint64_t batch_64_plus = 0;
  };
  WakeStats wake_stats() const;

  /// Stops and joins the reactor thread, detaches the loop. Idempotent.
  void stop();

  // --- Driver ---
  void wake() override;
  Nanos now() const override { return wall_.now(); }
  bool threaded() const override { return true; }
  Status fd_add(int fd, unsigned interest) override;
  void fd_remove(int fd) override;

 private:
  void run();

  EventLoop& loop_;
  WallClock wall_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> wake_pending_{false};  ///< an eventfd write is in flight
  std::atomic<std::uint64_t> wake_requests_{0};
  std::atomic<std::uint64_t> wake_writes_{0};
  // Batch stats: written only by the reactor thread, relaxed-read by
  // wake_stats().
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::atomic<std::uint64_t> batch_1_{0};
  std::atomic<std::uint64_t> batch_2_7_{0};
  std::atomic<std::uint64_t> batch_8_63_{0};
  std::atomic<std::uint64_t> batch_64_plus_{0};
  std::thread thread_;
};

}  // namespace h2::loop
