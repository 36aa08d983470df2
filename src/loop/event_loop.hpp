// EventLoop — the dispatch seam every kernel, container, and transport
// reactor binds to. One loop owns: an MPSC task queue (cross-loop
// post()), a hierarchical timer wheel (heartbeats, anti-entropy,
// backoff; the loop re-arms periodic timers itself), and an fd-interest
// table (socket readiness callbacks). The loop itself never starts a
// thread; a *driver* decides how it runs:
//
//   - no driver ("eager" mode, the default): post()/dispatch() run
//     tasks inline on the calling thread, exactly the synchronous
//     behavior the pre-loop codebase had. Existing call sites keep
//     their semantics (and the sim its byte-identical traces) without
//     opting in to anything.
//   - SimDriver: the sim harness steps every registered loop from one
//     VirtualClock, deterministically (fixed loop order, (deadline,id)
//     timer order, FIFO queues).
//   - EpollDriver: one OS thread per loop, epoll for fd readiness +
//     eventfd wakeup.
//
// Threading contract: post()/dispatch()/schedule()/run_sync() are
// thread-safe. Tasks, timer callbacks, and fd callbacks execute on the
// loop's driving thread (is_current() is true inside them). watch_fd/
// unwatch_fd may be called from any thread, but the state a callback
// touches must only be freed from the loop thread (post the teardown).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loop/hier_wheel.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace h2::loop {

using Task = std::function<void()>;

/// Readiness bits delivered to fd callbacks (a poller-neutral subset).
enum FdEvents : unsigned {
  kFdRead = 1u << 0,
  kFdWrite = 1u << 1,
  kFdError = 1u << 2,   // POLLERR/POLLNVAL-class: the connection is gone
  kFdHangup = 1u << 3,  // peer closed; buffered bytes may remain readable
};

using FdCallback = std::function<void(unsigned events)>;

/// Counters for the no-lost-events invariant and loop introspection.
/// At quiescence every loop must satisfy pending == 0 and
/// posted == executed — a queued task that never ran is a lost event.
struct LoopStats {
  std::uint64_t posted = 0;             // tasks enqueued (post or deferred dispatch)
  std::uint64_t executed = 0;           // queued tasks run to completion
  std::uint64_t inline_runs = 0;        // dispatch() calls that ran inline
  std::uint64_t cross_thread_posts = 0; // posts from off the loop thread (driver mode)
  std::uint64_t timers_scheduled = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t timers_cancelled = 0;
  std::uint64_t fd_events = 0;
  std::size_t fds_watched = 0;
  std::size_t pending = 0;              // queue depth at the snapshot
};

class EventLoop;

/// How a loop is driven. Implementations: SimDriver (virtual time,
/// single-threaded), EpollDriver (own OS thread + epoll).
class Driver {
 public:
  virtual ~Driver() = default;
  /// Called after work is enqueued or a timer armed; must be safe from
  /// any thread and must eventually cause the driver to service the loop.
  virtual void wake() = 0;
  /// The loop's time base (VirtualClock in sim, monotonic wall otherwise).
  virtual Nanos now() const = 0;
  /// True when the driver services the loop from its own thread —
  /// run_sync() from foreign threads then blocks instead of running inline.
  virtual bool threaded() const = 0;
  /// Registers/removes an fd with the driver's poller. Thread-safe.
  virtual Status fd_add(int fd, unsigned interest) = 0;
  virtual void fd_remove(int fd) = 0;
};

class EventLoop {
 public:
  explicit EventLoop(std::string name);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  const std::string& name() const { return name_; }

  /// Enqueues `task` to run on the loop (FIFO). In eager mode the
  /// calling thread drains the queue before returning unless another
  /// thread is already draining — ordering is preserved either way.
  void post(Task task);

  /// Runs `task` inline when that cannot break loop affinity (eager
  /// mode, or already on the loop thread); otherwise posts it. This is
  /// the default entry point for "deliver this to the loop's owner".
  void dispatch(Task task);

  /// True while the calling thread is executing this loop's tasks.
  bool is_current() const {
    return running_thread_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// One-shot timer after `delay` (on the driver's time base).
  TimerId schedule(Nanos delay, Task task);
  /// Periodic timer; first fires one `period` from now.
  TimerId schedule_periodic(Nanos period, Task task);
  bool cancel_timer(TimerId id);

  /// Registers a readiness callback for `fd`. kFdError/kFdHangup are
  /// always delivered regardless of `interest`.
  Status watch_fd(int fd, unsigned interest, FdCallback cb);
  Status unwatch_fd(int fd);
  /// Changes a watched fd's readiness interest in place, keeping its
  /// callback — how a connection toggles write interest on and off as its
  /// outbound buffer fills and drains. Thread-safe, like watch_fd.
  Status set_fd_interest(int fd, unsigned interest);

  /// Runs `task` to completion before returning: inline when safe
  /// (eager mode, non-threaded driver, or already on the loop thread),
  /// otherwise posts and blocks until the loop thread ran it.
  void run_sync(Task task);

  /// Driver time base; monotonic wall clock in eager mode.
  Nanos now() const;

  LoopStats stats() const;

  // --- driver-facing API (also used directly by tests) ---

  /// Binds `driver` and registers every already-watched fd with it.
  void attach_driver(Driver* driver);
  /// Unbinds; the loop reverts to eager mode. Queued tasks survive and
  /// run at the next post()/drain().
  void detach_driver();
  bool has_driver() const;

  /// Runs up to `max` queued tasks on the calling thread; returns the
  /// number run. No-op if another thread is mid-drain.
  std::size_t drain(std::size_t max = SIZE_MAX);
  /// Fires every timer due at `now` in (deadline, id) order.
  std::size_t fire_timers(Nanos now);
  Nanos next_timer_deadline() const;
  /// Routes a poller event to the fd's callback (ignored if unwatched).
  void deliver_fd_event(int fd, unsigned events);

 private:
  struct FdEntry {
    unsigned interest;
    FdCallback callback;
  };

  /// Marks the calling thread as the loop's current executor for the
  /// guard's lifetime. Re-entrant on the same thread (inner guards are
  /// no-ops). In eager mode two threads may race the marker; that only
  /// widens is_current() transiently and eager mode runs inline anyway.
  class CurrentGuard {
   public:
    explicit CurrentGuard(EventLoop& loop) : loop_(loop) {
      auto me = std::this_thread::get_id();
      top_ = loop_.running_thread_.load(std::memory_order_acquire) != me;
      if (top_) loop_.running_thread_.store(me, std::memory_order_release);
    }
    ~CurrentGuard() {
      if (top_) {
        loop_.running_thread_.store(std::thread::id{},
                                    std::memory_order_release);
      }
    }
    CurrentGuard(const CurrentGuard&) = delete;
    CurrentGuard& operator=(const CurrentGuard&) = delete;

   private:
    EventLoop& loop_;
    bool top_;
  };

  /// A wheel entry: the task and its period (0 = one-shot).
  struct Timer {
    Task task;
    Nanos period;
  };

  TimerId schedule_impl(Nanos delay, Nanos period, Task task);
  Nanos now_locked() const;

  std::string name_;
  WallClock wall_;

  mutable std::mutex mu_;
  std::deque<Task> queue_;
  HierWheel<Timer> wheel_;
  std::map<int, FdEntry> fds_;
  Driver* driver_ = nullptr;
  bool draining_ = false;
  LoopStats stats_;

  std::atomic<std::thread::id> running_thread_{};
};

}  // namespace h2::loop
