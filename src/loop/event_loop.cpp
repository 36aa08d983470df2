#include "loop/event_loop.hpp"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "util/thread_pool.hpp"

namespace h2::loop {

EventLoop::EventLoop(std::string name) : name_(std::move(name)) {}

EventLoop::~EventLoop() = default;

void EventLoop::post(Task task) {
  Driver* driver = nullptr;
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
    ++stats_.posted;
    driver = driver_;
    if (driver != nullptr && !is_current()) ++stats_.cross_thread_posts;
    // wake() under the lock so a concurrent detach_driver() (which also
    // takes mu_) cannot free the driver out from under us.
    if (driver != nullptr) driver->wake();
  }
  if (driver == nullptr) drain();
}

void EventLoop::dispatch(Task task) {
  {
    std::lock_guard lock(mu_);
    if (driver_ != nullptr && !is_current()) {
      queue_.push_back(std::move(task));
      ++stats_.posted;
      ++stats_.cross_thread_posts;
      driver_->wake();
      return;
    }
    ++stats_.inline_runs;
  }
  CurrentGuard guard(*this);
  task();
}

TimerId EventLoop::schedule_impl(Nanos delay, Nanos period, Task task) {
  std::lock_guard lock(mu_);
  TimerId id = wheel_.add(now_locked(), delay,
                          Timer{std::move(task), std::max<Nanos>(period, 0)});
  ++stats_.timers_scheduled;
  if (driver_ != nullptr) driver_->wake();  // re-derive the wait deadline
  return id;
}

TimerId EventLoop::schedule(Nanos delay, Task task) {
  return schedule_impl(delay, 0, std::move(task));
}

TimerId EventLoop::schedule_periodic(Nanos period, Task task) {
  return schedule_impl(period, period, std::move(task));
}

bool EventLoop::cancel_timer(TimerId id) {
  std::lock_guard lock(mu_);
  if (!wheel_.cancel(id)) return false;
  ++stats_.timers_cancelled;
  return true;
}

Status EventLoop::watch_fd(int fd, unsigned interest, FdCallback cb) {
  std::lock_guard lock(mu_);
  if (fds_.count(fd) != 0) {
    return err::already_exists("fd " + std::to_string(fd) +
                               " already watched on loop " + name_);
  }
  if (driver_ != nullptr) {
    if (auto status = driver_->fd_add(fd, interest); !status.ok()) {
      return status.context("watch_fd(" + name_ + ")");
    }
  }
  fds_.emplace(fd, FdEntry{interest, std::move(cb)});
  stats_.fds_watched = fds_.size();
  return {};
}

Status EventLoop::unwatch_fd(int fd) {
  std::lock_guard lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return err::not_found("fd " + std::to_string(fd) + " not watched on loop " +
                          name_);
  }
  if (driver_ != nullptr) driver_->fd_remove(fd);
  fds_.erase(it);
  stats_.fds_watched = fds_.size();
  return {};
}

Status EventLoop::set_fd_interest(int fd, unsigned interest) {
  std::lock_guard lock(mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return err::not_found("fd " + std::to_string(fd) + " not watched on loop " +
                          name_);
  }
  if (it->second.interest == interest) return {};
  it->second.interest = interest;
  if (driver_ != nullptr) {
    // Drivers register with ADD-only semantics, so re-register.
    driver_->fd_remove(fd);
    if (auto status = driver_->fd_add(fd, interest); !status.ok()) {
      return status.context("set_fd_interest(" + name_ + ")");
    }
  }
  return {};
}

void EventLoop::run_sync(Task task) {
  bool inline_ok;
  {
    std::lock_guard lock(mu_);
    inline_ok = driver_ == nullptr || !driver_->threaded() || is_current();
  }
  if (inline_ok) {
    CurrentGuard guard(*this);
    task();
    return;
  }
  // Heap-shared rendezvous: the waiter can return (and unwind its stack)
  // the instant `done` flips, while the loop thread may still be inside
  // notify_one() — the state must outlive both sides, not live on the
  // waiting stack.
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<SyncState>();
  post([task = std::move(task), state] {
    task();
    {
      std::lock_guard lock(state->mu);
      state->done = true;
    }
    state->cv.notify_one();
  });
  std::unique_lock lock(state->mu);
  state->cv.wait(lock, [&state] { return state->done; });
}

void EventLoop::offload(Task work, Task done) {
  ThreadPool* pool = nullptr;
  {
    std::lock_guard lock(mu_);
    if (driver_ != nullptr) pool = driver_->worker_pool();
  }
  if (pool != nullptr) {
    auto shared_work = std::make_shared<Task>(std::move(work));
    auto shared_done = std::make_shared<Task>(std::move(done));
    if (pool->post([this, shared_work, shared_done] {
          (*shared_work)();
          post(std::move(*shared_done));
        })) {
      return;
    }
    (*shared_work)();  // pool shut down: degrade to inline
    dispatch(std::move(*shared_done));
    return;
  }
  work();  // no pool: run inline
  dispatch(std::move(done));
}

Nanos EventLoop::now_locked() const {
  return driver_ != nullptr ? driver_->now() : wall_.now();
}

Nanos EventLoop::now() const {
  std::lock_guard lock(mu_);
  return now_locked();
}

LoopStats EventLoop::stats() const {
  std::lock_guard lock(mu_);
  LoopStats snapshot = stats_;
  snapshot.pending = queue_.size();
  snapshot.fds_watched = fds_.size();
  return snapshot;
}

void EventLoop::attach_driver(Driver* driver) {
  std::lock_guard lock(mu_);
  driver_ = driver;
  if (driver == nullptr) return;
  for (const auto& [fd, entry] : fds_) {
    (void)driver->fd_add(fd, entry.interest);
  }
}

void EventLoop::detach_driver() {
  std::lock_guard lock(mu_);
  if (driver_ != nullptr) {
    for (const auto& [fd, entry] : fds_) driver_->fd_remove(fd);
  }
  driver_ = nullptr;
}

bool EventLoop::has_driver() const {
  std::lock_guard lock(mu_);
  return driver_ != nullptr;
}

std::size_t EventLoop::drain(std::size_t max) {
  std::unique_lock lock(mu_);
  if (draining_) return 0;  // the draining thread will run our tasks
  draining_ = true;
  std::size_t ran = 0;
  while (ran < max && !queue_.empty()) {
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    {
      CurrentGuard guard(*this);
      task();
    }
    task = nullptr;  // release captures before re-locking
    lock.lock();
    ++stats_.executed;
    ++ran;
  }
  draining_ = false;
  return ran;
}

std::size_t EventLoop::fire_timers(Nanos now) {
  std::vector<HierWheel<Timer>::Due> due;
  {
    std::lock_guard lock(mu_);
    const std::size_t collected = wheel_.collect_due(now, due);
    // Re-arm periodic timers under their old id before any task runs, so
    // a task may cancel its own timer. One that fell behind fires once
    // per missed period, each copy interleaved by deadline below.
    for (std::size_t i = 0; i < collected; ++i) {
      const Nanos period = due[i].payload.period;
      if (period == 0) continue;
      const TimerId id = due[i].id;
      Nanos next = saturating_add(due[i].deadline, period);
      for (; next <= now; next = saturating_add(next, period)) {
        due.push_back({id, next, due[i].payload});
      }
      wheel_.rearm(id, next, due[i].payload);
    }
    if (due.size() > collected) std::sort(due.begin(), due.end());
    stats_.timers_fired += due.size();
  }
  if (due.empty()) return 0;
  CurrentGuard guard(*this);
  for (auto& timer : due) timer.payload.task();
  return due.size();
}

Nanos EventLoop::next_timer_deadline() const {
  std::lock_guard lock(mu_);
  return wheel_.next_deadline();
}

void EventLoop::deliver_fd_event(int fd, unsigned events) {
  FdCallback cb;
  {
    std::lock_guard lock(mu_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) return;  // unwatched since the poller saw it
    cb = it->second.callback;
    ++stats_.fd_events;
  }
  CurrentGuard guard(*this);
  cb(events);
}

}  // namespace h2::loop
