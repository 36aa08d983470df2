#include "loop/epoll_driver.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>

#include "util/log.hpp"

namespace h2::loop {

namespace {

const Logger& logger() {
  static Logger instance("loop/epoll");
  return instance;
}

std::uint32_t to_epoll(unsigned interest) {
  std::uint32_t events = 0;
  if ((interest & kFdRead) != 0) events |= EPOLLIN;
  if ((interest & kFdWrite) != 0) events |= EPOLLOUT;
  return events | EPOLLRDHUP;  // always learn about peer half-close
}

unsigned from_epoll(std::uint32_t events) {
  unsigned out = 0;
  if ((events & EPOLLIN) != 0) out |= kFdRead;
  if ((events & EPOLLOUT) != 0) out |= kFdWrite;
  if ((events & EPOLLERR) != 0) out |= kFdError;
  if ((events & (EPOLLHUP | EPOLLRDHUP)) != 0) out |= kFdHangup;
  return out;
}

}  // namespace

EpollDriver::EpollDriver(EventLoop& loop) : loop_(loop) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    logger().warn("epoll_create1 failed (errno " + std::to_string(errno) +
                  "); loop '" + loop_.name() + "' stays eager");
    return;
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    logger().warn("eventfd failed (errno " + std::to_string(errno) +
                  "); loop '" + loop_.name() + "' stays eager");
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  loop_.attach_driver(this);  // re-registers any already-watched fds
  thread_ = std::thread([this] { run(); });
}

EpollDriver::~EpollDriver() { stop(); }

void EpollDriver::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    wake();
    thread_.join();
  }
  if (epoll_fd_ >= 0) {
    loop_.detach_driver();
    loop_.drain();  // run anything posted after the final in-thread drain
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void EpollDriver::wake() {
  if (wake_fd_ < 0) return;
  wake_requests_.fetch_add(1, std::memory_order_relaxed);
  // Coalesce: while one eventfd write is in flight, further wakes skip
  // the syscall — the reactor drains the whole queue on that one wakeup.
  // The flag clears (in run()) after the eventfd is read and before the
  // drain; a post that enqueues after that drain started observes the
  // cleared flag (the task queue's mutex orders it) and writes afresh,
  // so no wakeup is ever lost.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  wake_writes_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t one = 1;
  // The eventfd counter is persistent: a write before epoll_wait still
  // wakes it, so there is no enqueue-vs-wait race to handle.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Status EpollDriver::fd_add(int fd, unsigned interest) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return err::internal("epoll_ctl(ADD fd " + std::to_string(fd) +
                         "): errno " + std::to_string(errno));
  }
  return {};
}

void EpollDriver::fd_remove(int fd) {
  // Failure (ENOENT/EBADF) is fine: the kernel auto-removes closed fds
  // from the interest list.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EpollDriver::run() {
  running_.store(true, std::memory_order_release);
  loop_.drain();  // work posted between construction and thread start
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    Nanos next = loop_.next_timer_deadline();
    if (next != kNoDeadline) {
      Nanos gap = next - wall_.now();
      if (gap < 0) gap = 0;
      // Round up so a timer never wakes a hair early and spins.
      timeout_ms = static_cast<int>(
          std::min<Nanos>((gap + kMillisecond - 1) / kMillisecond, 60'000));
    }
    int ready = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      logger().warn("epoll_wait on loop '" + loop_.name() + "': errno " +
                    std::to_string(errno));
      break;
    }
    for (int i = 0; i < ready; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        // Open the next coalescing window before draining, so a post
        // racing the drain below either lands in it or wakes us again.
        wake_pending_.store(false, std::memory_order_release);
        continue;
      }
      loop_.deliver_fd_event(fd, from_epoll(events[i].events));
    }
    loop_.fire_timers(wall_.now());
    std::size_t ran = loop_.drain();
    if (ran > 0) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      tasks_.fetch_add(ran, std::memory_order_relaxed);
      if (ran > max_batch_.load(std::memory_order_relaxed)) {
        max_batch_.store(ran, std::memory_order_relaxed);  // single writer
      }
      if (ran == 1) {
        batch_1_.fetch_add(1, std::memory_order_relaxed);
      } else if (ran < 8) {
        batch_2_7_.fetch_add(1, std::memory_order_relaxed);
      } else if (ran < 64) {
        batch_8_63_.fetch_add(1, std::memory_order_relaxed);
      } else {
        batch_64_plus_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  loop_.drain();  // release run_sync() waiters posted before the stop
  running_.store(false, std::memory_order_release);
}

EpollDriver::WakeStats EpollDriver::wake_stats() const {
  WakeStats out;
  out.wake_requests = wake_requests_.load(std::memory_order_relaxed);
  out.wake_writes = wake_writes_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.tasks = tasks_.load(std::memory_order_relaxed);
  out.max_batch = max_batch_.load(std::memory_order_relaxed);
  out.batch_1 = batch_1_.load(std::memory_order_relaxed);
  out.batch_2_7 = batch_2_7_.load(std::memory_order_relaxed);
  out.batch_8_63 = batch_8_63_.load(std::memory_order_relaxed);
  out.batch_64_plus = batch_64_plus_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace h2::loop
