// SimDriver — drives any number of EventLoops deterministically from
// one VirtualClock, all on the calling thread. The sim harness owns
// one and registers every kernel/container/DVM loop; stepping is:
//
//   run_ready()   - drain queues + fire due timers across all loops,
//                   in registration order, until quiescent
//   advance(d)    - step the clock forward by d, stopping at every
//                   timer deadline on the way and running it (plus any
//                   work it posts) before moving on
//
// Determinism: loops are always serviced in registration order, each
// queue is FIFO, and the timer wheel fires in (deadline, id) order —
// so a (scenario, seed) pair replays the identical schedule.
#pragma once

#include <algorithm>
#include <vector>

#include "loop/event_loop.hpp"
#include "util/clock.hpp"

namespace h2::loop {

class SimDriver final : public Driver {
 public:
  explicit SimDriver(VirtualClock& clock) : clock_(clock) {}
  ~SimDriver() override {
    for (auto* loop : loops_) loop->detach_driver();
  }

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  /// Registers `loop` and switches it to queued mode under this driver.
  /// Registration order is the service order — keep it fixed per seed.
  void add_loop(EventLoop& loop) {
    loops_.push_back(&loop);
    loop.attach_driver(this);
  }

  /// Runs every loop to quiescence at the current virtual time.
  /// Returns the number of tasks + timers run.
  std::size_t run_ready() {
    std::size_t total = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto* loop : loops_) {
        std::size_t ran = loop->drain();
        ran += loop->fire_timers(clock_.now());
        if (ran > 0) {
          progressed = true;
          total += ran;
        }
      }
    }
    return total;
  }

  /// Advances virtual time by `delta`, executing every timer deadline
  /// (and the work it triggers) in order along the way.
  std::size_t advance(Nanos delta) {
    const Nanos target = saturating_add(clock_.now(), std::max<Nanos>(delta, 0));
    std::size_t total = run_ready();
    for (;;) {
      Nanos next = next_deadline();
      if (next == kNoDeadline || next > target) break;
      clock_.advance_to(next);
      total += run_ready();
    }
    clock_.advance_to(target);
    total += run_ready();
    return total;
  }

  /// Earliest timer deadline across all registered loops.
  Nanos next_deadline() const {
    Nanos next = kNoDeadline;
    for (const auto* loop : loops_) {
      next = std::min(next, loop->next_timer_deadline());
    }
    return next;
  }

  std::size_t loop_count() const { return loops_.size(); }

  // --- Driver ---
  void wake() override {}  // single-threaded: the harness pumps explicitly
  Nanos now() const override { return clock_.now(); }
  bool threaded() const override { return false; }
  Status fd_add(int, unsigned) override {
    return err::unsupported("SimDriver has no fd poller (sim I/O is virtual)");
  }
  void fd_remove(int) override {}

 private:
  VirtualClock& clock_;
  std::vector<EventLoop*> loops_;
};

}  // namespace h2::loop
