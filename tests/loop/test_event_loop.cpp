// EventLoop semantics tests, both modes:
//  - eager (no driver): dispatch runs inline, post drains before
//    returning, stats account every task — the compatibility contract
//    that keeps pre-loop call sites and sim traces unchanged.
//  - queued (SimDriver): dispatch defers, run_ready() reaches
//    quiescence across loops in registration order, advance() stops at
//    every timer deadline, periodic timers re-arm — the determinism
//    contract the scenario sweeps rely on.
//  - the loop's timer wheel (suite TimerWheel): (deadline, id) order,
//    periodic re-arm under one id, catch-up, cancel and clock leaps.
#include "loop/event_loop.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "loop/sim_driver.hpp"
#include "util/clock.hpp"

namespace h2::loop {
namespace {

TEST(EventLoopEager, DispatchRunsInline) {
  EventLoop loop("t");
  int ran = 0;
  loop.dispatch([&ran, &loop] {
    ++ran;
    EXPECT_TRUE(loop.is_current());
  });
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(loop.is_current());

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(stats.posted, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(EventLoopEager, PostDrainsBeforeReturning) {
  EventLoop loop("t");
  std::vector<int> order;
  loop.post([&] {
    order.push_back(1);
    // Posted from inside a task: must run after the current task, in
    // FIFO order, still within the outer post() drain.
    loop.post([&] { order.push_back(3); });
    order.push_back(2);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.posted, 2u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(EventLoopEager, NestedDispatchStaysInline) {
  EventLoop loop("t");
  int depth = 0;
  loop.dispatch([&] {
    loop.dispatch([&] { depth = 2; });
    EXPECT_EQ(depth, 2);  // inner dispatch completed before outer returned
  });
  EXPECT_EQ(loop.stats().inline_runs, 2u);
}

TEST(EventLoopEager, RunSyncRunsInline) {
  EventLoop loop("t");
  int ran = 0;
  loop.run_sync([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(EventLoopEager, TimersFireViaFireTimers) {
  EventLoop loop("t");
  std::vector<int> order;
  // Eager mode's time base is the wall clock, so deadlines are absolute
  // wall times — fire relative to loop.now().
  (void)loop.schedule(5 * kMillisecond, [&] { order.push_back(2); });
  (void)loop.schedule(kMillisecond, [&] { order.push_back(1); });
  TimerId never = loop.schedule(2 * kMillisecond, [&] { order.push_back(99); });
  EXPECT_TRUE(loop.cancel_timer(never));

  EXPECT_NE(loop.next_timer_deadline(), kNoDeadline);
  std::size_t fired = loop.fire_timers(loop.now() + 10 * kMillisecond);
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.timers_scheduled, 3u);
  EXPECT_EQ(stats.timers_fired, 2u);
  EXPECT_EQ(stats.timers_cancelled, 1u);
}

// TimerWheel: the loop's timers — HierWheel<Timer> plus the periodic
// re-arm fire_timers() does — driven through schedule*/fire_timers.
// Eager mode runs on the wall clock, so those tests read each armed
// deadline back with next_timer_deadline() and fire at exact offsets
// from it; the rest pin the clock with a SimDriver and call
// fire_timers() directly, so a collection can lag many periods.

struct VirtualLoop {
  VirtualClock clock;  // stays at 0: every delay is an exact deadline
  EventLoop loop{"t"};
  SimDriver driver{clock};
  VirtualLoop() { driver.add_loop(loop); }
};

TEST(TimerWheel, FiresInDeadlineThenIdOrder) {
  VirtualLoop v;
  std::vector<int> order;
  // Armed out of deadline order on purpose; same-deadline ties break by id.
  TimerId late = v.loop.schedule(5 * kMillisecond, [&order] { order.push_back(3); });
  TimerId early = v.loop.schedule(kMillisecond, [&order] { order.push_back(1); });
  TimerId tied = v.loop.schedule(5 * kMillisecond, [&order] { order.push_back(4); });
  ASSERT_LT(late, tied);
  ASSERT_LT(early, tied);
  EXPECT_EQ(v.loop.fire_timers(10 * kMillisecond), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(v.loop.next_timer_deadline(), kNoDeadline);
}

TEST(TimerWheel, NothingFiresBeforeItsDeadline) {
  VirtualLoop v;
  (void)v.loop.schedule(10 * kMillisecond, [] {});
  EXPECT_EQ(v.loop.fire_timers(9 * kMillisecond), 0u);
  EXPECT_EQ(v.loop.fire_timers(10 * kMillisecond), 1u);
}

TEST(TimerWheel, NonPositiveDelayFiresAtNextCollection) {
  EventLoop loop("t");
  int fires = 0;
  (void)loop.schedule(0, [&fires] { ++fires; });
  (void)loop.schedule(-3, [&fires] { ++fires; });
  EXPECT_EQ(loop.fire_timers(loop.now()), 2u);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
}

TEST(TimerWheel, NextDeadlineTracksArmedTimers) {
  VirtualLoop v;
  EXPECT_EQ(v.loop.next_timer_deadline(), kNoDeadline);
  TimerId a = v.loop.schedule(7 * kMillisecond, [] {});
  (void)v.loop.schedule(3 * kMillisecond, [] {});
  EXPECT_EQ(v.loop.next_timer_deadline(), 3 * kMillisecond);
  EXPECT_EQ(v.loop.fire_timers(3 * kMillisecond), 1u);
  EXPECT_EQ(v.loop.next_timer_deadline(), 7 * kMillisecond);
  EXPECT_TRUE(v.loop.cancel_timer(a));
  EXPECT_EQ(v.loop.next_timer_deadline(), kNoDeadline);
}

TEST(TimerWheel, CancelledTimerNeverFires) {
  VirtualLoop v;
  TimerId id = v.loop.schedule(kMillisecond, [] {});
  EXPECT_TRUE(v.loop.cancel_timer(id));
  EXPECT_FALSE(v.loop.cancel_timer(id));  // second cancel: already gone
  EXPECT_EQ(v.loop.fire_timers(10 * kMillisecond), 0u);
  EXPECT_EQ(v.loop.stats().timers_cancelled, 1u);
}

TEST(TimerWheel, PeriodicRearmsAtEachPeriod) {
  EventLoop loop("t");
  int fires = 0;
  TimerId id = loop.schedule_periodic(2 * kMillisecond, [&fires] { ++fires; });
  const Nanos first = loop.next_timer_deadline();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(loop.fire_timers(first + round * 2 * kMillisecond), 1u) << round;
    EXPECT_EQ(loop.next_timer_deadline(), first + (round + 1) * 2 * kMillisecond);
  }
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(loop.cancel_timer(id));  // same id, still armed
  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.timers_scheduled, 1u);  // a re-arm is not a new schedule
  EXPECT_EQ(stats.timers_fired, 3u);
  EXPECT_EQ(stats.timers_cancelled, 1u);
}

TEST(TimerWheel, PeriodicCatchUpFiresOncePerMissedPeriod) {
  EventLoop loop("t");
  std::vector<char> order;
  // Arm the one-shot first so its exact deadline can be read back too.
  (void)loop.schedule(2500 * kMicrosecond, [&order] { order.push_back('o'); });
  const Nanos oneshot = loop.next_timer_deadline();
  (void)loop.schedule_periodic(kMillisecond, [&order] { order.push_back('p'); });
  const Nanos first = loop.next_timer_deadline();

  // Collect far past both deadlines: one firing per missed period, with
  // the one-shot interleaved by deadline (it wins a tie on its lower id).
  const Nanos now = oneshot + 2500 * kMicrosecond;
  std::vector<char> expected;
  Nanos next = first;
  for (; next <= now; next += kMillisecond) expected.push_back('p');
  std::size_t before = 0;
  for (Nanos t = first; t < oneshot; t += kMillisecond) ++before;
  expected.insert(expected.begin() + static_cast<std::ptrdiff_t>(before), 'o');
  EXPECT_EQ(loop.fire_timers(now), expected.size());
  EXPECT_EQ(order, expected);
  EXPECT_EQ(loop.next_timer_deadline(), next);  // still armed, in the future

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.timers_scheduled, 2u);
  EXPECT_EQ(stats.timers_fired, expected.size());  // every catch-up counts
}

TEST(TimerWheel, PeriodicCancelAfterFirstFire) {
  EventLoop loop("t");
  int fires = 0;
  TimerId id = loop.schedule_periodic(kMillisecond, [&fires] { ++fires; });
  const Nanos first = loop.next_timer_deadline();
  EXPECT_EQ(loop.fire_timers(first), 1u);
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));
  EXPECT_EQ(loop.fire_timers(first + 10 * kMillisecond), 0u);
  EXPECT_EQ(fires, 1);

  // A periodic task may also cancel its own timer: the re-arm happened
  // before it ran, so the cancel finds the id and nothing fires again.
  TimerId self = 0;
  bool cancelled = false;
  self = loop.schedule_periodic(kMillisecond, [&] {
    ++fires;
    cancelled = loop.cancel_timer(self);
  });
  const Nanos second = loop.next_timer_deadline();
  EXPECT_EQ(loop.fire_timers(second), 1u);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(loop.stats().timers_cancelled, 2u);
}

TEST(TimerWheel, ClockLeapBeyondOneRotationStillFiresEverything) {
  // A year-long leap passes every level's rotation: the wheel falls back
  // to full sweeps and still fires every armed timer, in deadline order.
  VirtualLoop v;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) {
    (void)v.loop.schedule((i + 1) * 3 * kMillisecond, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(v.loop.fire_timers(365LL * 24 * 3600 * kSecond), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerWheel, ManyTimersAcrossManyCollections) {
  VirtualLoop v;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    (void)v.loop.schedule((i % 997 + 1) * kMillisecond, [&fired] { ++fired; });
  }
  for (Nanos now = 0; v.loop.next_timer_deadline() != kNoDeadline;) {
    now += 7 * kMillisecond;
    (void)v.loop.fire_timers(now);
  }
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(v.loop.stats().timers_fired, 500u);
}

TEST(EventLoopEager, DeliverFdEventRoutesToCallback) {
  EventLoop loop("t");
  unsigned seen = 0;
  ASSERT_TRUE(loop.watch_fd(42, kFdRead, [&seen](unsigned ev) { seen |= ev; }).ok());
  loop.deliver_fd_event(42, kFdRead);
  loop.deliver_fd_event(42, kFdError);  // error class always delivered
  loop.deliver_fd_event(7, kFdRead);    // unwatched fd: ignored
  EXPECT_EQ(seen, kFdRead | kFdError);
  EXPECT_EQ(loop.stats().fd_events, 2u);
  EXPECT_EQ(loop.stats().fds_watched, 1u);
  ASSERT_TRUE(loop.unwatch_fd(42).ok());
  EXPECT_EQ(loop.stats().fds_watched, 0u);
}

TEST(EventLoopQueued, DispatchDefersUntilPumped) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  ASSERT_TRUE(loop.has_driver());

  int ran = 0;
  loop.dispatch([&ran] { ++ran; });
  loop.post([&ran] { ++ran; });
  EXPECT_EQ(ran, 0);  // queued mode: nothing runs until the driver pumps
  EXPECT_EQ(loop.stats().pending, 2u);

  EXPECT_EQ(driver.run_ready(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.stats().pending, 0u);
  EXPECT_EQ(loop.stats().posted, loop.stats().executed);
}

TEST(EventLoopQueued, RunReadyReachesQuiescenceAcrossLoops) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop a("a");
  EventLoop b("b");
  driver.add_loop(a);
  driver.add_loop(b);
  EXPECT_EQ(driver.loop_count(), 2u);

  // a's task posts to b, whose task posts back to a: run_ready must
  // iterate until the whole cross-loop chain is quiescent.
  std::vector<std::string> order;
  a.dispatch([&] {
    order.push_back("a1");
    b.dispatch([&] {
      order.push_back("b1");
      a.dispatch([&] { order.push_back("a2"); });
    });
  });
  (void)driver.run_ready();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(EventLoopQueued, DeterministicServiceOrderIsRegistrationOrder) {
  auto run_once = [] {
    VirtualClock clock;
    SimDriver driver(clock);
    EventLoop a("a");
    EventLoop b("b");
    driver.add_loop(a);
    driver.add_loop(b);
    std::vector<std::string> order;
    b.dispatch([&order] { order.push_back("b"); });
    a.dispatch([&order] { order.push_back("a"); });
    (void)driver.run_ready();
    return order;
  };
  auto first = run_once();
  // a is serviced first regardless of enqueue order, and the schedule
  // replays identically.
  EXPECT_EQ(first, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(first, run_once());
}

TEST(EventLoopQueued, AdvanceStopsAtEveryDeadline) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  std::vector<Nanos> fire_times;
  (void)loop.schedule(3 * kMillisecond, [&] { fire_times.push_back(clock.now()); });
  (void)loop.schedule(7 * kMillisecond, [&] { fire_times.push_back(clock.now()); });
  EXPECT_EQ(driver.next_deadline(), 3 * kMillisecond);

  (void)driver.advance(10 * kMillisecond);
  // Each callback observed its own deadline, not the advance target:
  // the driver stopped the clock at every deadline along the way.
  EXPECT_EQ(fire_times, (std::vector<Nanos>{3 * kMillisecond, 7 * kMillisecond}));
  EXPECT_EQ(clock.now(), 10 * kMillisecond);
  EXPECT_EQ(driver.next_deadline(), kNoDeadline);
}

TEST(EventLoopQueued, PeriodicTimerFiresOncePerPeriod) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  int fires = 0;
  TimerId id = loop.schedule_periodic(2 * kMillisecond, [&fires] { ++fires; });
  (void)driver.advance(9 * kMillisecond);
  EXPECT_EQ(fires, 4);  // t=2,4,6,8
  EXPECT_TRUE(loop.cancel_timer(id));
  (void)driver.advance(9 * kMillisecond);
  EXPECT_EQ(fires, 4);
}

TEST(EventLoopQueued, TimerTaskChainsRunBeforeTimeMovesOn) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  Nanos posted_at = -1;
  (void)loop.schedule(2 * kMillisecond, [&] {
    // Work a timer posts must run at the deadline's virtual time.
    loop.dispatch([&] { posted_at = clock.now(); });
  });
  (void)driver.advance(10 * kMillisecond);
  EXPECT_EQ(posted_at, 2 * kMillisecond);
}

TEST(EventLoopQueued, DetachRevertsToEagerAndRunsSurvivors) {
  VirtualClock clock;
  EventLoop loop("t");
  int ran = 0;
  {
    SimDriver driver(clock);
    driver.add_loop(loop);
    loop.dispatch([&ran] { ++ran; });
    EXPECT_EQ(ran, 0);
  }  // driver destroyed: loop detaches, queued task survives
  EXPECT_FALSE(loop.has_driver());
  loop.post([&ran] { ++ran; });  // eager post drains the survivor too
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopQueued, FdWatchUnsupportedUnderSimDriver) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  Status status = loop.watch_fd(3, kFdRead, [](unsigned) {});
  EXPECT_FALSE(status.ok());
}

TEST(EventLoopQueued, NowFollowsVirtualClock) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  EXPECT_EQ(loop.now(), 0);
  clock.advance(5 * kMillisecond);
  EXPECT_EQ(loop.now(), 5 * kMillisecond);
}

}  // namespace
}  // namespace h2::loop
