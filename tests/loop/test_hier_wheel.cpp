// HierWheel unit tests: (deadline, id) firing order across levels,
// cascading from coarse to fine levels, lazy cancel, clock-leap full
// sweeps, and the O(touched) accounting that makes it the registry's
// lease wheel.
#include "loop/hier_wheel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace h2::loop {
namespace {

using Wheel = HierWheel<std::uint64_t>;

std::vector<Wheel::Due> collect(Wheel& wheel, Nanos now) {
  std::vector<Wheel::Due> due;
  wheel.collect_due(now, due);
  return due;
}

TEST(HierWheel, FiresInDeadlineThenIdOrder) {
  Wheel wheel;
  TimerId late = wheel.add(0, 5 * kMillisecond, 3);
  TimerId early = wheel.add(0, kMillisecond, 1);
  TimerId tied = wheel.add(0, 5 * kMillisecond, 4);
  ASSERT_LT(late, tied);

  auto due = collect(wheel, 10 * kMillisecond);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].id, early);
  EXPECT_EQ(due[1].id, late);
  EXPECT_EQ(due[2].id, tied);
  EXPECT_EQ(due[0].payload, 1u);
  EXPECT_EQ(due[1].payload, 3u);
  EXPECT_EQ(due[2].payload, 4u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(HierWheel, NothingFiresBeforeItsDeadline) {
  Wheel wheel;
  (void)wheel.add(0, 10 * kMillisecond, 1);
  EXPECT_TRUE(collect(wheel, 9 * kMillisecond).empty());
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_EQ(collect(wheel, 10 * kMillisecond).size(), 1u);
}

TEST(HierWheel, SubTickDeadlinesFireOnTime) {
  Wheel wheel;  // 1ms ticks; deadlines inside the current tick still honor `now`
  (void)wheel.add(0, 100, 1);  // 100ns
  EXPECT_TRUE(collect(wheel, 50).empty());
  auto due = collect(wheel, 200);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].deadline, 100);
}

TEST(HierWheel, LongDelaysCascadeThroughLevels) {
  // 256 slots of 1ms: anything beyond ~256ms lives above level 0 and must
  // cascade down as its deadline approaches.
  Wheel wheel(kMillisecond, 256, 4);
  Nanos delay = 3 * kSecond + 7 * kMillisecond;
  TimerId id = wheel.add(0, delay, 42);

  // Stepping up to just before the deadline fires nothing...
  Nanos step = 100 * kMillisecond;
  for (Nanos now = step; now < delay; now += step) {
    ASSERT_TRUE(collect(wheel, now).empty()) << "fired early at " << now;
  }
  // ...and the entry moved levels at least once on the way down.
  EXPECT_GE(wheel.cascades(), 1u);
  auto due = collect(wheel, delay);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, id);
  EXPECT_EQ(due[0].payload, 42u);
  EXPECT_EQ(due[0].deadline, delay);
}

TEST(HierWheel, ManyMixedHorizonsAllFireExactlyOnce) {
  Wheel wheel(kMillisecond, 16, 3);  // small wheel: forces heavy cascading
  std::vector<Nanos> deadlines;
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Spread from sub-tick to far beyond the top level's horizon.
    Nanos delay = static_cast<Nanos>((i * 7919) % 50'000) * kMillisecond / 10 + 1;
    deadlines.push_back(delay);
    (void)wheel.add(0, delay, i);
  }
  std::vector<bool> fired(500, false);
  for (Nanos now = 0; now <= 5'000 * kMillisecond; now += 3 * kMillisecond) {
    for (const auto& d : collect(wheel, now)) {
      EXPECT_FALSE(fired[d.payload]) << "double fire of " << d.payload;
      EXPECT_LE(d.deadline, now);
      EXPECT_EQ(d.deadline, deadlines[d.payload]);
      fired[d.payload] = true;
    }
  }
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_TRUE(fired[i]) << "entry " << i << " never fired";
  }
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(HierWheel, StaleNowClampsToTheCursorTick) {
  // An add whose `now` lags the last collection must not strand its
  // entry in a tick the cursor already passed: it fires at the next
  // collection, with its deadline clamped to the cursor tick's start.
  Wheel wheel;
  (void)collect(wheel, 10 * kMillisecond);
  (void)wheel.add(10 * kMillisecond, 100 * kMillisecond, 1);
  (void)collect(wheel, 20 * kMillisecond);
  (void)wheel.add(5 * kMillisecond, 0, 2);
  EXPECT_EQ(wheel.next_deadline(), 20 * kMillisecond);
  std::vector<Wheel::Due> fired;
  for (Nanos now = 21 * kMillisecond; now <= 200 * kMillisecond; now += kMillisecond) {
    for (auto& d : collect(wheel, now)) fired.push_back(d);
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].payload, 2u);
  EXPECT_EQ(fired[0].deadline, 20 * kMillisecond);
  EXPECT_EQ(fired[1].payload, 1u);
  EXPECT_EQ(fired[1].deadline, 110 * kMillisecond);
}

TEST(HierWheel, RearmKeepsTheId) {
  Wheel wheel;
  TimerId id = wheel.add(0, 2 * kMillisecond, 7);
  auto due = collect(wheel, 2 * kMillisecond);
  ASSERT_EQ(due.size(), 1u);
  wheel.rearm(id, 4 * kMillisecond, due[0].payload);
  EXPECT_EQ(wheel.next_deadline(), 4 * kMillisecond);
  due = collect(wheel, 4 * kMillisecond);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, id);
  wheel.rearm(id, 6 * kMillisecond, due[0].payload);
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_TRUE(collect(wheel, kSecond).empty());
}

TEST(HierWheel, CancelPreventsFiring) {
  Wheel wheel;
  TimerId a = wheel.add(0, kMillisecond, 1);
  TimerId b = wheel.add(0, 2 * kMillisecond, 2);
  EXPECT_TRUE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(a));  // already gone
  auto due = collect(wheel, kSecond);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, b);
  EXPECT_FALSE(wheel.cancel(b));  // collected, not cancellable
}

TEST(HierWheel, ClockLeapPastWholeRotationsStillFiresEverything) {
  Wheel wheel(kMillisecond, 8, 2);  // tiny: horizon 64ms
  TimerId near = wheel.add(0, 2 * kMillisecond, 1);
  TimerId far = wheel.add(0, 40 * kMillisecond, 2);
  (void)near;
  (void)far;
  // Leap years past every horizon: the full-sweep fallback must yield
  // both, still ordered by deadline.
  auto due = collect(wheel, 365 * 24 * 3600 * kSecond);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].payload, 1u);
  EXPECT_EQ(due[1].payload, 2u);
}

TEST(HierWheel, NextDeadlineTracksAddAndCancel) {
  Wheel wheel;
  EXPECT_EQ(wheel.next_deadline(), kNoDeadline);
  TimerId a = wheel.add(0, 5 * kMillisecond, 1);
  (void)wheel.add(0, 9 * kMillisecond, 2);
  EXPECT_EQ(wheel.next_deadline(), 5 * kMillisecond);
  EXPECT_TRUE(wheel.cancel(a));
  EXPECT_EQ(wheel.next_deadline(), 9 * kMillisecond);
  (void)collect(wheel, kSecond);
  EXPECT_EQ(wheel.next_deadline(), kNoDeadline);
}

TEST(HierWheel, CollectionTouchesOnlyDueEntries) {
  // The O(expired)-per-tick property the registry leans on: park many
  // far-future leases, expire a few near ones, and verify the far ones
  // were never moved (no cascades happen for untouched top-level slots).
  Wheel wheel(kMillisecond, 256, 4);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    (void)wheel.add(0, 40 * 86'400 * kSecond + static_cast<Nanos>(i) * kSecond, i);
  }
  std::uint64_t near_base = 20'000;
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)wheel.add(0, (2 + static_cast<Nanos>(i)) * kMillisecond, near_base + i);
  }
  auto due = collect(wheel, 20 * kMillisecond);
  ASSERT_EQ(due.size(), 10u);
  for (const auto& d : due) EXPECT_GE(d.payload, near_base);
  EXPECT_EQ(wheel.size(), 10'000u);
  EXPECT_EQ(wheel.cascades(), 0u);  // far entries untouched
}

}  // namespace
}  // namespace h2::loop
