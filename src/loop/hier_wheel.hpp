// Hierarchical (cascading) timing wheel — the one timer mechanism in
// the tree. EventLoop arms its one-shot and periodic timers here
// (payload: the task), and the registry arms one lease per publication
// (payload: a doc id). Level k has slots of width tick * slots^k — an
// entry lands in the coarsest level whose horizon covers it and
// *cascades* down one level at a time as its deadline approaches, so
// every entry is touched O(levels) times total and a collection costs
// O(elapsed ticks + cascaded + due), independent of how many timers are
// parked: 1M leases expire in O(expired) per tick.
//
// The payload is caller data, not a callback contract: collections move
// payloads out and the owner runs or resolves them under its own lock.
// Periodicity is the owner's business too — EventLoop re-arms a fired
// periodic timer under its old id with rearm().
//
// Determinism: collect_due() returns entries sorted by (deadline, id),
// so the sim harness replays byte-identical schedules. A clock leap past
// a level's whole rotation degrades to one full sweep of that level
// instead of walking every elapsed tick.
//
// Not thread-safe: the owner serializes access (EventLoop under its
// mutex, XmlRegistry under its write lock).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/clock.hpp"

namespace h2::loop {

using TimerId = std::uint64_t;

/// Sentinel returned by next_deadline() when no timer is armed.
constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

template <typename Payload>
class HierWheel {
 public:
  /// `tick` is the finest slot width; each of the `levels` wheels has
  /// `slots` slots and is `slots` times coarser than the one below. The
  /// defaults (1ms x 256 x 4 levels) cover ~50 days before the top level
  /// starts revisiting entries once per top-level rotation.
  explicit HierWheel(Nanos tick = kMillisecond, std::size_t slots = 256,
                     std::size_t levels = 4)
      : tick_(tick > 0 ? tick : kMillisecond) {
    levels_.resize(levels > 0 ? levels : 1);
    for (Level& level : levels_) {
      level.buckets.resize(slots > 0 ? slots : 256);
    }
    Nanos width = tick_;
    for (Level& level : levels_) {
      level.tick = width;
      // Saturate instead of overflowing: a saturated level's horizon is
      // "forever", which only makes placement coarser, never wrong.
      if (width > std::numeric_limits<Nanos>::max() /
                      static_cast<Nanos>(slot_count())) {
        width = std::numeric_limits<Nanos>::max();
      } else {
        width *= static_cast<Nanos>(slot_count());
      }
    }
  }

  /// Arms an entry `delay` from `now` (delay <= 0 is due at the next
  /// collection). Returns an id for cancel().
  TimerId add(Nanos now, Nanos delay, Payload payload) {
    start(now);
    TimerId id = next_id_++;
    arm(id, saturating_add(now, std::max<Nanos>(delay, 0)), std::move(payload));
    return id;
  }

  /// Re-arms an id that a collection just returned, at absolute
  /// `deadline`, so a periodic owner keeps one id for the timer's life.
  void rearm(TimerId id, Nanos deadline, Payload payload) {
    arm(id, deadline, std::move(payload));
  }

  /// Disarms; false if unknown or already collected. The slot keeps a
  /// stale id that collections drop lazily, so cancel is O(log n).
  bool cancel(TimerId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    deadlines_.erase(deadlines_.find(it->second.deadline));
    entries_.erase(it);
    return true;
  }

  struct Due {
    TimerId id;
    Nanos deadline;
    Payload payload;

    /// Firing order: (deadline, id).
    friend bool operator<(const Due& a, const Due& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline : a.id < b.id;
    }
  };

  /// Moves every entry with deadline <= now into `out`, sorted by
  /// (deadline, id). Work is proportional to elapsed ticks + entries
  /// cascaded + entries due — far-future entries are never visited.
  std::size_t collect_due(Nanos now, std::vector<Due>& out) {
    if (!started_) {
      start(now);
      return 0;
    }
    // Advance every cursor first, then visit coarse levels before fine
    // ones: a cascade from level k places against fully-advanced finer
    // cursors, so it always lands in a bucket the finer level has not
    // passed — and that finer bucket is visited later in this same call,
    // refining it further if its slot has already arrived.
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      levels_[k].from = levels_[k].cursor;
      levels_[k].cursor = std::max(levels_[k].cursor, tick_of(k, now));
    }
    // An empty wheel (the reactor's usual case) only moves its cursors.
    if (entries_.empty()) return 0;
    std::size_t before = out.size();
    for (std::size_t k = levels_.size(); k-- > 0;) {
      visit_level(k, now, out);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end());
    return out.size() - before;
  }

  /// Earliest armed deadline, or kNoDeadline.
  Nanos next_deadline() const {
    return deadlines_.empty() ? kNoDeadline : *deadlines_.begin();
  }

  std::size_t size() const { return entries_.size(); }
  /// Entries moved between levels so far (observability: each entry
  /// cascades at most levels-1 times over its lifetime).
  std::uint64_t cascades() const { return cascades_; }

 private:
  struct Entry {
    Nanos deadline;
    Payload payload;
  };

  struct Level {
    Nanos tick = 0;                              ///< slot width at this level
    std::vector<std::vector<TimerId>> buckets;
    std::uint64_t cursor = 0;  ///< first tick index not yet fully collected
    std::uint64_t from = 0;    ///< cursor before the running collection
  };

  std::size_t slot_count() const { return levels_[0].buckets.size(); }

  std::uint64_t tick_of(std::size_t level, Nanos t) const {
    return static_cast<std::uint64_t>(t) /
           static_cast<std::uint64_t>(levels_[level].tick);
  }

  void start(Nanos now) {
    if (started_) return;
    started_ = true;
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      levels_[k].cursor = tick_of(k, now);
    }
  }

  void arm(TimerId id, Nanos deadline, Payload payload) {
    // A caller's stale `now` must never land an entry in a tick the
    // cursor has already passed (no visit would ever match it); clamp
    // it forward to the start of the cursor's tick.
    deadline = std::max(deadline, static_cast<Nanos>(levels_[0].cursor) * tick_);
    entries_.emplace(id, Entry{deadline, std::move(payload)});
    deadlines_.insert(deadline);
    place(id, deadline);
  }

  /// Hangs `id` in the finest level whose horizon (measured from that
  /// level's cursor) covers the deadline. Deadlines are never behind a
  /// cursor: arm() clamps them, and cascades only move entries whose
  /// deadline is still ahead of the collection's `now`.
  void place(TimerId id, Nanos deadline) {
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      Level& level = levels_[k];
      std::uint64_t tick = tick_of(k, deadline);
      if (tick - level.cursor < slot_count() || k + 1 == levels_.size()) {
        level.buckets[tick % slot_count()].push_back(id);
        return;
      }
    }
  }

  /// Visits one bucket of one level: due entries move to `out`, entries
  /// whose level tick arrived but whose deadline has not cascade to a
  /// finer level, future-rotation entries stay.
  void visit_bucket(std::size_t k, std::size_t slot, std::uint64_t tick,
                    bool full_sweep, Nanos now, std::vector<Due>& out) {
    auto& bucket = levels_[k].buckets[slot];
    std::size_t keep = 0;
    // Indexed loop: place() from a cascade may push into this very
    // bucket at level 0; such entries have future deadlines and are kept.
    for (std::size_t r = 0; r < bucket.size(); ++r) {
      TimerId id = bucket[r];
      auto it = entries_.find(id);
      if (it == entries_.end()) continue;  // cancelled: drop the stale id
      Entry& entry = it->second;
      std::uint64_t entry_tick = tick_of(k, entry.deadline);
      if (entry.deadline <= now && (full_sweep || entry_tick == tick)) {
        deadlines_.erase(deadlines_.find(entry.deadline));
        out.push_back({id, entry.deadline, std::move(entry.payload)});
        entries_.erase(it);
        continue;
      }
      bool arrived = full_sweep ? entry_tick <= tick_of(k, now)
                                : entry_tick == tick;
      if (k > 0 && arrived) {
        // Deadline is inside the elapsed coarse slot but still in the
        // future: refine into a lower level.
        ++cascades_;
        place(id, entry.deadline);
        continue;
      }
      bucket[keep++] = id;  // future rotation of this slot
    }
    bucket.resize(keep);
  }

  void visit_level(std::size_t k, Nanos now, std::vector<Due>& out) {
    const std::uint64_t from = levels_[k].from;
    std::uint64_t now_tick = tick_of(k, now);
    if (now_tick < from) return;
    const std::size_t n = slot_count();
    if (now_tick - from >= n) {
      // Leap past a whole rotation: one full sweep instead of per-tick.
      for (std::size_t s = 0; s < n; ++s) {
        visit_bucket(k, s, 0, /*full_sweep=*/true, now, out);
      }
      return;
    }
    for (std::uint64_t tick = from; tick < now_tick; ++tick) {
      visit_bucket(k, tick % n, tick, false, now, out);
    }
    // The current tick is collected but not passed: a sub-tick deadline
    // later in this tick must still fire from a later collection.
    visit_bucket(k, now_tick % n, now_tick, false, now, out);
  }

  Nanos tick_;
  std::vector<Level> levels_;
  std::map<TimerId, Entry> entries_;
  std::multiset<Nanos> deadlines_;  ///< mirror for next_deadline()
  TimerId next_id_ = 1;
  std::uint64_t cascades_ = 0;
  bool started_ = false;
};

}  // namespace h2::loop
