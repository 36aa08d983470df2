// Time sources. SimNetwork and the DVM coherency benchmarks run on a
// VirtualClock so that latency/bandwidth effects are deterministic and
// reproducible on a single core; CPU-bound measurements use WallClock.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

namespace h2 {

/// Nanoseconds since an arbitrary epoch. All harness2 time is carried as
/// this integral type so virtual and wall time interoperate.
using Nanos = std::int64_t;

constexpr Nanos kMicrosecond = 1'000;
constexpr Nanos kMillisecond = 1'000'000;
constexpr Nanos kSecond = 1'000'000'000;

/// Abstract time source.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Nanos now() const = 0;
};

/// Real monotonic time.
class WallClock final : public Clock {
 public:
  Nanos now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// a + b, saturating at the representable maximum instead of wrapping
/// into the past (b <= 0 is added as is).
constexpr Nanos saturating_add(Nanos a, Nanos b) {
  return b > 0 && a > std::numeric_limits<Nanos>::max() - b
             ? std::numeric_limits<Nanos>::max()
             : a + b;
}

/// Manually advanced time, owned by the simulation driver. Never moves
/// backwards: advance() with a negative delta is ignored. Additions that
/// would overflow saturate at the representable maximum instead of
/// wrapping into the past.
class VirtualClock final : public Clock {
 public:
  Nanos now() const override { return now_; }
  void advance(Nanos delta) {
    if (delta > 0) now_ = saturating_add(now_, delta);
  }
  /// Jumps directly to `t` if it is in the future.
  void advance_to(Nanos t) {
    if (t > now_) now_ = t;
  }

 private:
  Nanos now_ = 0;
};

}  // namespace h2
