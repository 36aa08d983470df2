// CircuitBreaker — per-endpoint failure-rate tripwire. When calls to a
// host keep failing, every further attempt pays a full deadline's worth
// of retries before the caller learns the host is dead. The breaker
// short-circuits that: after the windowed failure rate crosses the
// threshold it *opens* and all calls fail fast (kUnavailable, definitely
// not executed) until a cooldown elapses. Then it goes *half-open* and
// admits exactly one probe; the probe's outcome closes it again or
// re-opens it for another cooldown.
//
//        record(fail) rate >= threshold
//   closed ────────────────────────────► open
//     ▲                                   │ cooldown elapsed
//     │ probe succeeds                    ▼
//     └───────────────────────────── half-open ──► open (probe fails)
//
// Breakers live in a BreakerRegistry owned per network world, so every
// channel talking to the same endpoint shares one breaker: one channel's
// discovery that a host is dead makes all of them fail fast.
//
// Thread safety: a breaker is a mutex around a tiny ring buffer, and the
// registry is a mutex around a node-stable map — both safe for the
// threaded container path and cheap enough for the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace h2::net {
class Transport;
}  // namespace h2::net

namespace h2::resil {

struct BreakerConfig {
  /// Sliding window of most-recent call outcomes considered for the rate.
  std::size_t window = 8;
  /// Minimum outcomes in the window before the breaker may trip.
  std::size_t min_calls = 4;
  /// Failure fraction (within the window) at or above which it opens.
  double failure_threshold = 0.5;
  /// How long an open breaker rejects before admitting a half-open probe.
  Nanos cooldown = 10 * kMillisecond;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(BreakerConfig config = {}, obs::Gauge* state_gauge = nullptr,
                          obs::Counter* open_transitions = nullptr);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// May a call proceed at virtual time `now`? An open breaker past its
  /// cooldown flips to half-open and admits this one call as the probe;
  /// while the probe is outstanding, further calls are rejected.
  bool allow(Nanos now);

  /// Reports the outcome of a call previously admitted by allow().
  void record(bool success, Nanos now);

  State state() const;
  const BreakerConfig& config() const { return config_; }

 private:
  void transition_locked(State next);
  double failure_rate_locked() const;

  BreakerConfig config_;
  obs::Gauge* state_gauge_;        ///< optional: h2.resil.<key>.breaker_state
  obs::Counter* open_transitions_;  ///< optional: counts closed/half-open -> open

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::vector<bool> outcomes_;  ///< ring buffer, true = success
  std::size_t next_slot_ = 0;
  std::size_t filled_ = 0;
  Nanos opened_at_ = 0;
  bool probe_outstanding_ = false;
};

/// One breaker per endpoint key (we key by target host name: all ports on
/// a dead host die together in this world), each with the default
/// BreakerConfig. Returned references are stable for the registry's
/// lifetime.
class BreakerRegistry {
 public:
  explicit BreakerRegistry(obs::MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  BreakerRegistry(const BreakerRegistry&) = delete;
  BreakerRegistry& operator=(const BreakerRegistry&) = delete;

  CircuitBreaker& for_endpoint(std::string_view key);

  /// The registry shared by everything on one network world, attached
  /// lazily to the Transport's opaque slot on first use. All channels in
  /// that world share breakers, so one channel learning a host is dead
  /// makes every channel to it fail fast.
  static BreakerRegistry& of(net::Transport& net);

  std::size_t size() const;

 private:
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>, std::less<>> breakers_;
};

}  // namespace h2::resil
