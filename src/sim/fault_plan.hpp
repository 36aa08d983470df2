// Declarative fault plans. A FaultPlan is data, not behaviour: a message
// chaos profile (drop/duplicate/delay probabilities fed to the SimNetwork
// fault hook), a per-step random fault profile (partitions, heals,
// crashes, restarts, clock skew drawn from the harness PRNG), and a list
// of explicitly scheduled actions. SimHarness interprets the plan; the
// same plan + the same seed always produces the same fault schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "util/clock.hpp"

namespace h2::sim {

/// Message-level chaos applied by the SimNetwork fault hook. Probabilities
/// are per message; delayed one-way messages arrive up to `max_delay`
/// late, which is how reordering happens (a later send can overtake them).
struct MessageChaos {
  double drop_p = 0.0;
  double dup_p = 0.0;
  double delay_p = 0.0;
  /// Synchronous calls only: the handler runs but the reply is lost, so the
  /// caller sees kTimeout — the "maybe executed" case retries must handle.
  double drop_reply_p = 0.0;
  Nanos max_delay = 2 * kMillisecond;

  bool enabled() const {
    return drop_p > 0 || dup_p > 0 || delay_p > 0 || drop_reply_p > 0;
  }
};

/// Per-step random fault draws. Each schedule step, the harness rolls
/// these in a fixed order (partition, heal, crash, restart, skew), so a
/// profile is as reproducible as an explicit action list.
struct RandomFaults {
  double partition_p = 0.0;  ///< cut a random reachable pair
  double heal_p = 0.0;       ///< heal a random active partition
  double crash_p = 0.0;      ///< crash a random alive node (respects min_alive)
  double restart_p = 0.0;    ///< rejoin a random crashed node
  double skew_p = 0.0;       ///< jump the virtual clock forward
  Nanos max_skew = kSecond;
  std::size_t min_alive = 2;  ///< crashes never reduce the DVM below this
};

/// One explicitly scheduled fault, fired before schedule step `step`.
struct FaultAction {
  enum class Kind { kPartition, kHeal, kCrash, kRestart, kClockSkew };
  Kind kind = Kind::kPartition;
  std::size_t step = 0;
  std::size_t a = 0;  ///< node index (partition/heal: first endpoint; crash/restart: victim)
  std::size_t b = 0;  ///< partition/heal: second endpoint
  Nanos skew = 0;     ///< kClockSkew only
};

class FaultPlan {
 public:
  FaultPlan& chaos(MessageChaos profile) {
    chaos_ = profile;
    return *this;
  }
  FaultPlan& random(RandomFaults profile) {
    random_ = profile;
    return *this;
  }
  FaultPlan& partition_at(std::size_t step, std::size_t a, std::size_t b) {
    actions_.push_back({FaultAction::Kind::kPartition, step, a, b, 0});
    return *this;
  }
  FaultPlan& heal_at(std::size_t step, std::size_t a, std::size_t b) {
    actions_.push_back({FaultAction::Kind::kHeal, step, a, b, 0});
    return *this;
  }
  FaultPlan& crash_at(std::size_t step, std::size_t node) {
    actions_.push_back({FaultAction::Kind::kCrash, step, node, 0, 0});
    return *this;
  }
  FaultPlan& restart_at(std::size_t step, std::size_t node) {
    actions_.push_back({FaultAction::Kind::kRestart, step, node, 0, 0});
    return *this;
  }

  const MessageChaos& message_chaos() const { return chaos_; }
  const RandomFaults& random_faults() const { return random_; }
  const std::vector<FaultAction>& actions() const { return actions_; }

  /// Explicit actions scheduled for exactly `step`, in insertion order.
  std::vector<FaultAction> actions_at(std::size_t step) const {
    std::vector<FaultAction> out;
    for (const FaultAction& action : actions_) {
      if (action.step == step) out.push_back(action);
    }
    return out;
  }

 private:
  MessageChaos chaos_;
  RandomFaults random_;
  std::vector<FaultAction> actions_;
};

}  // namespace h2::sim
