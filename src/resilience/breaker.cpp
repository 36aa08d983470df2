#include "resilience/breaker.hpp"

#include "transport/simnet.hpp"

namespace h2::resil {

CircuitBreaker::CircuitBreaker(BreakerConfig config, obs::Gauge* state_gauge,
                               obs::Counter* open_transitions)
    : config_(config),
      state_gauge_(state_gauge),
      open_transitions_(open_transitions),
      outcomes_(config_.window == 0 ? 1 : config_.window, false) {
  if (state_gauge_ != nullptr) state_gauge_->set(static_cast<std::int64_t>(State::kClosed));
}

bool CircuitBreaker::allow(Nanos now) {
  std::lock_guard lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - opened_at_ >= config_.cooldown) {
        transition_locked(State::kHalfOpen);
        probe_outstanding_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      // Exactly one probe in flight; everyone else keeps failing fast.
      if (!probe_outstanding_) {
        probe_outstanding_ = true;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::record(bool success, Nanos now) {
  std::lock_guard lock(mu_);
  if (state_ == State::kHalfOpen) {
    probe_outstanding_ = false;
    if (success) {
      // Probe succeeded: fresh start, forget the failure window.
      transition_locked(State::kClosed);
      next_slot_ = 0;
      filled_ = 0;
    } else {
      opened_at_ = now;
      transition_locked(State::kOpen);
      if (open_transitions_ != nullptr) open_transitions_->add();
    }
    return;
  }
  outcomes_[next_slot_] = success;
  next_slot_ = (next_slot_ + 1) % outcomes_.size();
  if (filled_ < outcomes_.size()) ++filled_;
  if (state_ == State::kClosed && filled_ >= config_.min_calls &&
      failure_rate_locked() >= config_.failure_threshold) {
    opened_at_ = now;
    transition_locked(State::kOpen);
    if (open_transitions_ != nullptr) open_transitions_->add();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard lock(mu_);
  return state_;
}

void CircuitBreaker::transition_locked(State next) {
  state_ = next;
  if (state_gauge_ != nullptr) state_gauge_->set(static_cast<std::int64_t>(next));
}

double CircuitBreaker::failure_rate_locked() const {
  if (filled_ == 0) return 0.0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < filled_; ++i) {
    if (!outcomes_[i]) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(filled_);
}

CircuitBreaker& BreakerRegistry::for_endpoint(std::string_view key) {
  std::lock_guard lock(mu_);
  auto it = breakers_.find(key);
  if (it != breakers_.end()) return *it->second;
  obs::Gauge* gauge = nullptr;
  obs::Counter* opens = nullptr;
  if (metrics_ != nullptr) {
    gauge = &metrics_->gauge("h2.resil." + std::string(key) + ".breaker_state");
    opens = &metrics_->counter("h2.resil." + std::string(key) + ".breaker_opens");
  }
  auto breaker = std::make_unique<CircuitBreaker>(BreakerConfig{}, gauge, opens);
  auto [pos, inserted] =
      breakers_.emplace(std::string(key), std::move(breaker));
  return *pos->second;
}

BreakerRegistry& BreakerRegistry::of(net::Transport& net) {
  if (!net.breaker_registry()) {
    net.set_breaker_registry(std::make_shared<BreakerRegistry>(&net.metrics()));
  }
  return *net.breaker_registry();
}

std::size_t BreakerRegistry::size() const {
  std::lock_guard lock(mu_);
  return breakers_.size();
}

}  // namespace h2::resil
