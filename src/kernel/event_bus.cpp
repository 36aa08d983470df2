#include "kernel/event_bus.hpp"

#include "loop/event_loop.hpp"

namespace h2::kernel {

EventBus::Subscription EventBus::subscribe(std::string topic, Handler handler) {
  std::lock_guard lock(mu_);
  SubscriptionId id = next_id_++;
  topics_[std::move(topic)].push_back({id, std::move(handler)});
  return Subscription(this, id);
}

bool EventBus::remove(SubscriptionId id) {
  std::lock_guard lock(mu_);
  for (auto& [topic, subs] : topics_) {
    for (auto it = subs.begin(); it != subs.end(); ++it) {
      if (it->id == id) {
        subs.erase(it);
        return true;
      }
    }
  }
  return false;
}

void EventBus::bind_loop(loop::EventLoop* loop) {
  std::lock_guard lock(mu_);
  loop_ = loop;
}

std::size_t EventBus::publish(std::string_view topic, const Value& payload) {
  // Copy handlers out so subscribers may (un)subscribe from inside a
  // handler without deadlocking.
  std::vector<Handler> handlers;
  loop::EventLoop* loop = nullptr;
  {
    std::lock_guard lock(mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return 0;
    handlers.reserve(it->second.size());
    for (const auto& sub : it->second) handlers.push_back(sub.handler);
    loop = loop_;
  }
  std::size_t count = handlers.size();
  if (loop == nullptr) {
    for (const auto& handler : handlers) handler(payload);
    return count;
  }
  loop->dispatch(
      [handlers = std::move(handlers), payload] {
        for (const auto& handler : handlers) handler(payload);
      });
  return count;
}

std::size_t EventBus::subscriber_count(std::string_view topic) const {
  std::lock_guard lock(mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? 0 : it->second.size();
}

}  // namespace h2::kernel
