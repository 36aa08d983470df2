// Topic-based event bus: the "general event management" service plugins
// leverage from each other (Fig 2). Delivery goes through the owning
// kernel's EventLoop (`bind_loop`): with no driver attached the loop
// dispatches inline on the publisher's thread (the original synchronous
// behavior); under a driver, publishes from off the loop thread are
// posted so handlers always run with loop affinity. The bus is
// thread-safe either way.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "encoding/value.hpp"

namespace h2::loop {
class EventLoop;
}

namespace h2::kernel {

class EventBus {
 public:
  using SubscriptionId = std::uint64_t;
  using Handler = std::function<void(const Value& payload)>;

  /// RAII subscription handle: move-only, unsubscribes on destruction.
  /// Holding the handle IS the subscription — dropping it detaches the
  /// handler, so a subscriber can't leak a registration past its own
  /// lifetime. The bus must outlive every handle.
  class [[nodiscard]] Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& other) noexcept { *this = std::move(other); }
    Subscription& operator=(Subscription&& other) noexcept {
      if (this != &other) {
        reset();
        bus_ = other.bus_;
        id_ = other.id_;
        other.bus_ = nullptr;
      }
      return *this;
    }
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;
    ~Subscription() { reset(); }

    bool active() const { return bus_ != nullptr; }
    SubscriptionId id() const { return id_; }

    /// Unsubscribes now. Idempotent.
    void reset() {
      if (bus_ != nullptr) {
        bus_->remove(id_);
        bus_ = nullptr;
      }
    }

   private:
    friend class EventBus;
    Subscription(EventBus* bus, SubscriptionId id) : bus_(bus), id_(id) {}

    EventBus* bus_ = nullptr;
    SubscriptionId id_ = 0;
  };

  /// Subscribes to an exact topic. The returned handle owns the
  /// registration; keep it alive for as long as events should arrive.
  Subscription subscribe(std::string topic, Handler handler);

  /// Binds delivery to `loop` (nullptr reverts to inline delivery).
  /// Kernel binds its own loop at construction.
  void bind_loop(loop::EventLoop* loop);

  /// Delivers `payload` to every handler of `topic`, in subscription
  /// order, via the bound loop's dispatch (inline when no loop or no
  /// driver is attached). Returns the number of handlers that will be
  /// invoked — the subscriber snapshot taken at publish time.
  std::size_t publish(std::string_view topic, const Value& payload);

  std::size_t subscriber_count(std::string_view topic) const;

 private:
  struct Entry {
    SubscriptionId id;
    Handler handler;
  };

  bool remove(SubscriptionId id);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<Entry>, std::less<>> topics_;
  SubscriptionId next_id_ = 1;
  loop::EventLoop* loop_ = nullptr;
};

}  // namespace h2::kernel
