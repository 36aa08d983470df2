// DedupCache — the server half of at-most-once execution. A retrying
// client cannot tell "request lost" from "reply lost"; for the latter the
// handler already ran, and blindly re-executing a non-idempotent op would
// double-apply its side effect. So the ResilientChannel stamps every
// logical call with an idempotency key (SOAP <h2:CallId> header / XDR
// H2RC frame field) and keeps the SAME key across retries of one call;
// the server caches the serialized reply under that key and replays it
// verbatim for any duplicate arrival. The cached unit is one call's
// reply, never a whole transport response — the "H2RP" frame for XDR and
// raw HTTP, the Body element (opResponse or Fault) for SOAP — so one
// cache serves every binding and a retry may switch between singleton
// and batch shape. The handler executes at most
// once per key; at-most-once composes with the client's retry loop into
// effectively-once for calls that eventually get a reply through.
//
// Header-only on purpose: h2_transport's serve_xdr/SoapHttpServer include
// this without taking a link dependency on h2_resilience.
//
// Eviction is FIFO with a fixed capacity — in the simulator call ids are
// monotonic serials so FIFO == oldest-call-first. The default capacity is
// deliberately modest: a duplicate can only arrive within one logical
// call's retry window (max_attempts bounded by the CallPolicy deadline),
// so a few hundred entries cover hundreds of concurrent logical calls,
// and keeping the resident set small keeps the per-call reply copy warm
// in cache instead of churning megabytes of cold heap. `set_enabled(false)`
// exists solely for the planted-bug scenario that proves the
// no-duplicate-side-effect invariant has teeth.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/byte_buffer.hpp"

namespace h2::resil {

/// SOAP header carrying the idempotency key (non-mustUnderstand, like the
/// Trace header — servers that predate dedup simply ignore it).
inline constexpr std::string_view kCallIdHeaderName = "CallId";
inline constexpr std::string_view kCallIdHeaderNs = "http://harness2/resilience";

/// Default reply-cache depth: sized to the retry horizon (see the file
/// comment), not to available memory.
inline constexpr std::size_t kDefaultDedupCapacity = 256;

class DedupCache {
 public:
  explicit DedupCache(std::size_t capacity = kDefaultDedupCapacity,
                      obs::Counter* hits = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity), hits_(hits) {}

  DedupCache(const DedupCache&) = delete;
  DedupCache& operator=(const DedupCache&) = delete;

  /// Cached reply for `call_id`, if this id already executed. A hit means
  /// the caller must replay these bytes instead of dispatching.
  std::optional<ByteBuffer> lookup(std::string_view call_id) {
    if (call_id.empty()) return std::nullopt;
    std::lock_guard lock(mu_);
    if (!enabled_) return std::nullopt;
    auto it = replies_.find(call_id);
    if (it == replies_.end()) return std::nullopt;
    ++hit_count_;
    if (hits_ != nullptr) hits_->add();
    return it->second;
  }

  /// Records the serialized reply for `call_id` after the handler ran.
  /// Dispatch *faults* are cached too — the handler executed, and a retry
  /// must observe the same outcome, not a second execution.
  void store(std::string_view call_id, ByteBuffer reply) {
    if (call_id.empty()) return;
    std::lock_guard lock(mu_);
    if (!enabled_) return;
    // Call ids are monotonic serials, so the new key almost always sorts
    // last — the hint turns the usual insert into O(1).
    auto it = replies_.emplace_hint(replies_.end(), std::string(call_id),
                                    std::move(reply));
    if (order_.size() == replies_.size()) return;  // duplicate id: hint was a no-op
    order_.push_back(&it->first);
    while (order_.size() > capacity_) {
      replies_.erase(*order_.front());
      order_.pop_front();
    }
  }

  void set_enabled(bool enabled) {
    std::lock_guard lock(mu_);
    enabled_ = enabled;
  }
  bool enabled() const {
    std::lock_guard lock(mu_);
    return enabled_;
  }

  std::uint64_t hits() const {
    std::lock_guard lock(mu_);
    return hit_count_;
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return replies_.size();
  }

 private:
  std::size_t capacity_;
  obs::Counter* hits_;  ///< optional global h2.resil.dedup_hits
  mutable std::mutex mu_;
  bool enabled_ = true;
  std::uint64_t hit_count_ = 0;
  std::map<std::string, ByteBuffer, std::less<>> replies_;
  std::deque<const std::string*> order_;  ///< insertion order; map nodes are stable
};

}  // namespace h2::resil
