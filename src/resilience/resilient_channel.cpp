#include "resilience/resilient_channel.hpp"

#include <algorithm>
#include <charconv>
#include <optional>

namespace h2::resil {

namespace {

// "h2c-<serial>" without the std::to_string round trip — this runs on
// every resilient call, so the stamp should cost one SSO string at most.
std::string stamp_call_id(std::uint64_t serial) {
  char buf[24] = {'h', '2', 'c', '-'};
  auto [end, ec] = std::to_chars(buf + 4, buf + sizeof(buf), serial);
  (void)ec;  // 20 digits always fit
  return std::string(buf, end);
}

}  // namespace

ResilientChannel::ResilientChannel(std::unique_ptr<net::Channel> inner,
                                   net::Transport& net, CallPolicy policy,
                                   CircuitBreaker* breaker, std::string endpoint_key)
    : inner_(std::move(inner)),
      net_(net),
      policy_(policy),
      breaker_(breaker),
      endpoint_key_(std::move(endpoint_key)),
      // One serial per channel keeps jitter streams distinct between
      // channels while staying a pure function of construction order.
      rng_(policy.jitter_seed ^ net.next_call_serial()),
      c_retries_(net.metrics().counter("h2.resil.retries")),
      c_deadline_(net.metrics().counter("h2.resil.deadline_exceeded")),
      c_fastfail_(net.metrics().counter("h2.resil.breaker_fastfail")) {}

void ResilientChannel::set_call_id(std::string id) {
  forced_call_id_ = std::move(id);
}

// The one attempt loop. `attempt()` sends the call in its caller's shape
// and returns the attempt's error, or nullptr on success; the error lives
// until the next attempt. `label` appends what was called ("op" or
// "batch[N]") to an error text, so the success path builds no string.
// Returns nullopt when the last attempt's outcome is final — a success or
// an application answer — else the loop's own terminal error.
template <typename Attempt, typename Label>
std::optional<Error> ResilientChannel::run(Attempt attempt, Label label) {
  const Nanos start = net_.now();
  last_attempts_ = 0;
  bool maybe_exec = false;
  Error last_error = err::unavailable("no attempt made");
  // "<what> calling '<label>' on <endpoint>", then "<open><last error>)".
  auto calling = [&](std::string_view what, std::string_view open = {}) {
    std::string text(what);
    text += " calling '";
    label(text);
    text += "' on ";
    text += endpoint_key_;
    if (!open.empty()) {
      text += open;
      text += last_error.message();
      text += ')';
    }
    return text;
  };
  for (int n = 1; n <= policy_.max_attempts; ++n) {
    if (policy_.deadline > 0 && net_.now() - start >= policy_.deadline) {
      c_deadline_.add();
      return Error(ErrorCode::kTimeout, calling("deadline exceeded", " ("));
    }
    if (breaker_ != nullptr && !breaker_->allow(net_.now())) {
      c_fastfail_.add();
      last_error = err::unavailable("circuit open for " + endpoint_key_);
      // Fall through to backoff: advancing virtual time is what lets the
      // breaker's cooldown elapse and admit a half-open probe.
    } else {
      ++last_attempts_;
      if (last_attempts_ > 1) c_retries_.add();
      const Error* error = attempt();
      const Nanos after = net_.now();
      if (error == nullptr) {
        if (breaker_ != nullptr) breaker_->record(true, after);
        return std::nullopt;
      }
      const ErrorCode code = error->code();
      // Application-level answers (kNotFound, a SOAP fault, ...) mean the
      // host is healthy: success for the breaker, final for the caller.
      if (breaker_ != nullptr) breaker_->record(!transient(code), after);
      if (!transient(code)) return std::nullopt;
      if (maybe_executed(code)) maybe_exec = true;
      last_error = *error;
    }
    if (n < policy_.max_attempts) {
      net_.sleep_for(backoff_delay(policy_, n, rng_));
    }
  }

  if (maybe_exec) {
    // Some attempt may have reached the dispatcher; only a same-id retry
    // (not a failover) would be safe, and the budget is spent.
    return Error(ErrorCode::kTimeout,
                 calling("retries exhausted", "; a reply was lost ("));
  }
  return last_error.context(calling("retries exhausted"));
}

Result<Value> ResilientChannel::invoke(std::string_view operation,
                                       std::span<const Value> params) {
  if (policy_.attach_call_id) {
    std::string call_id = forced_call_id_.empty()
                              ? stamp_call_id(net_.next_call_serial())
                              : forced_call_id_;
    // Every retry of this logical call re-sends the SAME id — that is the
    // whole at-most-once contract with the server's DedupCache.
    inner_->set_call_id(std::move(call_id));
  }
  std::optional<Result<Value>> result;
  std::optional<Error> failed = run(
      [&]() -> const Error* {
        result.emplace(inner_->invoke(operation, params));
        return result->ok() ? nullptr : &result->error();
      },
      [&](std::string& text) { text += operation; });
  if (failed.has_value()) return std::move(*failed);
  return std::move(*result);
}

Status ResilientChannel::invoke_batch(std::span<const net::BatchItem> calls,
                                      std::vector<Result<Value>>& results) {
  if (calls.empty()) {
    results.clear();
    return Status::success();
  }

  // Sub-call ids make a re-sent batch dedup-safe; stamp any the caller
  // (usually a BatchChannel) left empty. One copy, reused by every attempt
  // so all re-sends carry the SAME ids.
  std::vector<net::BatchItem> stamped;
  std::span<const net::BatchItem> effective = calls;
  if (policy_.attach_call_id &&
      std::any_of(calls.begin(), calls.end(),
                  [](const net::BatchItem& item) { return item.call_id.empty(); })) {
    stamped.assign(calls.begin(), calls.end());
    for (net::BatchItem& item : stamped) {
      if (item.call_id.empty()) item.call_id = stamp_call_id(net_.next_call_serial());
    }
    effective = stamped;
  }

  Status status;
  std::optional<Error> failed = run(
      [&]() -> const Error* {
        status = inner_->invoke_batch(effective, results);
        return status.ok() ? nullptr : &status.error();
      },
      [&](std::string& text) {
        text += "batch[";
        text += std::to_string(calls.size());
        text += ']';
      });
  if (!failed.has_value()) {
    if (status.ok()) return status;
    failed = status.error();  // an application answer for the whole frame
  }
  // No per-call verdicts exist: every sub-call carries the batch's error.
  results.assign(calls.size(), Result<Value>(*failed));
  return Status(std::move(*failed));
}

std::unique_ptr<net::Channel> make_resilient_channel(
    std::unique_ptr<net::Channel> inner, net::Transport& net, CallPolicy policy,
    CircuitBreaker* breaker, std::string endpoint_key) {
  return std::make_unique<ResilientChannel>(std::move(inner), net, policy, breaker,
                                            std::move(endpoint_key));
}

}  // namespace h2::resil
