// The two walks behind the paper's replication spectra. Section 5 lays
// out discovery as centralized, fully decentralized or intermediate;
// Section 6 lays out global-state coherency as full synchrony,
// decentralized queries or "full synchrony across small neighborhoods but
// ... distributed queries for farther hosts". Both intermediate schemes
// are the same two walks over a ring of members, and the decentralized
// end of each is that scheme with a neighborhood of k = 0:
//
//   ring_fan_out   a write goes to the k ring successors of its origin
//   query_others   a read the origin cannot answer goes to every other
//                  member in member order until one answers
//
// dvm::make_neighborhood and reg::make_neighborhood_lookup run these over
// their own store and wire calls; nothing here knows either.
#pragma once

#include <cstddef>

#include "util/error.hpp"

namespace h2 {

/// Calls `send(member)` for each of the k ring successors of `origin` in
/// a ring of `count` members, nearest first, never wrapping back to the
/// origin. The first failed leg fails the write.
template <typename Send>
Status ring_fan_out(std::size_t count, std::size_t origin, std::size_t k, Send send) {
  for (std::size_t step = 1; step <= k && step < count; ++step) {
    if (auto status = send((origin + step) % count); !status.ok()) return status;
  }
  return Status::success();
}

/// Calls `ask(member)` for every member but `origin`, in member order.
/// The first answer wins; an error other than kNotFound ends the sweep
/// and is returned; when every member misses, returns `miss()`.
template <typename Ask, typename Miss>
auto query_others(std::size_t count, std::size_t origin, Ask ask, Miss miss)
    -> decltype(ask(origin)) {
  for (std::size_t member = 0; member < count; ++member) {
    if (member == origin) continue;
    auto answer = ask(member);
    if (answer.ok() || answer.error().code() != ErrorCode::kNotFound) return answer;
  }
  return miss();
}

}  // namespace h2
