#include "transport/simnet.hpp"

namespace h2::net {

// The base class only stores the clock's address during construction, so
// handing it a not-yet-initialized member is safe (VirtualClock is
// value-initialized before any now() can run).
SimNetwork::SimNetwork() : Transport(&clock_) {}

Result<HostId> SimNetwork::add_host(const std::string& name) {
  for (const auto& host : hosts_) {
    if (host.name == name) {
      return err::already_exists("simnet: host '" + name + "' already exists");
    }
  }
  hosts_.push_back(Host{name, {}});
  return static_cast<HostId>(hosts_.size() - 1);
}

Result<HostId> SimNetwork::resolve(std::string_view name) const {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].name == name) return static_cast<HostId>(i);
  }
  return err::not_found("simnet: no host named '" + std::string(name) + "'");
}

const std::string& SimNetwork::host_name(HostId id) const {
  static const std::string kUnknown = "<unknown>";
  if (id >= hosts_.size()) return kUnknown;
  return hosts_[id].name;
}

Status SimNetwork::check_host(HostId id) const {
  if (id >= hosts_.size()) {
    return err::invalid_argument("simnet: bad host id " + std::to_string(id));
  }
  return Status::success();
}

Status SimNetwork::set_link(HostId a, HostId b, LinkSpec spec) {
  if (auto s = check_host(a); !s.ok()) return s;
  if (auto s = check_host(b); !s.ok()) return s;
  if (a == b) return err::invalid_argument("simnet: cannot set self-link");
  links_[pair_key(a, b)] = spec;
  return Status::success();
}

Status SimNetwork::partition(HostId a, HostId b) {
  if (auto s = check_host(a); !s.ok()) return s;
  if (auto s = check_host(b); !s.ok()) return s;
  partitioned_[pair_key(a, b)] = true;
  return Status::success();
}

Status SimNetwork::heal(HostId a, HostId b) {
  if (auto s = check_host(a); !s.ok()) return s;
  if (auto s = check_host(b); !s.ok()) return s;
  partitioned_.erase(pair_key(a, b));
  return Status::success();
}

bool SimNetwork::reachable(HostId a, HostId b) const {
  if (a >= hosts_.size() || b >= hosts_.size()) return false;
  if (a == b) return true;
  auto it = partitioned_.find(pair_key(a, b));
  return it == partitioned_.end() || !it->second;
}

Status SimNetwork::listen(HostId host, std::uint16_t port, Handler handler) {
  if (auto s = check_host(host); !s.ok()) return s;
  auto& servers = hosts_[host].servers;
  if (servers.count(port)) {
    return err::already_exists("simnet: port " + std::to_string(port) +
                               " already bound on " + hosts_[host].name);
  }
  servers[port] = std::move(handler);
  return Status::success();
}

Status SimNetwork::close(HostId host, std::uint16_t port) {
  if (auto s = check_host(host); !s.ok()) return s;
  if (hosts_[host].servers.erase(port) == 0) {
    return err::not_found("simnet: port " + std::to_string(port) + " not bound");
  }
  return Status::success();
}

bool SimNetwork::is_listening(HostId host, std::uint16_t port) const {
  return host < hosts_.size() && hosts_[host].servers.count(port) > 0;
}

Status SimNetwork::close_all(HostId host) {
  if (auto s = check_host(host); !s.ok()) return s;
  hosts_[host].servers.clear();
  return Status::success();
}

LinkSpec SimNetwork::link_between(HostId a, HostId b) const {
  if (a == b) return loopback_link();
  auto it = links_.find(pair_key(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

Result<ByteBuffer> SimNetwork::call(HostId from, HostId to, std::uint16_t port,
                                    std::span<const std::uint8_t> request) {
  if (auto s = check_host(from); !s.ok()) return s.error();
  if (auto s = check_host(to); !s.ok()) return s.error();
  if (!reachable(from, to)) {
    c_drops_.add();
    return err::unavailable("simnet: " + hosts_[from].name + " cannot reach " +
                            hosts_[to].name + " (partitioned)");
  }
  auto it = hosts_[to].servers.find(port);
  if (it == hosts_[to].servers.end()) {
    c_drops_.add();
    return err::unavailable("simnet: connection refused, " + hosts_[to].name + ":" +
                            std::to_string(port));
  }
  FaultDecision fault;
  if (fault_hook_) {
    fault = fault_hook_(MessageInfo{from, to, port, request.size(), /*is_call=*/true});
    if (fault.drop) {
      c_drops_.add();
      c_faults_.add();
      return err::unavailable("simnet: request lost, " + hosts_[from].name + " -> " +
                              hosts_[to].name + ":" + std::to_string(port));
    }
    if (fault.duplicates > 0 || fault.drop_reply) {
      c_faults_.add();
    }
  }

  LinkSpec link = link_between(from, to);
  clock_.advance(link.transfer_time(request.size()));
  c_messages_.add();
  c_bytes_.add(request.size());

  auto response = it->second(request);

  // Duplicated request frames: the server executes each extra copy too;
  // those replies go nowhere (the caller consumes only the first). The
  // handler is re-resolved per copy in case the first execution unbound
  // the port.
  for (unsigned copy = 0; copy < fault.duplicates; ++copy) {
    auto again = hosts_[to].servers.find(port);
    if (again == hosts_[to].servers.end()) break;
    clock_.advance(link.transfer_time(request.size()));
    c_messages_.add();
    c_bytes_.add(request.size());
    (void)again->second(request);
  }

  if (!response.ok()) return response.error();

  if (fault.drop_reply) {
    // The handler already ran — the caller cannot distinguish this from a
    // slow server, hence kTimeout ("maybe executed"), never kUnavailable.
    c_drops_.add();
    return err::timeout("simnet: reply lost, " + hosts_[to].name + ":" +
                        std::to_string(port) + " -> " + hosts_[from].name);
  }

  clock_.advance(link.transfer_time(response->size()));
  c_messages_.add();
  c_calls_.add();
  c_bytes_.add(response->size());
  return response;
}

Status SimNetwork::send(HostId from, HostId to, std::uint16_t port,
                        ByteBuffer payload) {
  if (auto s = check_host(from); !s.ok()) return s;
  if (auto s = check_host(to); !s.ok()) return s;
  if (!reachable(from, to)) {
    c_drops_.add();
    return err::unavailable("simnet: partitioned");
  }
  FaultDecision fault;
  if (fault_hook_) {
    fault = fault_hook_(MessageInfo{from, to, port, payload.size(), /*is_call=*/false});
  }
  if (fault.drop) {
    // The sender cannot tell a dropped datagram from a delivered one, so
    // losing it is still "success" from its point of view.
    c_drops_.add();
    c_faults_.add();
    return Status::success();
  }
  LinkSpec link = link_between(from, to);
  Nanos arrival = clock_.now() + link.transfer_time(payload.size()) + fault.delay;
  c_messages_.add();
  c_bytes_.add(payload.size());
  if (fault.duplicates > 0 || fault.delay > 0) {
    c_faults_.add();
  }
  for (unsigned copy = 0; copy < fault.duplicates; ++copy) {
    queue_.push(Pending{arrival, sequence_++, to, port, payload});
  }
  queue_.push(Pending{arrival, sequence_++, to, port, std::move(payload)});
  return Status::success();
}

std::size_t SimNetwork::pump() {
  std::size_t delivered = 0;
  while (!queue_.empty()) {
    // priority_queue has no non-const top()&&; copy is fine (payloads are
    // moved out of the queue storage via const_cast-free re-push pattern).
    Pending next = queue_.top();
    queue_.pop();
    clock_.advance_to(next.arrival);
    auto it = hosts_[next.to].servers.find(next.port);
    if (it == hosts_[next.to].servers.end()) {
      c_drops_.add();
      continue;
    }
    // One-way delivery: the handler's response (if any) is discarded.
    (void)it->second(next.payload.bytes());
    ++delivered;
  }
  return delivered;
}

}  // namespace h2::net
