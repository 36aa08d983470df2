// Distributed discovery. Section 5 of the paper sketches the spectrum:
// "At one extreme, there are centralized lookup services... a single point
// of failure and a potential scalability bottleneck. At the other extreme,
// a completely decentralized approach leads to a registration phase that
// is fully localized... whereas the discovery phase performs an active
// lookup that can be expensive... Most frameworks provide solutions that
// are intermediate."
//
// This module implements all three points of the spectrum over any
// net::Transport, each node running a RegistryNode (an XmlRegistry behind
// an XDR server).
// bench_lookup (EXP-LOOKUP) sweeps node count and measures registration
// vs discovery cost for each strategy.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "registry/xml_registry.hpp"
#include "transport/rpc.hpp"

namespace h2::reg {

/// Well-known port for registry service endpoints.
inline constexpr std::uint16_t kRegistryPort = 7000;

/// One per-host registry service: an XmlRegistry exposed over the XDR
/// binding with operations publish(wsdl,lease) -> key and
/// find(service) -> wsdl.
class RegistryNode {
 public:
  RegistryNode(net::Transport& net, net::HostId host, const Clock& clock);

  /// Binds the registry service on kRegistryPort.
  Status start();
  void stop();

  net::HostId host() const { return host_; }
  net::Transport& network() { return net_; }
  XmlRegistry& registry() { return *registry_; }
  const XmlRegistry& registry() const { return *registry_; }

 private:
  net::Transport& net_;
  net::HostId host_;
  std::shared_ptr<XmlRegistry> registry_;
  std::shared_ptr<net::Dispatcher> dispatcher_;
  std::optional<net::ServerHandle> server_;
};

/// A discovery strategy used by components running on node `from`.
class LookupStrategy {
 public:
  virtual ~LookupStrategy() = default;

  /// Registers `defs` as provided by node `from`.
  virtual Status publish(std::size_t from, const wsdl::Definitions& defs) = 0;

  /// Finds the WSDL for `service_name`, querying from node `from`.
  virtual Result<wsdl::Definitions> lookup(std::size_t from,
                                           std::string_view service_name) = 0;

  virtual const char* name() const = 0;
};

/// All registrations and lookups go to one designated center node.
/// Cheap constant-cost lookup; the center is a bottleneck and SPOF.
std::unique_ptr<LookupStrategy> make_centralized_lookup(
    std::vector<RegistryNode*> nodes, std::size_t center);

/// Registration is purely local (zero network traffic); lookup fans out
/// across all nodes until a hit. This is make_neighborhood_lookup(nodes, 0),
/// named "decentralized".
std::unique_ptr<LookupStrategy> make_decentralized_lookup(
    std::vector<RegistryNode*> nodes);

/// The paper's "mixed" scheme: full replication within a k-neighborhood
/// (ring topology), distributed queries beyond it (the walks in
/// util/spectrum.hpp).
std::unique_ptr<LookupStrategy> make_neighborhood_lookup(
    std::vector<RegistryNode*> nodes, std::size_t k);

}  // namespace h2::reg
