#include "registry/lookup.hpp"

#include "util/spectrum.hpp"
#include "wsdl/io.hpp"

namespace h2::reg {

namespace {

/// Builds the registry-service dispatcher for one node.
std::shared_ptr<net::Dispatcher> make_registry_dispatcher(
    std::shared_ptr<XmlRegistry> registry) {
  auto mux = std::make_shared<net::DispatcherMux>();
  mux->add("publish", [registry](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 2) return err::invalid_argument("publish(wsdl, lease)");
    auto text = params[0].as_string();
    if (!text.ok()) return text.error();
    auto lease = params[1].as_int();
    if (!lease.ok()) return lease.error();
    auto defs = wsdl::parse(*text);
    if (!defs.ok()) return defs.error();
    auto key = registry->add(*defs, *lease);
    if (!key.ok()) return key.error();
    return Value::of_string(std::move(*key), "key");
  });
  mux->add("find", [registry](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("find(service)");
    auto name = params[0].as_string();
    if (!name.ok()) return name.error();
    auto entry = registry->find_service(*name);
    if (!entry.ok()) return entry.error();
    return Value::of_string(wsdl::to_xml_string(entry->defs), "wsdl");
  });
  mux->add("remove", [registry](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("remove(key)");
    auto key = params[0].as_string();
    if (!key.ok()) return key.error();
    if (auto status = registry->remove(*key); !status.ok()) return status.error();
    return Value::of_void();
  });
  return mux;
}

/// One registry-service call from `from` to `target` over the XDR binding.
Result<Value> call_registry(RegistryNode& from, RegistryNode& target,
                            std::string_view operation, std::span<const Value> params) {
  net::Transport& net = from.network();
  net::Endpoint endpoint{.scheme = "xdr",
                         .host = net.host_name(target.host()),
                         .port = kRegistryPort,
                         .path = ""};
  return net::make_xdr_channel(net, from.host(), endpoint)->invoke(operation, params);
}

Status remote_publish(RegistryNode& from, RegistryNode& target,
                      const wsdl::Definitions& defs) {
  const Value params[] = {Value::of_string(wsdl::to_xml_string(defs), "wsdl"),
                          Value::of_int(0, "lease")};
  auto result = call_registry(from, target, "publish", params);
  if (!result.ok()) return result.error();
  return Status::success();
}

Result<wsdl::Definitions> remote_find(RegistryNode& from, RegistryNode& target,
                                      std::string_view service_name) {
  const Value params[] = {Value::of_string(std::string(service_name), "service")};
  auto result = call_registry(from, target, "find", params);
  if (!result.ok()) return result.error();
  auto text = result->as_string();
  if (!text.ok()) return text.error();
  return wsdl::parse(*text);
}

class CentralizedLookup final : public LookupStrategy {
 public:
  CentralizedLookup(std::vector<RegistryNode*> nodes, std::size_t center)
      : nodes_(std::move(nodes)), center_(center) {}

  Status publish(std::size_t from, const wsdl::Definitions& defs) override {
    return remote_publish(*nodes_[from], *nodes_[center_], defs);
  }

  Result<wsdl::Definitions> lookup(std::size_t from,
                                   std::string_view service_name) override {
    return remote_find(*nodes_[from], *nodes_[center_], service_name);
  }

  const char* name() const override { return "centralized"; }

 private:
  std::vector<RegistryNode*> nodes_;
  std::size_t center_;
};

/// Local registration replicated synchronously to the k ring successors
/// (full synchrony inside the neighbourhood), local reads, and an active
/// distributed query for farther hosts. With k = 0 registration is fully
/// localized and costs no network traffic: the decentralized scheme.
class NeighborhoodLookup final : public LookupStrategy {
 public:
  NeighborhoodLookup(std::vector<RegistryNode*> nodes, std::size_t k)
      : nodes_(std::move(nodes)), k_(k) {}

  Status publish(std::size_t from, const wsdl::Definitions& defs) override {
    auto key = nodes_[from]->registry().add(defs);
    if (!key.ok()) return key.error();
    return ring_fan_out(nodes_.size(), from, k_, [&](std::size_t to) {
             return remote_publish(*nodes_[from], *nodes_[to], defs);
           }).context("neighborhood replication");
  }

  Result<wsdl::Definitions> lookup(std::size_t from,
                                   std::string_view service_name) override {
    if (auto local = nodes_[from]->registry().find_service(service_name); local.ok()) {
      return local->defs;
    }
    return query_others(
        nodes_.size(), from,
        [&](std::size_t node) { return remote_find(*nodes_[from], *nodes_[node], service_name); },
        [&]() -> Result<wsdl::Definitions> {
          return err::not_found(std::string(name()) + " lookup: service '" +
                                std::string(service_name) + "' not found");
        });
  }

  const char* name() const override { return k_ == 0 ? "decentralized" : "neighborhood"; }

 private:
  std::vector<RegistryNode*> nodes_;
  std::size_t k_;
};

}  // namespace

RegistryNode::RegistryNode(net::Transport& net, net::HostId host, const Clock& clock)
    : net_(net),
      host_(host),
      registry_(std::make_shared<XmlRegistry>(clock)),
      dispatcher_(make_registry_dispatcher(registry_)) {
  registry_->bind_metrics(net.metrics());
}

Status RegistryNode::start() {
  if (server_.has_value()) return Status::success();
  auto handle = net::serve_xdr(net_, host_, kRegistryPort, dispatcher_);
  if (!handle.ok()) return handle.error();
  server_.emplace(std::move(*handle));
  return Status::success();
}

void RegistryNode::stop() { server_.reset(); }

std::unique_ptr<LookupStrategy> make_centralized_lookup(
    std::vector<RegistryNode*> nodes, std::size_t center) {
  return std::make_unique<CentralizedLookup>(std::move(nodes), center);
}

std::unique_ptr<LookupStrategy> make_decentralized_lookup(
    std::vector<RegistryNode*> nodes) {
  return std::make_unique<NeighborhoodLookup>(std::move(nodes), 0);
}

std::unique_ptr<LookupStrategy> make_neighborhood_lookup(
    std::vector<RegistryNode*> nodes, std::size_t k) {
  return std::make_unique<NeighborhoodLookup>(std::move(nodes), k);
}

}  // namespace h2::reg
