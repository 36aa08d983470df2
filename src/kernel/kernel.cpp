#include "kernel/kernel.hpp"

#include "util/log.hpp"

namespace h2::kernel {

namespace {
Logger& logger() {
  static Logger log("kernel");
  return log;
}
}  // namespace

Kernel::Kernel(std::string name, const PluginRepository& repo, net::SimNetwork& net,
               net::HostId host)
    : name_(std::move(name)), repo_(repo), net_(net), host_(host),
      loop_("kernel/" + name_) {
  events_.bind_loop(&loop_);
}

Kernel::~Kernel() {
  for (auto& [name, entry] : plugins_) entry.plugin->shutdown();
}

Result<Plugin*> Kernel::load(std::string_view plugin_name, std::string_view version) {
  if (plugins_.count(plugin_name)) {
    return err::already_exists("kernel " + name_ + ": plugin '" +
                               std::string(plugin_name) + "' already loaded");
  }
  auto plugin = repo_.create(plugin_name, version);
  if (!plugin.ok()) return plugin.error().context("kernel " + name_);

  if (auto status = (*plugin)->init(*this); !status.ok()) {
    return status.error().context("init of plugin '" + std::string(plugin_name) + "'");
  }
  Plugin* raw = plugin->get();
  Loaded entry;
  entry.plugin = std::move(*plugin);
  // Register the per-plugin metric handles once, on the cold path; call()
  // then increments through the cached pointers.
  auto& metrics = net_.metrics();
  std::string prefix = "h2.kernel." + name_ + ".";
  std::string pname(plugin_name);
  metrics.counter(prefix + "loads." + pname).add();
  entry.calls = &metrics.counter(prefix + "calls." + pname);
  entry.errors = &metrics.counter(prefix + "errors." + pname);
  entry.latency = &metrics.histogram(prefix + "latency." + pname);
  plugins_[std::move(pname)] = std::move(entry);
  logger().debug(name_ + ": loaded plugin " + std::string(plugin_name));
  return raw;
}

Status Kernel::unload(std::string_view plugin_name) {
  auto it = plugins_.find(plugin_name);
  if (it == plugins_.end()) {
    return err::not_found("kernel " + name_ + ": plugin '" +
                          std::string(plugin_name) + "' not loaded");
  }
  it->second.plugin->shutdown();
  plugins_.erase(it);
  logger().debug(name_ + ": unloaded plugin " + std::string(plugin_name));
  return Status::success();
}

Result<Plugin&> Kernel::get(std::string_view plugin_name) {
  auto it = plugins_.find(plugin_name);
  if (it == plugins_.end()) {
    return err::not_found("kernel " + name_ + ": plugin '" +
                          std::string(plugin_name) + "' not loaded");
  }
  return *it->second.plugin;
}

Result<const Plugin&> Kernel::get(std::string_view plugin_name) const {
  auto it = plugins_.find(plugin_name);
  if (it == plugins_.end()) {
    return err::not_found("kernel " + name_ + ": plugin '" +
                          std::string(plugin_name) + "' not loaded");
  }
  return *it->second.plugin;
}

std::vector<PluginInfo> Kernel::loaded() const {
  std::vector<PluginInfo> out;
  out.reserve(plugins_.size());
  for (const auto& [name, entry] : plugins_) out.push_back(entry.plugin->info());
  return out;
}

void Kernel::for_each_plugin(const std::function<void(Plugin&)>& fn) {
  for (auto& [name, entry] : plugins_) fn(*entry.plugin);
}

Result<net::Dispatcher*> Kernel::service(std::string_view plugin_name) {
  auto plugin = get(plugin_name);
  if (!plugin.ok()) return plugin.error();
  return static_cast<net::Dispatcher*>(&*plugin);
}

Result<Value> Kernel::call(std::string_view plugin_name, std::string_view operation,
                           std::span<const Value> params) {
  auto it = plugins_.find(plugin_name);
  if (it == plugins_.end()) {
    return err::not_found("kernel " + name_ + ": no service '" +
                          std::string(plugin_name) + "'");
  }
  Loaded& entry = it->second;
  if (!instrument_) return entry.plugin->dispatch(operation, params);

  // Span first, so the context is current while the dispatch runs and any
  // outbound SOAP call it makes picks the ids up for its Trace header.
  // start_span is a single branch when the tracer is disabled; the name
  // string is only built when it will actually be recorded.
  obs::Span span;
  auto& tracer = net_.tracer();
  if (tracer.enabled()) {
    std::string span_name;
    span_name.reserve(12 + plugin_name.size() + 1 + operation.size());
    span_name.append("kernel.call.").append(plugin_name).append(".").append(operation);
    span = tracer.start_span(span_name);
  }
  Nanos start = net_.clock().now();
  auto result = entry.plugin->dispatch(operation, params);
  entry.calls->add();
  if (!result.ok()) entry.errors->add();
  entry.latency->observe(net_.clock().now() - start);
  span.set_ok(result.ok());
  return result;
}

}  // namespace h2::kernel
