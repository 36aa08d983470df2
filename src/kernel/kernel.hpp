// The Harness kernel: the per-host software backplane into which plugins
// are plugged (paper Section 3, Fig 1). It owns loaded plugin instances,
// exposes them to each other through the service table, and carries the
// event bus. A kernel is bound to one SimNetwork host so plugins can send
// and receive network traffic.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/event_bus.hpp"
#include "kernel/plugin.hpp"
#include "loop/event_loop.hpp"
#include "transport/simnet.hpp"

namespace h2::kernel {

class Kernel {
 public:
  /// `repo` and `net` are borrowed and must outlive the kernel.
  Kernel(std::string name, const PluginRepository& repo, net::SimNetwork& net,
         net::HostId host);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- identity ------------------------------------------------------------

  const std::string& name() const { return name_; }
  net::SimNetwork& network() { return net_; }
  net::HostId host() const { return host_; }
  const PluginRepository& repository() const { return repo_; }

  // ---- plugin lifecycle ------------------------------------------------------

  /// Instantiates `plugin_name` from the repository, calls init(), and
  /// registers its service. One instance per plugin name per kernel.
  /// On init() failure the plugin is discarded and the error returned.
  Result<Plugin*> load(std::string_view plugin_name, std::string_view version = "");

  /// Shuts down and removes a loaded plugin.
  Status unload(std::string_view plugin_name);

  /// Loaded plugin by name. The primary lookup: success means the plugin
  /// exists, failure carries a kNotFound error naming it — no nullptr in
  /// the signature.
  Result<Plugin&> get(std::string_view plugin_name);
  Result<const Plugin&> get(std::string_view plugin_name) const;

  std::vector<PluginInfo> loaded() const;
  std::size_t plugin_count() const { return plugins_.size(); }

  /// Deterministic lifecycle fan-out (name order): the container's
  /// crash/restart simulation uses this to notify kernel-loaded plugins.
  void for_each_plugin(const std::function<void(Plugin&)>& fn);

  // ---- inter-plugin services ---------------------------------------------------

  /// The service surface of a loaded plugin — how plugins leverage each
  /// other ("plugins that implement a certain function can exploit the
  /// services provided by other plugins already loaded within the same
  /// Harness DVM").
  Result<net::Dispatcher*> service(std::string_view plugin_name);

  /// Invoke an operation on a sibling plugin in one step.
  Result<Value> call(std::string_view plugin_name, std::string_view operation,
                     std::span<const Value> params);

  /// Brace-list convenience: kernel.call("table", "put", {k, v}).
  Result<Value> call(std::string_view plugin_name, std::string_view operation,
                     std::initializer_list<Value> params) {
    return call(plugin_name, operation,
                std::span<const Value>(params.begin(), params.size()));
  }

  EventBus& events() { return events_; }

  /// The kernel's dispatch loop. Event-bus deliveries, plugin timers,
  /// and DVM completions targeting this kernel run through it. Eager
  /// (inline, synchronous) until a driver is attached — the sim harness
  /// attaches a SimDriver, real deployments an EpollDriver.
  loop::EventLoop& loop() { return loop_; }
  const loop::EventLoop& loop() const { return loop_; }

  // ---- observability ---------------------------------------------------------

  /// When off, call() skips metric and span recording entirely — the
  /// uninstrumented baseline for bench_observability. On by default; the
  /// steady-state cost is a map hit the call made anyway plus three
  /// relaxed atomics on cached handles.
  void set_instrumentation(bool on) { instrument_ = on; }
  bool instrumentation() const { return instrument_; }

 private:
  /// A loaded plugin plus its cached metric handles, so the call hot path
  /// never touches the metrics name map.
  struct Loaded {
    std::unique_ptr<Plugin> plugin;
    obs::Counter* calls = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };

  std::string name_;
  const PluginRepository& repo_;
  net::SimNetwork& net_;
  net::HostId host_;
  loop::EventLoop loop_;
  EventBus events_;
  bool instrument_ = true;
  // map keeps unload order irrelevant; shutdown() is called in unload/dtor.
  std::map<std::string, Loaded, std::less<>> plugins_;
};

}  // namespace h2::kernel
