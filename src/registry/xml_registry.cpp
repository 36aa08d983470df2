#include "registry/xml_registry.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "util/strings.hpp"
#include "wsdl/io.hpp"
#include "xml/xpath.hpp"

namespace h2::reg {

namespace {

constexpr std::string_view kKeyPrefix = "reg-";

/// Keys are "reg-<doc id>"; the id is the storage key, so a key lookup
/// is one hash probe instead of a scan.
std::optional<std::uint64_t> parse_key(std::string_view key) {
  if (!str::starts_with(key, kKeyPrefix)) return std::nullopt;
  auto n = str::parse_u64(key.substr(kKeyPrefix.size()));
  if (!n.ok()) return std::nullopt;
  return *n;
}

void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

}  // namespace

XmlRegistry::XmlRegistry(const Clock& clock) : clock_(clock) {}

Result<std::string> XmlRegistry::add(const wsdl::Definitions& defs, Nanos lease) {
  if (auto status = wsdl::validate(defs); !status.ok()) {
    return status.error().context("registry add");
  }
  if (lease < 0) return err::invalid_argument("registry: negative lease");
  // Serialize outside the lock: the XML form is only needed to extract
  // index terms here, then dropped (queries rebuild it lazily on demand).
  std::unique_ptr<xml::Node> doc = wsdl::to_xml(defs);

  std::unique_lock lock(mu_);
  const std::uint64_t id = next_key_++;
  Stored& stored = stored_[id];  // in place: Stored is not movable
  stored.entry.key = std::string(kKeyPrefix) + std::to_string(id);
  stored.entry.defs = defs;
  stored.entry.registered_at = clock_.now();
  stored.entry.lease_expires = lease == 0 ? 0 : clock_.now() + lease;
  index_.add(id, defs, *doc);
  if (lease > 0) stored.lease_timer = leases_.add(clock_.now(), lease, id);
  bump(c_adds_);
  update_gauges_locked();
  return stored.entry.key;
}

Status XmlRegistry::renew(std::string_view key, Nanos extension) {
  std::unique_lock lock(mu_);
  auto id = parse_key(key);
  auto it = id ? stored_.find(*id) : stored_.end();
  if (it == stored_.end()) {
    return err::not_found("registry: no live entry '" + std::string(key) + "'");
  }
  if (!live(it->second)) {
    // An expired lease cannot be revived: purge the corpse so the failed
    // renew also reclaims the slot, and report the entry as gone.
    purge_locked(it);
    bump(c_expired_);
    update_gauges_locked();
    return err::not_found("registry: lease on '" + std::string(key) +
                          "' already expired");
  }
  if (extension <= 0) return err::invalid_argument("registry: non-positive extension");
  if (it->second.lease_timer != 0) leases_.cancel(it->second.lease_timer);
  it->second.entry.lease_expires = clock_.now() + extension;
  it->second.lease_timer = leases_.add(clock_.now(), extension, it->first);
  bump(c_renews_);
  update_gauges_locked();
  return Status::success();
}

Status XmlRegistry::remove(std::string_view key) {
  std::unique_lock lock(mu_);
  auto id = parse_key(key);
  auto it = id ? stored_.find(*id) : stored_.end();
  if (it == stored_.end()) {
    return err::not_found("registry: no entry '" + std::string(key) + "'");
  }
  purge_locked(it);
  bump(c_removes_);
  update_gauges_locked();
  return Status::success();
}

std::vector<const Entry*> XmlRegistry::entries() const {
  std::shared_lock lock(mu_);
  auto ordered = live_in_order_locked();
  std::vector<const Entry*> out;
  out.reserve(ordered.size());
  for (const auto& [id, stored] : ordered) out.push_back(&stored->entry);
  return out;
}

std::size_t XmlRegistry::size() const {
  std::shared_lock lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      stored_.begin(), stored_.end(),
      [this](const Table::value_type& kv) { return live(kv.second); }));
}

Result<std::vector<const Entry*>> XmlRegistry::query(std::string_view xpath) const {
  auto compiled = xml::XPath::compile(xpath);
  if (!compiled.ok()) return compiled.error().context("registry query");

  std::shared_lock lock(mu_);
  bump(c_queries_);
  std::vector<const Entry*> out;
  auto candidates = index_.candidates(*compiled);
  if (candidates.has_value()) {
    bump(c_index_hits_);
    for (RegistryIndex::DocId id : *candidates) {
      auto it = stored_.find(id);
      // Postings may lag removals (amortized compaction) and leases may
      // lapse between wheel ticks: liveness is re-checked here.
      if (it == stored_.end() || !live(it->second)) continue;
      if (!compiled->select(doc_of(it->second)).empty()) {
        out.push_back(&it->second.entry);
      }
    }
    return out;
  }
  // Query constrains nothing indexable (e.g. "//*"): scan.
  bump(c_index_scans_);
  for (const auto& [id, stored] : live_in_order_locked()) {
    if (!compiled->select(doc_of(*stored)).empty()) out.push_back(&stored->entry);
  }
  return out;
}

Result<const Entry&> XmlRegistry::find_service(std::string_view service_name) const {
  std::shared_lock lock(mu_);
  bump(c_finds_);
  const Entry* best = nullptr;
  for (RegistryIndex::DocId id : index_.service_postings(service_name)) {
    auto it = stored_.find(id);
    if (it == stored_.end() || !live(it->second)) continue;
    const Entry& entry = it->second.entry;
    if (entry.defs.find_service(service_name) == nullptr) continue;
    // Ascending-id iteration plus ">=" resolves registered_at ties to the
    // highest doc id, so the most recent registration wins even when two
    // land on the same clock tick.
    if (best == nullptr || entry.registered_at >= best->registered_at) {
      best = &entry;
    }
  }
  if (best == nullptr) {
    return err::not_found("registry: no service '" + std::string(service_name) + "'");
  }
  return *best;
}

std::vector<const Entry*> XmlRegistry::find_service_all(
    std::string_view service_name) const {
  std::shared_lock lock(mu_);
  bump(c_finds_);
  std::vector<const Entry*> out;
  for (RegistryIndex::DocId id : index_.service_postings(service_name)) {
    auto it = stored_.find(id);
    if (it == stored_.end() || !live(it->second)) continue;
    if (it->second.entry.defs.find_service(service_name) == nullptr) continue;
    out.push_back(&it->second.entry);
  }
  return out;
}

std::vector<const Entry*> XmlRegistry::entries_with_tmodel(
    std::string_view tmodel) const {
  std::shared_lock lock(mu_);
  bump(c_finds_);
  std::vector<const Entry*> out;
  for (RegistryIndex::DocId id : index_.tmodel_postings(tmodel)) {
    auto it = stored_.find(id);
    if (it == stored_.end() || !live(it->second)) continue;
    bool has_kind = false;
    for (const wsdl::Binding& binding : it->second.entry.defs.bindings) {
      if (wsdl::to_string(binding.kind) == tmodel) {
        has_kind = true;
        break;
      }
    }
    if (has_kind) out.push_back(&it->second.entry);
  }
  return out;
}

Result<const Entry&> XmlRegistry::find_key(std::string_view key) const {
  std::shared_lock lock(mu_);
  auto id = parse_key(key);
  auto it = id ? stored_.find(*id) : stored_.end();
  if (it == stored_.end() || !live(it->second)) {
    return err::not_found("registry: no entry '" + std::string(key) + "'");
  }
  return it->second.entry;
}

std::size_t XmlRegistry::expire() {
  std::unique_lock lock(mu_);
  bump(c_expire_ticks_);
  // The wheel yields exactly the due ids: an expiry tick over a table of
  // a million live leases does work proportional to how many expired.
  std::vector<loop::HierWheel<std::uint64_t>::Due> due;
  leases_.collect_due(clock_.now(), due);
  std::size_t dropped = 0;
  for (const auto& d : due) {
    auto it = stored_.find(d.payload);
    if (it == stored_.end()) continue;
    Stored& stored = it->second;
    if (stored.lease_timer != d.id) continue;  // a newer timer owns the lease
    stored.lease_timer = 0;
    if (live(stored)) {
      // Deadline moved without rearming (should not happen): re-arm.
      stored.lease_timer = leases_.add(
          clock_.now(), stored.entry.lease_expires - clock_.now(), it->first);
      continue;
    }
    purge_locked(it);
    ++dropped;
  }
  bump(c_expired_, dropped);
  update_gauges_locked();
  return dropped;
}

void XmlRegistry::bind_metrics(obs::MetricsRegistry& metrics) {
  std::unique_lock lock(mu_);
  c_adds_ = &metrics.counter("h2.reg.adds");
  c_removes_ = &metrics.counter("h2.reg.removes");
  c_renews_ = &metrics.counter("h2.reg.renews");
  c_expired_ = &metrics.counter("h2.reg.expired");
  c_expire_ticks_ = &metrics.counter("h2.reg.expire_ticks");
  c_finds_ = &metrics.counter("h2.reg.finds");
  c_queries_ = &metrics.counter("h2.reg.queries");
  c_index_hits_ = &metrics.counter("h2.reg.index.hits");
  c_index_scans_ = &metrics.counter("h2.reg.index.scans");
  g_entries_ = &metrics.gauge("h2.reg.entries");
  g_terms_ = &metrics.gauge("h2.reg.index.terms");
  g_postings_ = &metrics.gauge("h2.reg.index.postings");
  g_lease_timers_ = &metrics.gauge("h2.reg.lease.timers");
  update_gauges_locked();
}

RegistryIndex::Stats XmlRegistry::index_stats() const {
  std::shared_lock lock(mu_);
  return index_.stats();
}

std::uint64_t XmlRegistry::lease_cascades() const {
  std::shared_lock lock(mu_);
  return leases_.cascades();
}

const xml::Node& XmlRegistry::doc_of(const Stored& stored) const {
  std::call_once(stored.doc_once,
                 [&stored] { stored.doc = wsdl::to_xml(stored.entry.defs); });
  return *stored.doc;
}

std::vector<std::pair<std::uint64_t, const XmlRegistry::Stored*>>
XmlRegistry::live_in_order_locked() const {
  std::vector<std::pair<std::uint64_t, const Stored*>> out;
  out.reserve(stored_.size());
  for (const auto& [id, stored] : stored_) {
    if (live(stored)) out.emplace_back(id, &stored);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void XmlRegistry::purge_locked(Table::iterator it) {
  index_.remove(it->first);
  if (it->second.lease_timer != 0) leases_.cancel(it->second.lease_timer);
  stored_.erase(it);
}

void XmlRegistry::update_gauges_locked() {
  if (g_entries_ == nullptr) return;
  g_entries_->set(static_cast<std::int64_t>(stored_.size()));
  RegistryIndex::Stats stats = index_.stats();
  g_terms_->set(static_cast<std::int64_t>(stats.terms));
  g_postings_->set(static_cast<std::int64_t>(stats.postings));
  g_lease_timers_->set(static_cast<std::int64_t>(leases_.size()));
}

}  // namespace h2::reg
