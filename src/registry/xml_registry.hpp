// The Harness II registry/lookup framework: stores WSDL documents and
// answers queries "for specific nodes and values" of their XML form —
// the paper's deployment plan item (1), verbatim. Designed for volatile
// components: every registration can carry a lease, and expired leases
// are purged, which is exactly what business registries like UDDI lacked
// ("biased towards storing persistent information about long-lived
// services rather than volatile information related to fluid components").
//
// Built for millions of entries (DESIGN.md §15):
//   - an inverted index (registry/index.hpp) turns find_service, the
//     UDDI facade lookups and XPath-lite queries into posting-list
//     intersections instead of full-document walks;
//   - leases hang on a hierarchical timer wheel (loop/hier_wheel.hpp),
//     so an expiry tick costs O(expired), not O(all leases);
//   - reads take a shared lock and publishes an exclusive one, so finds
//     never serialize behind other finds.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "loop/hier_wheel.hpp"
#include "registry/index.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "wsdl/model.hpp"
#include "xml/dom.hpp"

namespace h2::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace h2::obs

namespace h2::reg {

/// One stored registration.
struct Entry {
  std::string key;           ///< registration key (returned by register_service)
  wsdl::Definitions defs;    ///< parsed document
  Nanos registered_at = 0;
  Nanos lease_expires = 0;   ///< 0 = permanent
};

class XmlRegistry {
 public:
  /// `clock` is borrowed and must outlive the registry (virtual time in
  /// simulations, wall time otherwise).
  explicit XmlRegistry(const Clock& clock);

  /// Validates and stores a document. `lease` of 0 means permanent;
  /// otherwise the entry expires `lease` ns from now. Returns the key.
  Result<std::string> add(const wsdl::Definitions& defs, Nanos lease = 0);

  /// Extends an existing lease by `extension` ns from *now*.
  Status renew(std::string_view key, Nanos extension);

  Status remove(std::string_view key);

  /// All live (non-expired) entries, in registration order.
  std::vector<const Entry*> entries() const;
  std::size_t size() const;

  /// Entries whose WSDL XML matches `xpath` (at least one node selected).
  /// This is the generic query the framework maps onto commercial
  /// registries: e.g. "//binding/binding[@kind='xdr']" finds every
  /// service reachable over the XDR binding. Served from the inverted
  /// index when the query has required terms; the compiled XPath then
  /// runs only on the candidate documents.
  Result<std::vector<const Entry*>> query(std::string_view xpath) const;

  /// Convenience: entry whose <service name="..."> matches. Most recent
  /// registration wins if several documents define the same service.
  /// Success means the entry exists; the reference is valid until the
  /// entry is removed or expires.
  Result<const Entry&> find_service(std::string_view service_name) const;

  /// Every live entry defining <service name="...">, registration order
  /// — the UDDI find_service row source.
  std::vector<const Entry*> find_service_all(std::string_view service_name) const;

  /// Every live entry carrying a binding of kind `tmodel` ("soap",
  /// "xdr", ...), registration order — the UDDI find_by_tmodel source.
  std::vector<const Entry*> entries_with_tmodel(std::string_view tmodel) const;

  /// Live entry by registration key; one hash lookup.
  Result<const Entry&> find_key(std::string_view key) const;

  /// Purges expired leases; returns how many were dropped. Work is
  /// proportional to the number of entries actually expired (the lease
  /// wheel yields exactly the due ids), not to the table size.
  std::size_t expire();

  /// Binds h2.reg.* counters/gauges; `metrics` must outlive the
  /// registry. Safe to call once at setup (RegistryNode does).
  void bind_metrics(obs::MetricsRegistry& metrics);

  /// Index internals for tests and the bench (terms, postings, pending
  /// dead, compactions).
  RegistryIndex::Stats index_stats() const;
  /// Lease-wheel cascade count (observability; see HierWheel).
  std::uint64_t lease_cascades() const;

 private:
  struct Stored {
    Entry entry;
    /// XML form, built on first query need; call_once makes the lazy
    /// build safe under the shared (read) lock. The registry only ever
    /// needs the DOM for XPath candidates, so a million registrations
    /// that are found by name never pay for a million cached trees.
    mutable std::unique_ptr<xml::Node> doc;
    mutable std::once_flag doc_once;
    loop::TimerId lease_timer = 0;  ///< 0 = permanent (no wheel entry)
  };

  bool live(const Stored& stored) const {
    return stored.entry.lease_expires == 0 ||
           stored.entry.lease_expires > clock_.now();
  }

  /// Doc id -> entry. Hashed, so it has no order: whatever promises
  /// registration order sorts ids (ids grow with each add). Nodes never
  /// move, which Stored (not movable) relies on.
  using Table = std::unordered_map<std::uint64_t, Stored>;

  const xml::Node& doc_of(const Stored& stored) const;
  /// Live entries, ascending doc id (= registration order).
  std::vector<std::pair<std::uint64_t, const Stored*>> live_in_order_locked() const;
  void purge_locked(Table::iterator it);
  void update_gauges_locked();

  const Clock& clock_;
  mutable std::shared_mutex mu_;
  Table stored_;
  RegistryIndex index_;
  loop::HierWheel<std::uint64_t> leases_;   ///< payload: doc id
  std::uint64_t next_key_ = 1;

  obs::Counter* c_adds_ = nullptr;
  obs::Counter* c_removes_ = nullptr;
  obs::Counter* c_renews_ = nullptr;
  obs::Counter* c_expired_ = nullptr;
  obs::Counter* c_expire_ticks_ = nullptr;
  obs::Counter* c_finds_ = nullptr;
  obs::Counter* c_queries_ = nullptr;
  obs::Counter* c_index_hits_ = nullptr;
  obs::Counter* c_index_scans_ = nullptr;
  obs::Gauge* g_entries_ = nullptr;
  obs::Gauge* g_terms_ = nullptr;
  obs::Gauge* g_postings_ = nullptr;
  obs::Gauge* g_lease_timers_ = nullptr;
};

}  // namespace h2::reg
