// Unit tests of the registry's indexed surface: the new lookup APIs
// (find_key, find_service_all, entries_with_tmodel), the h2.reg.*
// metrics, index statistics, and the candidates() fast paths — the
// provably-empty short-circuit and the "//*" scan fallback. Two
// property tests close the file: RegistryIndex::candidates() against a
// std::set_intersection oracle over skewed posting lists, and the
// registration-order contract of every XmlRegistry listing, which the
// hashed entry table has to restore by sorting.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "registry/index.hpp"
#include "registry/xml_registry.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "wsdl/descriptor.hpp"
#include "xml/xpath.hpp"

namespace h2::reg {
namespace {

wsdl::Definitions make_service(const std::string& name, wsdl::BindingKind kind,
                               const std::string& address) {
  wsdl::ServiceDescriptor d;
  d.name = name;
  d.operations.push_back({"run", {}, ValueKind::kString});
  std::vector<wsdl::EndpointSpec> endpoints{{kind, address, {}}};
  auto defs = wsdl::generate(d, endpoints);
  EXPECT_TRUE(defs.ok());
  return *defs;
}

class RegistryIndexTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  XmlRegistry registry_{clock_};
  obs::MetricsRegistry metrics_;
};

TEST_F(RegistryIndexTest, FindKeyReturnsLiveEntriesOnly) {
  auto key = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"),
                           kMillisecond);
  ASSERT_TRUE(key.ok());
  auto found = registry_.find_key(*key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->key, *key);
  EXPECT_FALSE(registry_.find_key("reg-999").ok());
  EXPECT_FALSE(registry_.find_key("bogus").ok());

  clock_.advance(2 * kMillisecond);
  EXPECT_FALSE(registry_.find_key(*key).ok());  // expired, not yet purged
}

TEST_F(RegistryIndexTest, FindServiceAllReturnsRegistrationOrder) {
  auto k1 = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"));
  (void)registry_.add(make_service("Beta", wsdl::BindingKind::kSoap, "http://b:1/x"));
  auto k2 = registry_.add(make_service("Alpha", wsdl::BindingKind::kXdr, "xdr://a:2/x"));
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());

  auto all = registry_.find_service_all("AlphaService");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->key, *k1);
  EXPECT_EQ(all[1]->key, *k2);
  EXPECT_TRUE(registry_.find_service_all("Nope").empty());
}

TEST_F(RegistryIndexTest, EntriesWithTmodelFiltersByBindingKind) {
  auto soap = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"));
  auto xdr = registry_.add(make_service("Beta", wsdl::BindingKind::kXdr, "xdr://b:1/x"));
  ASSERT_TRUE(soap.ok());
  ASSERT_TRUE(xdr.ok());

  auto xdr_entries = registry_.entries_with_tmodel("xdr");
  ASSERT_EQ(xdr_entries.size(), 1u);
  EXPECT_EQ(xdr_entries[0]->key, *xdr);
  EXPECT_TRUE(registry_.entries_with_tmodel("carrier-pigeon").empty());

  ASSERT_TRUE(registry_.remove(*xdr).ok());
  EXPECT_TRUE(registry_.entries_with_tmodel("xdr").empty());
}

TEST_F(RegistryIndexTest, MetricsCountOperations) {
  registry_.bind_metrics(metrics_);
  auto key = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"));
  ASSERT_TRUE(key.ok());
  (void)registry_.add(make_service("Beta", wsdl::BindingKind::kXdr, "xdr://b:1/x"),
                      kMillisecond);
  (void)registry_.find_service("AlphaService");
  ASSERT_TRUE(registry_.query("//service").ok());
  ASSERT_TRUE(registry_.query("//*").ok());  // unindexable: scan path
  clock_.advance(kSecond);
  EXPECT_EQ(registry_.expire(), 1u);

  EXPECT_EQ(metrics_.counter_value("h2.reg.adds"), 2u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.finds"), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.queries"), 2u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.index.hits"), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.index.scans"), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.expired"), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.expire_ticks"), 1u);

  auto snapshot = metrics_.snapshot();
  std::int64_t entries = -1;
  std::int64_t timers = -1;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "h2.reg.entries") entries = g.value;
    if (g.name == "h2.reg.lease.timers") timers = g.value;
  }
  EXPECT_EQ(entries, 1);  // Beta expired and was purged
  EXPECT_EQ(timers, 0);   // its wheel slot went with it
}

TEST_F(RegistryIndexTest, ProvablyEmptyQuerySkipsDocumentWork) {
  registry_.bind_metrics(metrics_);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(registry_
                    .add(make_service("Svc" + std::to_string(i),
                                      wsdl::BindingKind::kSoap, "http://a:1/x"))
                    .ok());
  }
  // The value term never occurs in any document: the intersection proves
  // emptiness from the index alone — counted as a hit, never a scan.
  auto got = registry_.query("//address[@location='http://nowhere:1/x']");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(metrics_.counter_value("h2.reg.index.hits"), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.index.scans"), 0u);
}

TEST_F(RegistryIndexTest, IndexStatsTrackPostingsAndRemovals) {
  auto stats0 = registry_.index_stats();
  EXPECT_EQ(stats0.terms, 0u);
  EXPECT_EQ(stats0.postings, 0u);

  auto key = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"));
  ASSERT_TRUE(key.ok());
  auto stats1 = registry_.index_stats();
  EXPECT_GT(stats1.terms, 0u);
  EXPECT_GT(stats1.postings, 0u);

  ASSERT_TRUE(registry_.remove(*key).ok());
  auto stats2 = registry_.index_stats();
  EXPECT_EQ(stats2.postings, 0u);  // short lists erase eagerly
  EXPECT_EQ(stats2.dead, 0u);
}

TEST_F(RegistryIndexTest, RenewRearmsTheLeaseTimer) {
  registry_.bind_metrics(metrics_);
  auto key = registry_.add(make_service("Alpha", wsdl::BindingKind::kSoap, "http://a:1/x"),
                           10 * kMillisecond);
  ASSERT_TRUE(key.ok());
  clock_.advance(5 * kMillisecond);
  ASSERT_TRUE(registry_.renew(*key, 20 * kMillisecond).ok());
  clock_.advance(10 * kMillisecond);  // past the original deadline
  EXPECT_EQ(registry_.expire(), 0u);  // renewed: the old timer must not fire
  EXPECT_EQ(registry_.size(), 1u);
  clock_.advance(20 * kMillisecond);
  EXPECT_EQ(registry_.expire(), 1u);
  EXPECT_EQ(metrics_.counter_value("h2.reg.renews"), 1u);
}

// ---- candidates() against a set_intersection oracle ----------------------

/// Element names with skewed document frequencies: posting lists run
/// from every document down to a handful. "one" occurs in exactly one
/// document, "band" only in the lowest ids (it is removed early, so its
/// list compacts part way through the run), and "ghost" in none.
struct TermSpec {
  const char* name;
  double share;  ///< probability a document carries the element
};
const std::vector<TermSpec> kTerms = {
    {"d", 1.0},      {"t0", 0.9},     {"t1", 0.5},   {"t2", 0.2},
    {"t3", 0.05},    {"t4", 0.01},    {"t5", 0.002}, {"t6", 0.0005},
    {"t7", 0.0001},  {"one", 0.0},    {"band", 0.0},
};
constexpr RegistryIndex::DocId kDocs = 100000;
constexpr RegistryIndex::DocId kOneDoc = 54321;
constexpr RegistryIndex::DocId kBandEnd = 4000;  ///< "band" covers ids [1, kBandEnd]

class CandidateOracle {
 public:
  /// Builds doc `id` as <d><t..../></d> and indexes it on both sides.
  void add(RegistryIndex& index, RegistryIndex::DocId id, Rng& rng) {
    auto root = xml::Node::element("d");
    std::vector<std::size_t> has;
    for (std::size_t t = 0; t < kTerms.size(); ++t) {
      const std::string name = kTerms[t].name;
      bool carried = rng.next_bool(kTerms[t].share) ||
                     (name == "one" && id == kOneDoc) ||
                     (name == "band" && id <= kBandEnd);
      if (!carried) continue;
      has.push_back(t);
      if (t != 0) root->add_child(xml::Node::element(name));
    }
    index.add(id, wsdl::Definitions{}, *root);
    for (std::size_t t : has) ever_[t].push_back(id);
    if (live_.size() <= id) live_.resize(id + 1, false);
    live_[id] = true;
  }

  void remove(RegistryIndex& index, RegistryIndex::DocId id) {
    index.remove(id);
    live_[id] = false;
  }

  /// Checks one query of element terms `names` (unknown names allowed).
  void check(const RegistryIndex& index, const std::vector<std::string>& names,
             std::size_t* dead_seen) const {
    std::string xpath;
    for (const std::string& name : names) xpath += "//" + name;
    auto compiled = xml::XPath::compile(xpath);
    ASSERT_TRUE(compiled.ok()) << xpath;
    auto got = index.candidates(*compiled);
    ASSERT_TRUE(got.has_value()) << xpath;
    ASSERT_TRUE(std::is_sorted(got->begin(), got->end())) << xpath;
    ASSERT_EQ(std::adjacent_find(got->begin(), got->end()), got->end()) << xpath;

    // Oracle: intersect every document that ever carried each term.
    std::vector<RegistryIndex::DocId> want;
    bool first = true;
    for (const std::string& name : names) {
      auto it = std::find_if(kTerms.begin(), kTerms.end(),
                             [&](const TermSpec& t) { return name == t.name; });
      if (it == kTerms.end()) {
        want.clear();
        break;
      }
      const auto& list = ever_[static_cast<std::size_t>(it - kTerms.begin())];
      if (first) {
        want = list;
        first = false;
        continue;
      }
      std::vector<RegistryIndex::DocId> next;
      std::set_intersection(want.begin(), want.end(), list.begin(), list.end(),
                            std::back_inserter(next));
      want.swap(next);
    }
    if (want.empty()) {
      EXPECT_TRUE(got->empty()) << xpath;  // provably empty
      return;
    }
    // Removed ids may linger until their lists compact, so the answer
    // lies between the live part of the oracle and the whole of it.
    EXPECT_TRUE(std::includes(want.begin(), want.end(), got->begin(), got->end()))
        << xpath;
    std::vector<RegistryIndex::DocId> want_live, got_live;
    std::copy_if(want.begin(), want.end(), std::back_inserter(want_live),
                 [&](RegistryIndex::DocId id) { return live_[id]; });
    std::copy_if(got->begin(), got->end(), std::back_inserter(got_live),
                 [&](RegistryIndex::DocId id) { return live_[id]; });
    EXPECT_EQ(got_live, want_live) << xpath;
    *dead_seen += got->size() - got_live.size();
  }

 private:
  /// Per kTerms entry: every doc that carried it, ascending.
  std::vector<std::vector<RegistryIndex::DocId>> ever_ =
      std::vector<std::vector<RegistryIndex::DocId>>(kTerms.size());
  std::vector<bool> live_;  ///< by doc id
};

TEST(RegistryIndexCandidates, MatchesSetIntersectionOverSkewedLists) {
  Rng rng(2024);
  RegistryIndex index;
  CandidateOracle oracle;
  RegistryIndex::DocId next_id = 1;
  for (; next_id <= kDocs; ++next_id) oracle.add(index, next_id, rng);

  // Fixed cases first, then random conjunctions of one to four terms.
  const std::vector<std::vector<std::string>> fixed = {
      {"t7"},                     // single term, a short list
      {"d"},                      // single term, every document
      {"one"},                    // a list of one id
      {"d", "t0", "one"},         // one id against the two longest lists
      {"t6", "d", "t1"},          // short list sought in long ones
      {"t0", "t1"},               // two long lists: the seek degrades to a merge
      {"ghost"},                  // no list at all: provably empty
      {"d", "ghost", "t3"},       // ... anywhere in the conjunction
      {"band", "t2"},
  };
  auto check_all = [&](std::size_t* dead_seen) {
    for (const auto& names : fixed) {
      oracle.check(index, names, dead_seen);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (int q = 0; q < 40; ++q) {
      std::vector<std::string> names;
      const auto terms = 1 + rng.next_below(4);
      for (std::uint64_t k = 0; k < terms; ++k) {
        names.emplace_back(kTerms[rng.next_below(kTerms.size())].name);
      }
      oracle.check(index, names, dead_seen);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  std::size_t dead_seen = 0;
  check_all(&dead_seen);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(dead_seen, 0u);
  EXPECT_EQ(index.stats().compactions, 0u);

  // Rounds of removals (the next slice of "band" plus random documents)
  // and fresh documents, re-checked after each: long lists keep their
  // removed ids pending, and "band" crosses its compaction threshold
  // part way through.
  bool checked_pending = false;
  std::uint64_t compactions_mid = 0;
  for (int round = 0; round < 5; ++round) {
    const RegistryIndex::DocId band_from = round * 800 + 1;
    for (RegistryIndex::DocId id = band_from; id < band_from + 800; ++id) {
      oracle.remove(index, id);
    }
    for (int i = 0; i < 2000; ++i) {
      oracle.remove(index, 1 + rng.next_below(next_id - 1));  // may repeat: a no-op
    }
    for (int i = 0; i < 500; ++i, ++next_id) oracle.add(index, next_id, rng);

    std::size_t round_dead = 0;
    check_all(&round_dead);
    ASSERT_FALSE(HasFatalFailure()) << "round " << round;
    if (round_dead > 0 && index.stats().dead > 0) checked_pending = true;
    if (round == 1) compactions_mid = index.stats().compactions;
  }
  EXPECT_TRUE(checked_pending);  // answers held removed ids awaiting compaction
  EXPECT_EQ(compactions_mid, 0u);
  EXPECT_GT(index.stats().compactions, 0u);  // "band" compacted mid-sequence

  // Removing every carrier leaves an empty list behind: still empty.
  oracle.remove(index, kOneDoc);
  std::size_t unused = 0;
  oracle.check(index, {"one"}, &unused);
  oracle.check(index, {"t0", "one"}, &unused);
}

// ---- registration order over the hashed entry table -----------------------

std::uint64_t id_of(const Entry* entry) {
  auto id = str::parse_u64(std::string_view(entry->key).substr(4));  // "reg-<id>"
  EXPECT_TRUE(id.ok()) << entry->key;
  return id.ok() ? *id : 0;
}

std::vector<std::uint64_t> ids_of(const std::vector<const Entry*>& entries) {
  std::vector<std::uint64_t> out;
  for (const Entry* entry : entries) out.push_back(id_of(entry));
  return out;
}

TEST(RegistryOrder, ListingsKeepRegistrationOrderThroughChurn) {
  VirtualClock clock;
  XmlRegistry registry(clock);
  Rng rng(77);
  const std::vector<wsdl::BindingKind> kinds = {wsdl::BindingKind::kSoap,
                                                wsdl::BindingKind::kXdr};
  // Model: live id -> service name index and binding kind index.
  std::map<std::uint64_t, std::pair<int, int>> model;
  std::map<std::uint64_t, Nanos> expires;  // leased entries only
  std::vector<wsdl::Definitions> defs;
  for (int name = 0; name < 24; ++name) {
    for (int kind = 0; kind < 2; ++kind) {
      defs.push_back(make_service("Svc" + std::to_string(name), kinds[kind],
                                  "http://h:1/" + std::to_string(name)));
    }
  }
  auto expire_model = [&] {
    for (auto it = expires.begin(); it != expires.end();) {
      if (it->second <= clock.now()) {
        model.erase(it->first);
        it = expires.erase(it);
      } else {
        ++it;
      }
    }
  };

  std::uint64_t adds = 0;
  while (adds < 12000) {
    const auto op = rng.next_below(100);
    if (op < 70 || model.empty()) {
      const int name = static_cast<int>(rng.next_below(24));
      const int kind = static_cast<int>(rng.next_below(2));
      const Nanos lease = rng.next_bool(0.5) ? 0 : (1 + rng.next_range(1, 50)) * kMillisecond;
      auto key = registry.add(defs[name * 2 + kind], lease);
      ASSERT_TRUE(key.ok());
      ++adds;
      const std::uint64_t id = adds;
      ASSERT_EQ(*key, "reg-" + std::to_string(id));
      model[id] = {name, kind};
      if (lease > 0) expires[id] = clock.now() + lease;
    } else {
      // Pick a live model entry by a random id at or above a draw.
      auto it = model.lower_bound(1 + rng.next_below(adds));
      if (it == model.end()) it = model.begin();
      const std::uint64_t id = it->first;
      const std::string key = "reg-" + std::to_string(id);
      if (op < 85) {
        ASSERT_TRUE(registry.remove(key).ok());
        model.erase(it);
        expires.erase(id);
      } else if (op < 95) {
        const Nanos extension = rng.next_range(1, 50) * kMillisecond;
        ASSERT_TRUE(registry.renew(key, extension).ok());
        expires[id] = clock.now() + extension;
      } else {
        clock.advance(rng.next_range(1, 5) * kMillisecond);
        registry.expire();
        expire_model();
      }
    }
  }
  clock.advance(kMillisecond);  // some leases lapse unpurged: listings skip them
  expire_model();
  ASSERT_GT(model.size(), 1000u);

  std::vector<std::uint64_t> live_ids;
  for (const auto& [id, rec] : model) live_ids.push_back(id);

  auto entries = registry.entries();
  EXPECT_EQ(ids_of(entries), live_ids);
  EXPECT_EQ(registry.size(), entries.size());

  auto scanned = registry.query("//*");  // no indexable term: the scan path
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(ids_of(*scanned), live_ids);

  for (int name : {0, 7, 23}) {
    const std::string service = "Svc" + std::to_string(name) + "Service";
    std::vector<std::uint64_t> want;
    for (const auto& [id, rec] : model) {
      if (rec.first == name) want.push_back(id);
    }
    EXPECT_EQ(ids_of(registry.find_service_all(service)), want) << service;
  }
  for (int kind = 0; kind < 2; ++kind) {
    const std::string tmodel(wsdl::to_string(kinds[kind]));
    std::vector<std::uint64_t> want;
    for (const auto& [id, rec] : model) {
      if (rec.second == kind) want.push_back(id);
    }
    EXPECT_EQ(ids_of(registry.entries_with_tmodel(tmodel)), want) << tmodel;
  }

  // Three registrations of one name on one clock tick: the highest id wins.
  std::string last;
  for (int i = 0; i < 3; ++i) {
    auto key = registry.add(defs[2 * 5 + (i % 2)]);
    ASSERT_TRUE(key.ok());
    last = *key;
  }
  auto found = registry.find_service("Svc5Service");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->key, last);
}

}  // namespace
}  // namespace h2::reg
