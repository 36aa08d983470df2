// EXP-REG: the indexed registry's scaling claims made measurable.
//
// The inverted index turns find_service and value-term XPath queries
// from O(entries) document walks into posting-list intersections, so
// per-call lookup cost must stay near-flat as the registry grows from
// 10k to 1M entries while the linear-scan baseline grows linearly
// (>= 100x apart at 1M). The lease timer-wheel makes an expiry tick
// O(expired): the same 1000-lease batch must cost about the same to
// expire whether 10k or 1M live leases are parked around it. One tick is
// one noisy sample, so each row times several and reports the median.
//
// Standalone binary (not google-benchmark): each row needs one giant
// registry built once and then probed by several differently-shaped
// measurements (indexed finds, scan baselines, a timed expiry tick),
// which the library's per-benchmark fixture model fits poorly. Registry
// time is a VirtualClock (leases expire on command); measurement time is
// the wall clock. Hand-rolled JSON schema, diffable across commits.
//
// Usage: bench_registry [--quick] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "registry/xml_registry.hpp"
#include "util/rng.hpp"
#include "wsdl/descriptor.hpp"

namespace {

using namespace h2;

constexpr Nanos kBaseLease = 3600 * kSecond;  ///< far-future: parks in the wheel
constexpr std::size_t kExpireBatch = 1000;    ///< short leases per expiry tick
constexpr std::size_t kExpireTicks = 9;       ///< timed expiry ticks per row
constexpr std::size_t kDupsPerName = 16;      ///< entries sharing each service name
#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

wsdl::Definitions make_defs(const std::string& name) {
  wsdl::ServiceDescriptor d;
  d.name = name;
  d.operations.push_back({"run", {}, ValueKind::kString});
  std::vector<wsdl::EndpointSpec> endpoints{
      {wsdl::BindingKind::kSoap, "http://host:80/" + name, {}}};
  auto defs = wsdl::generate(d, endpoints);
  if (!defs.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", defs.error().describe().c_str());
    std::exit(1);
  }
  return *defs;
}

struct Row {
  std::size_t entries = 0;
  double publish_us_per_entry = 0;
  double indexed_find_us = 0;  ///< per find_service call
  double scan_find_us = 0;     ///< per linear-scan baseline call
  double find_speedup = 0;     ///< scan / indexed
  double indexed_query_us = 0; ///< per value-term XPath query
  std::size_t expired = 0;          ///< leases each tick expired
  std::size_t expire_ticks = 0;     ///< timed ticks behind the median
  double expire_tick_us = 0;        ///< median expire() with `expired` due
  double expire_us_per_expired = 0; ///< tick / expired — must stay flat
  std::size_t index_terms = 0;
  std::size_t index_postings = 0;
  bool parity = true;  ///< indexed and scan picked the same winners
};

/// The pre-index semantics, reproduced in-bench: walk every live entry,
/// match on the embedded service name, keep the most recent registration.
const reg::Entry* scan_find(const std::vector<const reg::Entry*>& live,
                            const std::string& name) {
  const reg::Entry* best = nullptr;
  for (const reg::Entry* e : live) {
    if (e->defs.find_service(name) == nullptr) continue;
    if (best == nullptr || e->registered_at >= best->registered_at) best = e;
  }
  return best;
}

Row measure(std::size_t n) {
  Row row;
  row.entries = n;
  VirtualClock clock;
  reg::XmlRegistry registry(clock);

  const std::size_t names = std::max<std::size_t>(1, n / kDupsPerName);
  std::vector<wsdl::Definitions> pool;
  pool.reserve(names);
  for (std::size_t i = 0; i < names; ++i) {
    pool.push_back(make_defs("Svc" + std::to_string(i)));
  }

  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (!registry.add(pool[i % names], kBaseLease).ok()) std::exit(1);
    // Distinct registration stamps keep the most-recent-wins tie-break
    // meaningful across duplicates of one name.
    if (i % names == names - 1) clock.advance(kMillisecond);
  }
  row.publish_us_per_entry = us_since(start) / static_cast<double>(n);
  auto stats = registry.index_stats();
  row.index_terms = stats.terms;
  row.index_postings = stats.postings;

  Rng rng(42);
  // Indexed finds: posting-list walks, O(duplicates-of-name) per call.
  const std::size_t finds = 2000;
  start = std::chrono::steady_clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < finds; ++i) {
    std::string name = "Svc" + std::to_string(rng.next_below(names)) + "Service";
    if (registry.find_service(name).ok()) ++hits;
  }
  row.indexed_find_us = us_since(start) / static_cast<double>(finds);
  if (hits != finds) row.parity = false;

  // Scan baseline: the same lookups as full walks over entries(). Few
  // calls at the big sizes — each one is O(n) by construction.
  const std::size_t scans = n >= 1'000'000 ? 20 : 200;
  auto live = registry.entries();
  Rng scan_rng(42);
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < scans; ++i) {
    std::string name =
        "Svc" + std::to_string(scan_rng.next_below(names)) + "Service";
    const reg::Entry* winner = scan_find(live, name);
    auto indexed = registry.find_service(name);
    if (winner == nullptr || !indexed.ok() || winner->key != indexed->key) {
      row.parity = false;
    }
  }
  // The parity re-check rides inside the timed region but costs one
  // indexed find (~row.indexed_find_us) per O(n) scan — noise at scale.
  row.scan_find_us = us_since(start) / static_cast<double>(scans);
  row.find_speedup =
      row.indexed_find_us > 0 ? row.scan_find_us / row.indexed_find_us : 0;

  // Indexed value-term query: term intersection + per-candidate verify.
  const std::size_t queries = 500;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    std::string name = "Svc" + std::to_string(rng.next_below(names)) + "Service";
    auto got = registry.query("//service[@name='" + name + "']");
    if (!got.ok() || got->empty()) row.parity = false;
  }
  row.indexed_query_us = us_since(start) / static_cast<double>(queries);

  // Expiry ticks: park a fixed batch of short leases among the n live
  // far-future ones, advance past only the batch, and time the tick that
  // expires it; every tick must expire exactly the batch. O(expired) means
  // the median stays flat from 10k to 1M live leases.
  std::vector<double> ticks;
  for (std::size_t tick = 0; tick < kExpireTicks; ++tick) {
    for (std::size_t i = 0; i < kExpireBatch; ++i) {
      if (!registry.add(pool[i % names], kMillisecond).ok()) std::exit(1);
    }
    clock.advance(2 * kMillisecond);
    start = std::chrono::steady_clock::now();
    row.expired = registry.expire();
    ticks.push_back(us_since(start));
    if (row.expired != kExpireBatch) row.parity = false;
  }
  std::nth_element(ticks.begin(), ticks.begin() + kExpireTicks / 2, ticks.end());
  row.expire_ticks = kExpireTicks;
  row.expire_tick_us = ticks[kExpireTicks / 2];
  row.expire_us_per_expired =
      row.expired > 0 ? row.expire_tick_us / static_cast<double>(row.expired) : 0;
  return row;
}

/// The "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    auto colon = line.find(": ");
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"registry\",\n");
  std::fprintf(f,
               "  \"machine\": {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
               "\"compiler\": \"%s\"},\n",
               std::thread::hardware_concurrency(), cpu_model().c_str(), H2_BUILD_TYPE,
               kCompiler);
  std::fprintf(f,
               "  \"config\": {\"dups_per_name\": %zu, \"expire_batch\": %zu, "
               "\"base_lease_s\": %lld},\n",
               kDupsPerName, kExpireBatch,
               static_cast<long long>(kBaseLease / kSecond));
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"entries\": %zu, \"publish_us_per_entry\": %.3f, "
        "\"indexed_find_us\": %.3f, \"scan_find_us\": %.1f, "
        "\"find_speedup\": %.1f, \"indexed_query_us\": %.3f, "
        "\"expired\": %zu, \"expire_ticks\": %zu, \"expire_tick_us\": %.1f, "
        "\"expire_us_per_expired\": %.3f, \"index_terms\": %zu, "
        "\"index_postings\": %zu, \"parity\": %s}%s\n",
        r.entries, r.publish_us_per_entry, r.indexed_find_us, r.scan_find_us,
        r.find_speedup, r.indexed_query_us, r.expired, r.expire_ticks, r.expire_tick_us,
        r.expire_us_per_expired, r.index_terms, r.index_postings,
        r.parity ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* out = "BENCH_registry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_registry [--quick] [--out FILE]\n");
      return 2;
    }
  }

  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    Row row = measure(n);
    rows.push_back(row);
    std::printf(
        "N=%-8zu publish %6.2f us/entry   find %7.3f us indexed vs %10.1f us "
        "scan (%.0fx)   query %7.3f us   expire %zu in %8.1f us "
        "(%.3f us/expired, median of %zu)%s\n",
        row.entries, row.publish_us_per_entry, row.indexed_find_us,
        row.scan_find_us, row.find_speedup, row.indexed_query_us, row.expired,
        row.expire_tick_us, row.expire_us_per_expired, row.expire_ticks,
        row.parity ? "" : "   PARITY FAILURE");
  }

  write_json(out, rows);
  std::printf("wrote %s\n", out);

  int failures = 0;
  for (const Row& r : rows) {
    if (!r.parity) {
      std::fprintf(stderr, "FAIL: indexed/scan parity broke at N=%zu\n", r.entries);
      ++failures;
    }
    if (r.entries >= 1'000'000 && r.find_speedup < 100) {
      std::fprintf(stderr, "FAIL: find_speedup %.1fx < 100x at N=%zu\n",
                   r.find_speedup, r.entries);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
