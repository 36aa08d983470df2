// registry-churn: an in-process XmlRegistry on a VirtualClock, no
// transport. Set-up publishes every entry from WSDL text (wsdl::parse +
// XmlRegistry::add), several times over; the last registry then serves a
// seeded, fixed-count mix of
//
//   reads   find_service over Zipf-skewed service names, and a minority of
//           XPath query calls over the same names
//   writes  republish (parse + add + remove of the name's oldest entry),
//           renew of a live lease, and expiry ticks that advance the clock
//
// Every answer is checked against the benchmark's own model of the live
// entries: find_service must return the most recent live registration of
// the name, query the exact live key set, expire() the exact count due.
#include <algorithm>
#include <cmath>
#include <queue>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "registry/xml_registry.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "wsdl/descriptor.hpp"
#include "wsdl/io.hpp"

namespace h2bench {
namespace {

using namespace h2;

// The traffic below is an assumption, not a recorded registry trace (no
// public one was at hand). Each constant is chosen for the metric it has
// to drive:
//
//   - find_service 72%: ops sorted by latency run roughly renew and
//     expiry ticks, then finds, then republish and query; at 72% the finds
//     fill about the 8th to 80th percentiles, so latency_p50_us is a find.
//   - query 8% + republish 12%: the slow 20% of ops, so latency_p90_us
//     sits inside them and moves with either path (p90_query_share says
//     how much is query). Republish at 12% gives write_p50_us ~2.5k
//     samples per block at --seconds 15 and about a third of the op time,
//     so a write-path change shows in throughput and CPU per op too.
//   - renew 7%, expiry tick 1%: the lease path, sized so that about 5% of
//     the leases lapse over the phase (see sizes_for) and the live set,
//     hence the cost of a find, stays within a few percent of its size.
//   - 80% reads: read-mostly as a lookup service is, but with more writes
//     than YCSB's read-mostly workload B (95/5) so write costs weigh in.
//   - Zipf exponent 0.9: between the web-request skew Breslau et al.
//     measured (0.64-0.83, INFOCOM 1999) and YCSB's default (0.99). With
//     8% queries it gives a DOM hit ratio of about 0.75 (dom_hit_ratio).
//   - 16 registrations per name: as in bench/bench_registry.
constexpr std::size_t kEntries = 100000;  ///< published in set-up
constexpr std::size_t kDupsPerName = 16;  ///< registrations sharing a service name
constexpr int kSetupRepeats = 3;
constexpr double kZipfExponent = 0.9;
constexpr Nanos kTick = kSecond;          ///< virtual time per expiry tick
// Lease deadlines sit half a millisecond off the tick grid, so "due" never
// depends on how the lease wheel rounds a deadline that equals now.
constexpr Nanos kLeaseOffset = kMillisecond / 2;

enum class Op : std::uint8_t { kFind, kQuery, kRepublish, kRenew, kExpire };

/// Op mix in per-mille: 80% reads, 20% writes (reasons above).
Op draw_op(Rng& rng) {
  const std::uint64_t r = rng.next_below(1000);
  if (r < 720) return Op::kFind;
  if (r < 800) return Op::kQuery;
  if (r < 920) return Op::kRepublish;
  if (r < 990) return Op::kRenew;
  return Op::kExpire;
}

/// WSDL text per service name: one generated document with a marker name,
/// split at the marker so each entry's text is a cheap join. The names and
/// the query of each are made once, so ops allocate nothing for them.
class WsdlText {
 public:
  explicit WsdlText(std::size_t names) {
    for (std::size_t i = 0; i < names; ++i) {
      base_.push_back("Svc" + std::to_string(i));
      service_.push_back(base_.back() + "Service");
      query_.push_back("//service[@name='" + service_.back() + "']");
    }
    wsdl::ServiceDescriptor d;
    d.name = kMarker;
    d.operations.push_back({"run", {}, ValueKind::kString});
    std::vector<wsdl::EndpointSpec> endpoints{
        {wsdl::BindingKind::kSoap, std::string("http://host:80/") + kMarker, {}},
        {wsdl::BindingKind::kXdr, std::string("xdr://host:9001/") + kMarker, {}}};
    auto defs = wsdl::generate(d, endpoints);
    if (!defs.ok()) die("wsdl generate: " + defs.error().describe());
    const std::string text = wsdl::to_xml_string(*defs);
    std::size_t from = 0;
    for (std::size_t at; (at = text.find(kMarker, from)) != std::string::npos;) {
      pieces_.push_back(text.substr(from, at - from));
      from = at + std::string_view(kMarker).size();
    }
    pieces_.push_back(text.substr(from));
  }

  void render(std::size_t name, std::string& out) const {
    out = pieces_[0];
    for (std::size_t i = 1; i < pieces_.size(); ++i) out.append(base_[name]).append(pieces_[i]);
  }

  const std::string& service_name(std::size_t name) const { return service_[name]; }
  /// XPath selecting the service element of every registration of `name`.
  const std::string& query_of(std::size_t name) const { return query_[name]; }

 private:
  static constexpr const char* kMarker = "ZzMarkerZz";
  std::vector<std::string> pieces_;
  std::vector<std::string> base_, service_, query_;
};

/// The benchmark's own account of what the registry must contain.
class Model {
 public:
  struct Rec {
    std::string key;
    std::uint32_t name;
    Nanos expires;
    bool alive;
    bool has_dom;  ///< a query has visited it, so the registry built its DOM
  };

  explicit Model(std::size_t names) : by_name_(names) {}

  void published(std::string key, std::uint32_t name, Nanos expires) {
    const auto idx = static_cast<std::uint32_t>(recs_.size());
    recs_.push_back(Rec{std::move(key), name, expires, true, false});
    by_name_[name].push_back(idx);
    live_pos_.push_back(live_.size());
    live_.push_back(idx);
    due_.push({expires, idx});
    digest(recs_.back().key, 'p');
  }

  void removed(std::uint32_t idx) {
    kill(idx);
    digest(recs_[idx].key, 'r');
  }

  void renewed(std::uint32_t idx, Nanos expires) {
    recs_[idx].expires = expires;
    due_.push({expires, idx});
  }

  /// Records the leases due at `now`; returns how many expire.
  std::size_t expire_due(Nanos now) {
    std::size_t n = 0;
    while (!due_.empty() && due_.top().first <= now) {
      const auto [when, idx] = due_.top();
      due_.pop();
      if (!recs_[idx].alive || recs_[idx].expires != when) continue;  // stale
      kill(idx);
      digest(recs_[idx].key, 'x');
      ++n;
    }
    return n;
  }

  /// Live registrations of `name`, oldest first.
  const std::vector<std::uint32_t>& live_of(std::uint32_t name) const {
    return by_name_[name];
  }

  /// A query for `name` visits every live registration of it as an index
  /// candidate; the registry builds a candidate's DOM on its first visit
  /// and keeps it. Counts the visits and the DOMs they build.
  void queried(std::uint32_t name) {
    for (std::uint32_t idx : by_name_[name]) {
      ++dom_visits_;
      if (!recs_[idx].has_dom) {
        recs_[idx].has_dom = true;
        ++doms_built_;
      }
    }
  }
  std::uint64_t dom_visits() const { return dom_visits_; }
  std::uint64_t doms_built() const { return doms_built_; }

  std::uint32_t random_live(Rng& rng) const {
    return live_[rng.next_below(live_.size())];
  }

  const Rec& rec(std::uint32_t idx) const { return recs_[idx]; }
  std::size_t live_count() const { return live_.size(); }
  std::uint64_t digest() const { return digest_; }

 private:
  void kill(std::uint32_t idx) {
    recs_[idx].alive = false;
    std::vector<std::uint32_t>& named = by_name_[recs_[idx].name];
    named.erase(std::find(named.begin(), named.end(), idx));
    const std::size_t pos = live_pos_[idx];
    live_[pos] = live_.back();
    live_pos_[live_[pos]] = pos;
    live_.pop_back();
  }

  /// FNV-1a over the published / removed / expired key sequence.
  void digest(const std::string& key, char what) {
    auto mix = [this](unsigned char c) { digest_ = (digest_ ^ c) * 1099511628211ull; };
    mix(static_cast<unsigned char>(what));
    for (char c : key) mix(static_cast<unsigned char>(c));
  }

  std::vector<Rec> recs_;
  std::vector<std::vector<std::uint32_t>> by_name_;  ///< live only, oldest first
  std::vector<std::uint32_t> live_;
  std::vector<std::size_t> live_pos_;  ///< by rec index; valid while alive
  using Due = std::pair<Nanos, std::uint32_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
  std::uint64_t digest_ = 14695981039346656037ull;
  std::uint64_t dom_visits_ = 0;
  std::uint64_t doms_built_ = 0;
};

/// Zipf sampler over service names, with the popularity ranks shuffled by
/// the seed so different seeds make different names hot.
class Zipf {
 public:
  Zipf(std::size_t n, Rng& rng) : cdf_(n), rank_to_name_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (std::size_t i = 0; i < n; ++i) rank_to_name_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(rank_to_name_[i - 1], rank_to_name_[rng.next_below(i)]);
    }
  }

  std::uint32_t draw(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return rank_to_name_[std::min(rank, rank_to_name_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> rank_to_name_;
};

struct Sizes {
  std::size_t entries;
  std::size_t names;
  std::size_t ops;
  Nanos lease_min;   ///< leases are drawn from [lease_min, lease_min + lease_span)
  Nanos lease_span;
};

Sizes sizes_for(const Options& opt) {
  Sizes s{};
  s.entries = std::max<std::size_t>(kDupsPerName * 8,
                                    static_cast<std::size_t>(kEntries * opt.scale));
  s.names = s.entries / kDupsPerName;
  s.ops = op_budget(opt, 14000.0);
  // About 5% of the leases run out over the expiry ticks of the timed
  // phase (1% of ops); renewals and republishes keep the rest alive.
  const auto ticks = static_cast<Nanos>(s.ops / 100 + 1);
  s.lease_min = ticks * kTick / 2;
  s.lease_span = 20 * ticks * kTick;
  return s;
}

Nanos draw_lease(const Sizes& s, Rng& rng) {
  const auto whole = static_cast<std::uint64_t>(s.lease_span / kTick);
  return s.lease_min + static_cast<Nanos>(rng.next_below(whole)) * kTick + kLeaseOffset;
}

/// A populated registry with the clock, metrics and model it runs with.
struct World {
  VirtualClock clock;
  obs::MetricsRegistry metrics;
  reg::XmlRegistry registry{clock};
  Model model;
  double setup_s = 0;

  explicit World(std::size_t names) : model(names) { registry.bind_metrics(metrics); }
};

/// Publishes every entry from WSDL text; the timed part is parse + add.
std::unique_ptr<World> populate(const Sizes& s, const WsdlText& wsdl, std::uint64_t seed) {
  auto world = std::make_unique<World>(s.names);
  Rng rng(seed ^ 0x5eedf00dull);
  std::string text;
  std::int64_t spent = 0;
  for (std::size_t i = 0; i < s.entries; ++i) {
    const auto name = static_cast<std::uint32_t>(i % s.names);
    wsdl.render(name, text);
    const Nanos lease = draw_lease(s, rng);
    const std::int64_t start = now_ns();
    auto defs = wsdl::parse(text);
    if (!defs.ok()) die("set-up parse: " + defs.error().describe());
    auto key = world->registry.add(*defs, lease);
    spent += now_ns() - start;
    if (!key.ok()) die("set-up add: " + key.error().describe());
    world->model.published(std::move(*key), name, world->clock.now() + lease);
  }
  world->setup_s = static_cast<double>(spent) / 1e9;
  return world;
}

/// Per-step timings of the traced run, one sample set per public call,
/// plus each op's latency minus its timed calls.
struct StepTimes {
  Samples parse, add, remove, renew, expire_per, find, query, residual;
};

struct Phase {
  explicit Phase(std::size_t ops) : timed(ops) {
    writes.reserve(ops);
    kinds.assign(ops, Op::kFind);
  }
  TimedPhase timed;
  Samples writes;          ///< republish latency
  std::vector<Op> kinds;   ///< each op's kind, in op order
  std::uint64_t failed = 0;
  std::uint64_t counts[5] = {};  ///< ops per kind
};

/// Runs the seeded op mix against `w` into `phase`. With `steps`, each
/// public call inside an op is also timed on its own.
void run_ops(World& w, const Sizes& s, const WsdlText& wsdl, std::uint64_t seed, Phase& phase,
             StepTimes* steps) {
  Rng rng(seed);
  const Zipf zipf(s.names, rng);
  const std::size_t n = phase.timed.ops();
  std::string text;
  std::int64_t stepped = 0;  // time inside this op's timed calls
  auto step = [steps, &stepped](Samples StepTimes::*into, auto&& fn) {
    if (steps == nullptr) return fn();
    const std::int64_t start = now_ns();
    auto result = fn();
    const std::int64_t took = now_ns() - start;
    (steps->*into).add(took);
    stepped += took;
    return result;
  };

  phase.timed.start();
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = draw_op(rng);
    phase.kinds[i] = op;
    ++phase.counts[static_cast<int>(op)];
    bool ok = true;
    std::int64_t start = 0;
    stepped = 0;
    switch (op) {
      case Op::kFind: {
        std::uint32_t name = zipf.draw(rng);
        while (w.model.live_of(name).empty()) name = zipf.draw(rng);
        const std::string& want = w.model.rec(w.model.live_of(name).back()).key;
        const std::string& svc = wsdl.service_name(name);
        start = now_ns();
        auto got = step(&StepTimes::find, [&] { return w.registry.find_service(svc); });
        ok = got.ok() && got->key == want;
        break;
      }
      case Op::kQuery: {
        const std::uint32_t name = zipf.draw(rng);
        const std::vector<std::uint32_t>& live = w.model.live_of(name);
        const std::string& xpath = wsdl.query_of(name);
        start = now_ns();
        auto got = step(&StepTimes::query, [&] { return w.registry.query(xpath); });
        ok = got.ok() && got->size() == live.size();
        for (std::size_t k = 0; ok && k < live.size(); ++k) {
          ok = (*got)[k]->key == w.model.rec(live[k]).key;  // both in registration order
        }
        w.model.queried(name);
        break;
      }
      case Op::kRepublish: {
        const auto name = static_cast<std::uint32_t>(rng.next_below(s.names));
        const std::vector<std::uint32_t>& live = w.model.live_of(name);
        const bool has_old = !live.empty();
        const std::uint32_t oldest = has_old ? live.front() : 0;
        const Nanos lease = draw_lease(s, rng);
        wsdl.render(name, text);
        start = now_ns();
        auto defs = step(&StepTimes::parse, [&] { return wsdl::parse(text); });
        Result<std::string> key = defs.ok()
            ? step(&StepTimes::add, [&] { return w.registry.add(*defs, lease); })
            : Result<std::string>(defs.error());
        Status removed = Status::success();
        if (has_old) {
          const std::string& old = w.model.rec(oldest).key;
          removed = step(&StepTimes::remove, [&] { return w.registry.remove(old); });
        }
        phase.writes.add(now_ns() - start);
        ok = key.ok() && removed.ok();
        if (key.ok()) w.model.published(std::move(*key), name, w.clock.now() + lease);
        if (has_old && removed.ok()) w.model.removed(oldest);
        break;
      }
      case Op::kRenew: {
        const std::uint32_t idx = w.model.random_live(rng);
        const Nanos lease = draw_lease(s, rng);
        start = now_ns();
        ok = step(&StepTimes::renew, [&] { return w.registry.renew(w.model.rec(idx).key, lease); })
                 .ok();
        if (ok) w.model.renewed(idx, w.clock.now() + lease);
        break;
      }
      case Op::kExpire: {
        w.clock.advance(kTick);
        const std::size_t want = w.model.expire_due(w.clock.now());
        start = now_ns();
        const std::size_t got = w.registry.expire();
        const std::int64_t took = now_ns() - start;
        if (steps != nullptr && got > 0) {
          steps->expire_per.add(took / static_cast<std::int64_t>(got));
        }
        stepped = took;
        ok = got == want;
        break;
      }
    }
    const std::int64_t took = now_ns() - start;
    phase.timed.add(took);
    if (steps != nullptr) steps->residual.add(took - stepped);
    if (!ok) ++phase.failed;
  }
}

void add_counts(Report& report, const Phase& phase, const World& w, std::size_t ops) {
  report.count("ops", ops);
  const char* kinds[] = {"find", "query", "republish", "renew", "expire"};
  for (int k = 0; k < 5; ++k) report.count(std::string("ops_") + kinds[k], phase.counts[k]);
  report.count("published_removed_digest", w.model.digest());
  report.count("live_entries", w.model.live_count());
  report.count("dom_visits", w.model.dom_visits());
  report.count("doms_built", w.model.doms_built());
}

/// Share of queries among the ops at or above the phase's p90 latency:
/// how much of latency_p90_us the query path decides.
double p90_query_share(const Phase& phase) {
  const Samples& latency = phase.timed.latency();
  const auto p90_ns = static_cast<std::int64_t>(latency.percentile_us(0.90) * 1e3);
  std::size_t above = 0, queries = 0;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (latency.at(i) < p90_ns) continue;
    ++above;
    if (phase.kinds[i] == Op::kQuery) ++queries;
  }
  return above == 0 ? 0 : static_cast<double>(queries) / static_cast<double>(above);
}

/// Share of query candidate visits that found the candidate's DOM already
/// built (from the model; the registry does not count its DOM builds).
double dom_hit_ratio(const Model& model) {
  if (model.dom_visits() == 0) return 0;
  return 1.0 - static_cast<double>(model.doms_built()) / static_cast<double>(model.dom_visits());
}

}  // namespace

Report run_registry(const Options& opt) {
  const Sizes s = sizes_for(opt);
  const WsdlText wsdl(s.names);
  Report report;
  Phase plain(s.ops);
  const double rss_before_kib = proc_status_kib("VmRSS");

  // Set-up runs kSetupRepeats times (once when tracing); the last
  // registry serves the timed phase.
  Samples setups;
  std::unique_ptr<World> world;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    world.reset();
    world = populate(s, wsdl, opt.seed);
    setups.add(static_cast<std::int64_t>(world->setup_s * 1e9));
  }
  const double hwm_after_setup_kib = proc_status_kib("VmHWM");
  run_ops(*world, s, wsdl, opt.seed, plain, nullptr);
  const double peak_mib = peak_rss_mib(plain.timed.buffer_bytes() + plain.writes.bytes() +
                                       plain.kinds.capacity() * sizeof(Op));
  report.attempted = s.ops;
  report.failed = plain.failed;
  add_counts(report, plain, *world, s.ops);
  const auto stats = world->registry.index_stats();
  const double postings_per_entry =
      static_cast<double>(stats.postings) / static_cast<double>(world->model.live_count());
  report.count("index_postings", stats.postings);
  const auto [first_half, second_half] = plain.timed.latency().half_p50s();
  report.note("first_half_p50_us", first_half);
  report.note("second_half_p50_us", second_half);
  report.note("setup_entries", static_cast<double>(s.entries));
  report.note("harness_share", plain.timed.harness_share());
  report.note("dom_hit_ratio", dom_hit_ratio(world->model));
  report.note("p90_query_share", p90_query_share(plain));

  if (opt.trace) {
    // The traced phase replays the same ops on a freshly populated
    // registry, so its latencies compare with the untraced phase's.
    world.reset();
    world = populate(s, wsdl, opt.seed);
    StepTimes steps;
    Phase traced(s.ops);
    run_ops(*world, s, wsdl, opt.seed, traced, &steps);
    report.attempted += s.ops;
    report.failed += traced.failed;
    report.count("traced_digest", world->model.digest());
    auto both = [&](const std::string& name, const Samples& samples) {
      report.metric(name + ".p50", samples.percentile_us(0.50), "us");
      report.metric(name + ".p99", samples.percentile_us(0.99), "us");
    };
    both("wsdl.parse_us", steps.parse);
    both("registry.add_us", steps.add);
    both("registry.remove_us", steps.remove);
    both("registry.renew_us", steps.renew);
    both("registry.expire_us_per_expired", steps.expire_per);
    both("registry.find_service_us", steps.find);
    both("registry.query_us", steps.query);
    report.metric("registry.postings_per_entry", postings_per_entry, "count");
    report.metric("registry.rss_kib_per_entry",
                  (hwm_after_setup_kib - rss_before_kib) / static_cast<double>(s.entries),
                  "KiB");
    const double hits = static_cast<double>(world->metrics.counter_value("h2.reg.index.hits"));
    const double scans =
        static_cast<double>(world->metrics.counter_value("h2.reg.index.scans"));
    report.metric("registry.index_hit_ratio", hits + scans > 0 ? hits / (hits + scans) : 0,
                  "ratio");
    report.metric("registry.dom_hit_ratio", dom_hit_ratio(world->model), "ratio");
    const double plain_p50 = plain.timed.latency().percentile_us(0.5);
    const double traced_p50 = traced.timed.latency().percentile_us(0.5);
    report.metric("trace.overhead_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50, "%");
    report.metric("trace.residual_us", steps.residual.percentile_us(0.5), "us");
    return report;
  }

  const Samples& latency = plain.timed.latency();
  report.metric("throughput_ops_s", plain.timed.throughput_ops_s(), "1/s");
  report.metric("latency_p50_us", latency.block_percentile_us(0.50), "us");
  report.metric("latency_p90_us", latency.block_percentile_us(0.90), "us");
  report.metric("write_p50_us", plain.writes.block_percentile_us(0.50), "us");
  report.metric("cpu_us_per_op", plain.timed.cpu_us_per_op(), "us");
  report.metric("peak_rss_mib", peak_mib, "MiB");
  report.metric("setup_s", setups.percentile_us(0.5) / 1e6, "s");
  report.note("latency_p99_us", latency.percentile_us(0.99));
  report.note("postings_per_entry", postings_per_entry);
  return report;
}

}  // namespace h2bench
