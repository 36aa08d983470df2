// xdr-small and soap-bulk: one client thread in a closed loop calling a
// "scale" service (reply = every element doubled) through the stack a
// user builds —
//
//   ResilientChannel -> XDR or SOAP channel -> SockNet (loopback TCP, one
//   reactor) -> XDR server or SoapHttpServer with a DedupCache -> service
//
// Phase order: a throw-away warm-up stack runs calls until the box is past
// its post-idle fast phase; then a fresh stack runs a fixed pre-roll and
// the fixed-count timed phase. Building each stack fresh keeps the call
// serials, and so the exact wire bytes, a pure function of the seed. The
// end-to-end run then times several stack set-ups; the traced run repeats
// the timed phase on a stack wrapped in the layer decorators and times
// the codec functions standalone on the same payload.
#include <array>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "layers.hpp"
#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "resilience/resilient_channel.hpp"
#include "soap/envelope.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace h2bench {
namespace {

using namespace h2;
using namespace h2::net;

constexpr double kWarmupSeconds = 4.0;  ///< outlasts the ~3 s post-idle fast phase
constexpr std::size_t kPreroll = 500;   ///< untimed calls on the measured stack
constexpr std::size_t kPayloadPool = 64;
constexpr int kSetupSamples = 31;
constexpr double kSetupGapSeconds = 0.1;  ///< nominal time of the calls between set-up samples
constexpr std::size_t kTraceFileCalls = 20000;  ///< calls written to the span file
constexpr const char* kServiceNs = "urn:h2bench";

struct Shape {
  bool soap;
  std::size_t doubles;      ///< request and reply payload length
  double nominal_per_s;     ///< sets the op budget per --seconds
  std::size_t codec_iters;  ///< standalone codec calls per function
};

template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.ok()) die(std::string(what) + ": " + result.error().describe());
  return std::move(*result);
}

void must(const Status& status, const char* what) {
  if (!status.ok()) die(std::string(what) + ": " + status.error().describe());
}

Result<Value> scale_service(std::span<const Value> params) {
  if (params.size() != 1) return err::invalid_argument("scale takes one array");
  auto values = params[0].as_doubles();
  if (!values.ok()) return values.error();
  for (double& v : *values) v *= 2.0;
  return Value::of_doubles(std::move(*values));
}

/// The user's stack, optionally wrapped in the layer decorators.
class Stack {
 public:
  Stack(const Shape& shape, SpanLog* log) : sock_(SockFamily::kTcp, 1) {
    const HostId client = must(sock_.add_host("client"), "add_host");
    const HostId server = must(sock_.add_host("server"), "add_host");
    if (log != nullptr) traced_ = std::make_unique<TracedTransport>(sock_, *log);
    Transport& net = this->net();

    auto mux = std::make_shared<DispatcherMux>();
    mux->add("scale", log != nullptr ? traced_handler(scale_service, *log)
                                     : DispatcherMux::Fn(scale_service));
    std::shared_ptr<Dispatcher> service = mux;
    if (log != nullptr) service = std::make_shared<TracedDispatcher>(mux, *log);
    auto dedup = std::make_shared<resil::DedupCache>();

    std::unique_ptr<Channel> inner;
    if (shape.soap) {
      http_ = std::make_unique<SoapHttpServer>(net, server, 8080);
      http_->set_dedup(dedup);
      must(http_->start(), "soap server start");
      must(http_->mount("svc", service), "soap mount");
      inner = make_soap_channel(net, client,
                                must(Endpoint::parse("http://server:8080/svc"), "endpoint"),
                                kServiceNs);
    } else {
      xdr_.emplace(must(serve_xdr(net, server, 9001, service, dedup), "serve_xdr"));
      inner = make_xdr_channel(net, client,
                               must(Endpoint::parse("xdr://server:9001"), "endpoint"));
    }
    if (log != nullptr) inner = std::make_unique<TracedChannel>(std::move(inner), *log);
    channel_ = resil::make_resilient_channel(
        std::move(inner), net, resil::CallPolicy{},
        &resil::BreakerRegistry::of(net).for_endpoint("server"), "server");
  }

  Transport& net() { return traced_ ? static_cast<Transport&>(*traced_) : sock_; }
  SockNet& sock() { return sock_; }
  Result<Value> call(std::span<const Value> params) { return channel_->invoke("scale", params); }

 private:
  // Declaration order is teardown order reversed: the channel goes first,
  // the servers unbind through the (traced) transport, the sockets last.
  SockNet sock_;
  std::unique_ptr<TracedTransport> traced_;
  std::unique_ptr<SoapHttpServer> http_;
  std::optional<ServerHandle> xdr_;
  std::unique_ptr<Channel> channel_;
};

/// The seeded inputs: a pool of payloads. Every run of calls draws the
/// payload of each call from the pool with a generator started from the
/// same seed, so each run sends the same sequence.
struct Inputs {
  std::vector<std::vector<Value>> pool;
  std::uint64_t order_seed;

  const std::vector<Value>& draw(Rng& rng) const { return pool[rng.next_below(pool.size())]; }
};

Inputs make_inputs(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (std::size_t i = 0; i < kPayloadPool; ++i) {
    in.pool.push_back({Value::of_doubles(rng.doubles(shape.doubles, -1e3, 1e3))});
  }
  in.order_seed = rng.next_u64();
  return in;
}

bool correct(const Result<Value>& reply, const Value& sent) {
  if (!reply.ok()) return false;
  std::span<const double> got = reply->doubles_view();
  std::span<const double> want = sent.doubles_view();
  if (got.size() != want.size() || reply->kind() != ValueKind::kDoubleArray) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != 2.0 * want[i]) return false;
  }
  return true;
}

struct Phase {
  explicit Phase(std::size_t ops) : timed(ops) {}
  TimedPhase timed;
  std::uint64_t failed = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retries = 0;
};

/// Fills `phase` with its fixed number of calls, each checked
/// element-wise. With a log, each call's resilience span is recorded under
/// the call's index.
void run_calls(Stack& stack, const Inputs& in, Phase& phase, SpanLog* log) {
  const std::uint64_t bytes0 = stack.sock().metrics().counter_value("h2.net.bytes");
  const std::uint64_t retries0 = stack.net().metrics().counter_value("h2.resil.retries");
  Rng order(in.order_seed);
  const std::size_t n = phase.timed.ops();
  phase.timed.start();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Value>& params = in.draw(order);
    const std::int64_t start = now_ns();
    Result<Value> reply = [&] {
      if (log == nullptr) return stack.call(params);
      log->begin_call(static_cast<std::uint32_t>(i));
      return timed(*log, kResilience, [&] { return stack.call(params); });
    }();
    phase.timed.add(now_ns() - start);
    if (!correct(reply, params[0])) ++phase.failed;
  }
  phase.wire_bytes = stack.sock().metrics().counter_value("h2.net.bytes") - bytes0;
  phase.retries = stack.net().metrics().counter_value("h2.resil.retries") - retries0;
}

/// `n` untimed calls; dies on a wrong answer.
void run_untimed(Stack& stack, const Inputs& in, std::size_t n, const char* what) {
  Phase phase(n);
  run_calls(stack, in, phase, nullptr);
  if (phase.failed != 0) die(std::string(what) + " call failed");
}

/// Runs calls for at least `seconds` of wall time on a throw-away stack.
void warm_up(const Shape& shape, const Inputs& in, double seconds) {
  Stack stack(shape, nullptr);
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  Rng order(in.order_seed);
  while (now_ns() < until) {
    const std::vector<Value>& params = in.draw(order);
    if (!correct(stack.call(params), params[0])) die("warm-up call failed");
  }
}

/// Median wall time of building a stack and making its first call (the
/// call dials the pooled connection). Each stack then serves calls for
/// about kSetupGapSeconds and is torn down outside the timing, so every
/// sample starts on a box as busy as the timed phase left it, and the
/// samples spread over a few seconds: a set-up is a few hundred
/// microseconds of thread starts and wake-ups, and the host's wake-up
/// latency shifts from one second to the next.
double setup_seconds(const Shape& shape, const Inputs& in, Report& report) {
  const auto gap_calls = static_cast<std::size_t>(shape.nominal_per_s * kSetupGapSeconds);
  Samples samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::int64_t start = now_ns();
    Stack stack(shape, nullptr);
    if (!correct(stack.call(in.pool[0]), in.pool[0][0])) die("set-up call failed");
    samples.add(now_ns() - start);
    run_untimed(stack, in, gap_calls, "set-up");
  }
  report.note("setup_p25_s", samples.percentile_us(0.25) / 1e6);
  report.note("setup_p75_s", samples.percentile_us(0.75) / 1e6);
  return samples.percentile_us(0.5) / 1e6;
}

// ---- traced run --------------------------------------------------------------

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of the first calls.
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) die("cannot write " + path);
  std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (s.call >= kTraceFileCalls) continue;
    out << (first ? "" : ",") << "\n{\"name\":\"" << kLayerNames[s.layer]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.layer >= kServer ? 2 : 1)
        << ",\"ts\":" << static_cast<double>(s.start_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"call\":" << s.call << "}}";
    first = false;
  }
  out << "\n]}\n";
}

/// Times `fn` standalone `iters` times and reports p50/p99 as `name`.
template <typename Fn>
void codec_probe(Report& report, const std::string& name, std::size_t iters, Fn&& fn) {
  Samples samples;
  samples.reserve(iters);
  std::size_t sink = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const std::int64_t start = now_ns();
    sink += fn();
    samples.add(now_ns() - start);
  }
  if (sink == 0) die(name + ": codec produced nothing");
  report.metric(name + ".p50", samples.percentile_us(0.50), "us");
  report.metric(name + ".p99", samples.percentile_us(0.99), "us");
}

/// Both bindings' public codec functions on this workload's exact payload.
void codec_probes(Report& report, const Shape& shape, const Inputs& in) {
  const std::vector<Value>& params = in.pool[0];
  const std::string call_id = "h2c-1000";
  Result<Value> reply = scale_service(params);
  const ByteBuffer call_frame = marshal_call("scale", params, call_id);
  const ByteBuffer reply_frame = marshal_reply(reply);
  std::vector<soap::HeaderEntry> headers(1);
  headers[0].name = std::string(resil::kCallIdHeaderName);
  headers[0].ns = std::string(resil::kCallIdHeaderNs);
  headers[0].value = call_id;
  const std::string request = soap::build_request("scale", kServiceNs, params, headers);
  const std::string response = soap::build_response("scale", kServiceNs, *reply);
  const std::size_t n = shape.codec_iters;

  codec_probe(report, "xdr.marshal_call_us", n,
              [&] { return marshal_call("scale", params, call_id).size(); });
  codec_probe(report, "xdr.unmarshal_call_us", n,
              [&] { return unmarshal_call(call_frame.bytes())->params.size(); });
  codec_probe(report, "xdr.marshal_reply_us", n, [&] { return marshal_reply(reply).size(); });
  codec_probe(report, "xdr.unmarshal_reply_us", n, [&] {
    return unmarshal_reply(reply_frame.bytes())->doubles_view().size();
  });
  codec_probe(report, "soap.build_request_us", n, [&] {
    return soap::build_request("scale", kServiceNs, params, headers).size();
  });
  codec_probe(report, "soap.parse_request_us", n,
              [&] { return soap::parse_request(request)->params.size(); });
  codec_probe(report, "soap.build_response_us", n,
              [&] { return soap::build_response("scale", kServiceNs, *reply).size(); });
  codec_probe(report, "soap.parse_reply_us", n, [&] {
    return soap::parse_reply(response)->value().doubles_view().size();
  });
}

void report_traced(Report& report, const Options& opt, const Shape& shape,
                   const Inputs& in, std::size_t ops, const Phase& plain) {
  SpanLog log(ops);
  Phase traced(ops);
  std::uint64_t dialed = 0;
  {
    Stack stack(shape, &log);
    run_untimed(stack, in, kPreroll, "pre-roll");
    log.clear();  // the pre-roll's server-side spans
    run_calls(stack, in, traced, &log);
    dialed = stack.sock().connections_dialed();
  }
  const std::vector<Span> spans = log.take();
  if (!opt.trace_dir.empty()) {
    write_spans(opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                    ".trace.json",
                spans);
  }

  // Per-call layer durations; a layer's self time is its span minus its
  // child's, so the six self times of a call sum to its resilience span.
  std::vector<std::array<std::int64_t, kLayerCount>> dur(ops);
  for (auto& d : dur) d.fill(0);
  for (const Span& s : spans) {
    if (s.call < ops) dur[s.call][s.layer] += s.end_ns - s.start_ns;
  }
  // A call's residual is its loop latency minus its resilience span:
  // what the layers leave unaccounted (decorator and clock-read cost).
  std::array<Samples, kLayerCount> self;
  Samples residual;
  for (std::size_t i = 0; i < ops; ++i) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self[l].add(dur[i][l] - (l + 1 < kLayerCount ? dur[i][l + 1] : 0));
    }
    residual.add(traced.timed.latency().at(i) - dur[i][kResilience]);
  }
  const std::array<const char*, kLayerCount> names = {
      "resilience.self_us",   "stub.self_us",     "transport.call_self_us",
      "server.codec_self_us", "dispatch.self_us", "plugin.self_us"};
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    report.metric(std::string(names[l]) + ".p50", self[l].percentile_us(0.50), "us");
    report.metric(std::string(names[l]) + ".p99", self[l].percentile_us(0.99), "us");
  }
  const double calls = static_cast<double>(ops);
  report.metric("transport.ctx_switches_per_call",
                static_cast<double>(traced.timed.usage().ctx_switches) / calls, "count");
  report.metric("transport.wire_bytes_per_call",
                static_cast<double>(traced.wire_bytes) / calls, "bytes");
  report.metric("transport.connections_dialed", static_cast<double>(dialed), "count");
  report.metric("resilience.retries_per_call", static_cast<double>(traced.retries) / calls,
                "count");
  codec_probes(report, shape, in);

  // Overhead: traced against untraced call latency.
  const double traced_p50 = traced.timed.latency().percentile_us(0.5);
  const double plain_p50 = plain.timed.latency().percentile_us(0.5);
  report.metric("trace.overhead_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50, "%");
  report.metric("trace.residual_us", residual.percentile_us(0.5), "us");
  report.note("traced_latency_p50_us", traced_p50);
  report.note("untraced_latency_p50_us", plain_p50);
  report.count("traced_wire_bytes", traced.wire_bytes);
  report.failed += traced.failed;
  report.attempted += ops;
}

}  // namespace

Report run_rpc(const Options& opt) {
  const Shape shape = opt.workload == "xdr-small"
                          ? Shape{false, 8, 35000.0, 20000}
                          : Shape{true, 1024, 1500.0, 400};
  const std::size_t ops = op_budget(opt, shape.nominal_per_s);
  const Inputs in = make_inputs(shape, opt.seed);
  Report report;
  Phase plain(ops);

  warm_up(shape, in, kWarmupSeconds * std::min(1.0, opt.scale));

  std::uint64_t dialed = 0;
  {
    Stack stack(shape, nullptr);
    run_untimed(stack, in, kPreroll, "pre-roll");
    run_calls(stack, in, plain, nullptr);
    dialed = stack.sock().connections_dialed();
  }
  const double peak_mib = peak_rss_mib(plain.timed.buffer_bytes());
  const Samples& latency = plain.timed.latency();
  report.attempted = ops;
  report.failed = plain.failed;
  report.count("ops", ops);
  report.count("wire_bytes", plain.wire_bytes);
  report.count("connections_dialed", dialed);
  report.count("retries", plain.retries);
  const auto [first_half, second_half] = latency.half_p50s();
  report.note("first_half_p50_us", first_half);
  report.note("second_half_p50_us", second_half);
  report.note("harness_share", plain.timed.harness_share());

  if (opt.trace) {
    report_traced(report, opt, shape, in, ops, plain);
    return report;
  }
  const double p50 = latency.block_percentile_us(0.50);
  report.metric("throughput_ops_s", plain.timed.throughput_ops_s(), "1/s");
  report.metric("latency_p50_us", p50, "us");
  report.metric("latency_p90_us", latency.block_percentile_us(0.90), "us");
  // Every call is a write here: each executes at most once and is recorded
  // in the server's DedupCache, so the write median is the call median.
  report.metric("write_p50_us", p50, "us");
  report.metric("cpu_us_per_op", plain.timed.cpu_us_per_op(), "us");
  report.metric("peak_rss_mib", peak_mib, "MiB");
  report.metric("setup_s", setup_seconds(shape, in, report), "s");
  report.note("latency_p99_us", latency.percentile_us(0.99));
  return report;
}

}  // namespace h2bench
