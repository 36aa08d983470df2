// EXP-ENC — the paper's data-encoding claim (Section 5): "the default
// BASE64 encoding adopted by SOAP for XSD data types introduces
// unacceptable overheads for scientific data both in terms of the network
// bandwidth and the encoding/decoding time."
//
// Measures, for one double-array parameter carried by each binding's own
// request encoder and decoder, at each array size:
//   - encode throughput (real CPU time, bytes/sec of payload)
//   - decode throughput
//   - wire expansion ratio (wire bytes / payload bytes) as a counter
//
// Paths:
//   memcpy       copying the payload bytes; the floor, no binding
//   xdr          net::marshal_call / unmarshal_call (the XDR binding)
//   mime         soap::build_mime_request / parse_mime_request (the
//                double[] travels as a binary attachment)
//   soap-base64  soap::build_request_into / parse_request with the
//                payload as a bytes Value (xsd:base64Binary)
//   soap-items   the same two functions with a doubles Value (one <item>
//                element of decimal text per value)
//
// Expansion is 1.0x for memcpy/xdr/mime (plus a fixed frame),
// 4/3x for soap-base64 and ~4x for soap-items.
#include <benchmark/benchmark.h>

#include <cstring>

#include "soap/mime.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace {

enum Path : int { kMemcpy = 0, kXdr, kMime, kSoapBase64, kSoapItems };

constexpr const char* kPathNames[] = {"memcpy", "xdr", "mime", "soap-base64",
                                      "soap-items"};
constexpr const char* kOperation = "getResult";
constexpr const char* kServiceNs = "urn:mm";

void args_product(benchmark::internal::Benchmark* bench) {
  for (int path : {kMemcpy, kXdr, kMime, kSoapBase64, kSoapItems}) {
    for (int elems : {128, 4096, 131072, 1 << 20}) {
      bench->Args({path, elems});
    }
  }
}

/// The request's one parameter: `n` doubles, or their bytes for the
/// base64Binary path.
std::vector<h2::Value> request_params(Path path, std::size_t n, std::uint64_t seed) {
  auto values = h2::Rng(seed).doubles(n);
  if (path != kSoapBase64) return {h2::Value::of_doubles(std::move(values), "mata")};
  std::vector<std::uint8_t> bytes(n * 8);
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return {h2::Value::of_bytes(std::move(bytes), "mata")};
}

/// One encoded request, in the type its binding hands the transport.
/// Reused across iterations, as SoapChannel reuses its envelope string.
struct Wire {
  h2::ByteBuffer bytes;      ///< memcpy, xdr and mime
  std::string content_type;  ///< mime
  std::string envelope;      ///< soap paths
  std::size_t size() const { return bytes.size() + envelope.size(); }
};

void encode(Path path, const std::vector<h2::Value>& params, Wire& wire) {
  switch (path) {
    case kMemcpy: {
      auto doubles = params[0].doubles_view();
      std::vector<std::uint8_t> copy(doubles.size_bytes());
      std::memcpy(copy.data(), doubles.data(), copy.size());
      wire.bytes = h2::ByteBuffer(std::move(copy));
      return;
    }
    case kXdr:
      wire.bytes = h2::net::marshal_call(kOperation, params);
      return;
    case kMime: {
      auto message = h2::soap::build_mime_request(kOperation, kServiceNs, params);
      wire.bytes = std::move(message.body);
      wire.content_type = std::move(message.content_type);
      return;
    }
    case kSoapBase64:
    case kSoapItems:
      h2::soap::build_request_into(wire.envelope, kOperation, kServiceNs, params);
      return;
  }
}

/// Decodes `wire` back into the parameter; false on a decode error.
bool decode(Path path, const Wire& wire) {
  switch (path) {
    case kMemcpy: {
      std::vector<double> values(wire.bytes.size() / 8);
      std::memcpy(values.data(), wire.bytes.data(), wire.bytes.size());
      benchmark::DoNotOptimize(values.data());
      benchmark::ClobberMemory();
      return true;
    }
    case kXdr: {
      auto call = h2::net::unmarshal_call(wire.bytes.bytes());
      benchmark::DoNotOptimize(call);
      return call.ok();
    }
    case kMime: {
      auto call = h2::soap::parse_mime_request(wire.content_type, wire.bytes.bytes());
      benchmark::DoNotOptimize(call);
      return call.ok();
    }
    case kSoapBase64:
    case kSoapItems: {
      auto call = h2::soap::parse_request(wire.envelope);
      benchmark::DoNotOptimize(call);
      return call.ok();
    }
  }
  return false;
}

void BM_Encode(benchmark::State& state) {
  auto path = static_cast<Path>(state.range(0));
  auto n = static_cast<std::size_t>(state.range(1));
  auto params = request_params(path, n, 1);
  Wire wire;
  for (auto _ : state) {
    encode(path, params, wire);
    benchmark::DoNotOptimize(wire);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * 8));
  state.counters["wire_expansion"] =
      static_cast<double>(wire.size()) / static_cast<double>(n * 8);
  state.SetLabel(kPathNames[path]);
}
BENCHMARK(BM_Encode)->Apply(args_product);

void BM_Decode(benchmark::State& state) {
  auto path = static_cast<Path>(state.range(0));
  auto n = static_cast<std::size_t>(state.range(1));
  Wire wire;
  encode(path, request_params(path, n, 2), wire);
  for (auto _ : state) {
    if (!decode(path, wire)) state.SkipWithError("decode failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n * 8));
  state.SetLabel(kPathNames[path]);
}
BENCHMARK(BM_Decode)->Apply(args_product);

}  // namespace

BENCHMARK_MAIN();
