// h2bench — the repository benchmark's binary.
//
//   h2bench --workload <xdr-small|soap-bulk|registry-churn> --seed N
//           --seconds S --trace 0|1 [--scale F] [--trace-dir DIR]
//
// Prints one JSON line: the run's metrics (end-to-end with --trace 0,
// per-layer with --trace 1), attempted/failed op counts, the exact counts
// the determinism self-test compares, diagnostics and the build it ran
// on. perfbench/run.py builds this binary and turns that line into the
// benchmark's result. Refuses to run from an unoptimized build.
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.hpp"

#ifndef H2BENCH_BUILD_TYPE
#define H2BENCH_BUILD_TYPE "unknown"
#endif

namespace h2bench {

[[noreturn]] void die(const std::string& message) {
  std::cerr << "h2bench: " << message << "\n";
  std::exit(1);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value != "0";
    } else if (flag == "--scale") {
      opt.scale = std::stod(value);
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) die("flags take one value each");
  if (opt.seconds <= 0 || opt.scale <= 0) die("--seconds and --scale must be positive");
  return opt;
}

}  // namespace

void print_report(const Options& opt, const Report& report) {
  std::ostringstream out;
  out << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    out << (i ? "," : "") << quoted(m.name) << ":{\"value\":" << number(m.value)
        << ",\"unit\":" << quoted(m.unit) << "}";
  }
  out << "},\"detail\":{";
  for (std::size_t i = 0; i < report.detail.size(); ++i) {
    out << (i ? "," : "") << quoted(report.detail[i].first) << ":"
        << number(report.detail[i].second);
  }
  out << "},\"counts\":{";
  for (std::size_t i = 0; i < report.counts.size(); ++i) {
    out << (i ? "," : "") << quoted(report.counts[i].first) << ":"
        << quoted(report.counts[i].second);
  }
  out << "},\"build\":{\"build_type\":" << quoted(H2BENCH_BUILD_TYPE)
      << ",\"compiler\":" << quoted(std::string("g++ ") + __VERSION__) << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace h2bench

int main(int argc, char** argv) {
  using namespace h2bench;
#ifndef __OPTIMIZE__
  die(std::string("refusing to report from an unoptimized (") + H2BENCH_BUILD_TYPE +
      ") build; configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release");
#endif
  const Options opt = parse_args(argc, argv);
  Report report;
  if (opt.workload == "xdr-small" || opt.workload == "soap-bulk") {
    report = run_rpc(opt);
  } else if (opt.workload == "registry-churn") {
    report = run_registry(opt);
  } else {
    die("unknown workload '" + opt.workload + "'");
  }
  print_report(opt, report);
  return 0;
}
