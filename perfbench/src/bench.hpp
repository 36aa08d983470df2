// Shared pieces of the h2bench binary: options, timing samples, process
// resource readings and the one-line JSON report every workload fills in.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace h2bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< sets the fixed op budget (ops = seconds x nominal rate)
  bool trace = false;    ///< per-layer run instead of the end-to-end run
  double scale = 1.0;    ///< shrinks every size; the self-test runs at 0.02
  std::string trace_dir; ///< where the traced run writes its spans ("" = nowhere)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Equal consecutive blocks a timed phase is cut into. End-to-end figures
/// are medians over the blocks, so interference confined to one block of
/// the phase (another tenant's burst on a shared VM) does not move them.
inline constexpr std::size_t kBlocks = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Latency samples in nanoseconds, kept in arrival order; percentiles come
/// out in microseconds.
class Samples {
 public:
  /// Reserves room for `n` samples and touches it, so the buffer is
  /// resident from here on and exactly bytes() of it, which peak_rss_mib
  /// leaves out.
  void reserve(std::size_t n) {
    ns_.assign(n, 0);
    ns_.clear();
  }
  std::size_t bytes() const { return ns_.capacity() * sizeof(std::int64_t); }
  void add(std::int64_t ns) { ns_.push_back(ns); }
  std::size_t size() const { return ns_.size(); }
  std::int64_t at(std::size_t i) const { return ns_[i]; }
  std::int64_t sum() const {
    std::int64_t total = 0;
    for (std::int64_t ns : ns_) total += ns;
    return total;
  }

  /// Nearest-rank percentile, p in [0, 1]; 0 when there are no samples.
  double percentile_us(double p) const { return percentile_us(0, ns_.size(), p); }

  /// Percentile of samples [begin, end) in arrival order.
  double percentile_us(std::size_t begin, std::size_t end, double p) const {
    if (begin >= end) return 0;
    std::vector<std::int64_t> v(ns_.begin() + static_cast<std::ptrdiff_t>(begin),
                                ns_.begin() + static_cast<std::ptrdiff_t>(end));
    auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
    auto at = v.begin() + static_cast<std::ptrdiff_t>(std::min(idx, v.size() - 1));
    std::nth_element(v.begin(), at, v.end());
    return static_cast<double>(*at) / 1e3;
  }

  /// Median over `blocks` equal consecutive blocks of each block's percentile.
  double block_percentile_us(double p, std::size_t blocks = kBlocks) const {
    std::vector<double> per_block;
    for (std::size_t b = 0; b < blocks; ++b) {
      per_block.push_back(
          percentile_us(ns_.size() * b / blocks, ns_.size() * (b + 1) / blocks, p));
    }
    return median(per_block);
  }

  /// p50 of the first and of the second half — the steady-state diagnostic.
  std::pair<double, double> half_p50s() const {
    return {percentile_us(0, ns_.size() / 2, 0.5),
            percentile_us(ns_.size() / 2, ns_.size(), 0.5)};
  }

 private:
  std::vector<std::int64_t> ns_;
};

/// Process-wide CPU time (all threads) and context switches.
struct Usage {
  std::int64_t cpu_ns = 0;
  std::int64_t ctx_switches = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv_ns = [](const timeval& tv) {
      return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
             static_cast<std::int64_t>(tv.tv_usec) * 1'000;
    };
    return Usage{tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
  }
};

/// A fixed-count timed phase: per-op latencies plus wall time and process
/// CPU time at each block boundary. The sample buffer is made at
/// construction; the clock starts at start().
class TimedPhase {
 public:
  explicit TimedPhase(std::size_t ops) : ops_(ops) {
    latency_.reserve(ops);
    marks_.reserve(kBlocks + 1);
  }

  void start() { marks_.push_back(Mark{now_ns(), Usage::now()}); }

  void add(std::int64_t latency_ns) {
    latency_.add(latency_ns);
    if (latency_.size() == ops_ * marks_.size() / kBlocks) {
      marks_.push_back(Mark{now_ns(), Usage::now()});
    }
  }

  const Samples& latency() const { return latency_; }
  std::size_t ops() const { return ops_; }
  std::size_t buffer_bytes() const { return latency_.bytes(); }

  /// Whole-phase deltas.
  std::int64_t wall_ns() const { return marks_.back().ns - marks_.front().ns; }
  Usage usage() const {
    return Usage{marks_.back().usage.cpu_ns - marks_.front().usage.cpu_ns,
                 marks_.back().usage.ctx_switches - marks_.front().usage.ctx_switches};
  }

  /// Share of the phase's wall time spent outside the timed ops: the
  /// benchmark's own work between calls (input draws, answer checks).
  double harness_share() const {
    return 1.0 - static_cast<double>(latency_.sum()) / static_cast<double>(wall_ns());
  }

  /// Block medians of ops per second and of CPU microseconds per op.
  double throughput_ops_s() const {
    return block_median([](double ops, const Mark& a, const Mark& b) {
      return ops * 1e9 / static_cast<double>(b.ns - a.ns);
    });
  }
  double cpu_us_per_op() const {
    return block_median([](double ops, const Mark& a, const Mark& b) {
      return static_cast<double>(b.usage.cpu_ns - a.usage.cpu_ns) / 1e3 / ops;
    });
  }

 private:
  struct Mark {
    std::int64_t ns;
    Usage usage;
  };

  template <typename Fn>
  double block_median(Fn&& per_block) const {
    std::vector<double> v;
    for (std::size_t b = 0; b + 1 < marks_.size(); ++b) {
      const double ops = static_cast<double>(ops_ * (b + 1) / kBlocks - ops_ * b / kBlocks);
      v.push_back(per_block(ops, marks_[b], marks_[b + 1]));
    }
    return median(v);
  }

  std::size_t ops_;
  Samples latency_;
  std::vector<Mark> marks_;
};

/// A field of /proc/self/status in KiB ("VmHWM", "VmRSS"); 0 if absent.
inline double proc_status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return 0;
}

/// The process's peak resident memory (VmHWM) less `harness_bytes`, the
/// benchmark's own pre-touched sample buffers, in MiB. Read it before any
/// percentile is taken, since those copy samples.
inline double peak_rss_mib(std::size_t harness_bytes) {
  return (proc_status_kib("VmHWM") - static_cast<double>(harness_bytes) / 1024.0) / 1024.0;
}

/// What one run reports. `metrics` are the contract metrics of the run's
/// mode (end-to-end or per-layer); `detail` holds diagnostics; `counts`
/// holds the exact counts the determinism self-test compares.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> detail;
  std::vector<std::pair<std::string, std::string>> counts;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) { detail.emplace_back(std::move(name), value); }
  void count(std::string name, std::uint64_t value) {
    counts.emplace_back(std::move(name), std::to_string(value));
  }
  void count(std::string name, std::string value) {
    counts.emplace_back(std::move(name), std::move(value));
  }
};

/// Writes a report as one JSON line on stdout.
void print_report(const Options& opt, const Report& report);

/// Pins the size of a fixed-count phase: `nominal_per_s` ops per second
/// of `--seconds`, shrunk by `--scale`, never below `floor`.
inline std::size_t op_budget(const Options& opt, double nominal_per_s,
                             std::size_t floor = 50) {
  double n = opt.seconds * nominal_per_s * opt.scale;
  return std::max(floor, static_cast<std::size_t>(n));
}

/// Aborts the run with a message on stderr and no report.
[[noreturn]] void die(const std::string& message);

// ---- workloads ---------------------------------------------------------------

Report run_rpc(const Options& opt);       ///< xdr-small, soap-bulk
Report run_registry(const Options& opt);  ///< registry-churn

}  // namespace h2bench
