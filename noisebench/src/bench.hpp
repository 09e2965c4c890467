// Shared plumbing of the repository benchmark: run options, clocks,
// process resource figures, order statistics and the result record that
// becomes the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;   // Traced run: per-layer metrics instead of e2e.
  bool smoke = false;   // Tiny populations, for the benchmark's own test.
  bool tamper = false;  // Corrupt one repeat digest; the gate must fire.
  std::string work_dir = ".bench_build/work";  // Scratch files of a run.
  std::string trace_out;  // Chrome trace_event JSON of the traced run.
  std::string commit = "unavailable";
  std::string source_digest = "unavailable";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process (all threads).
double cpu_seconds();
/// Peak resident set size of this process [MB].
double peak_rss_mb();

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// FNV-1a, chained through `h`.
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 1469598103934665603ull);

/// Accumulates one run's metrics and correctness gates.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` fails the run.
  void gate(bool ok, const std::string& what);

  bool correct() const { return failures_.empty(); }

  /// The single-line JSON result: correct, attempted, failed, metrics.
  std::string to_json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Runs the named workload; false when the name is unknown.
bool run_workload(const Options& opt, Result& out);

}  // namespace nb
