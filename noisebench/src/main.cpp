// noisebench: the repository benchmark.
//
//   noisebench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--tamper-digest] [--work-dir DIR]
//              [--trace-out FILE] [--commit SHA] [--source-digest HEX]
//
// Prints a context line (host, build, seed) and then, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when a correctness gate fails, 2 on bad usage.
// Normally started through run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "noisebench: %s\nusage: noisebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--tamper-digest] "
               "[--work-dir DIR] [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  nb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--tamper-digest") {
      opt.tamper = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--commit") {
      opt.commit = argv[++i];
    } else if (a == "--source-digest") {
      opt.source_digest = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be > 0");

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), NB_BUILD_TYPE, NB_COMPILER,
      opt.commit.c_str(), opt.source_digest.c_str());
  std::fflush(stdout);

  nb::Result result;
  if (!nb::run_workload(opt, result))
    return usage(("unknown workload " + opt.workload).c_str());
  std::printf("%s\n", result.to_json().c_str());
  return result.correct() ? 0 : 1;
}
