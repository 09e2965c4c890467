// dnoise_cli — command-line delay/functional noise analysis of coupled
// nets described in the SPEF-subset format (see rcnet/spef.hpp for the
// grammar; examples/spef_flow generates decks). Run it with no arguments
// (or with --help) for the usage text.
//
// Modes:
//   dnoise_cli <file.spef>              one net: text, --csv or --json
//                                       report; --golden, --functional
//   dnoise_cli --batch <file.spef>...   the full-chip engine (or --random N):
//     nets fan out across workers sharing one characterization cache,
//     per-net failures are recorded and the run continues, and stdout is
//     byte-identical for any --jobs value (stats go to stderr).
//   dnoise_cli --screen <file.spef>...  rank by severity
//   dnoise_cli --serve                  the resident NDJSON analysis daemon
//                                       (DESIGN.md §11, §15)
//
// Configuration: every analysis knob is a key of dn::AnalysisConfig, and
// the config flags (--jobs, --lte-tol, ...) come from its key table.
// --config FILE loads a JSON object of keys first (flags win). Flags and
// server `config` requests share ONE validation path, and every numeric
// flag value is parsed strictly: a malformed one, like an unknown flag,
// exits 2 with INVALID_ARGUMENT.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "clarinet/analysis_config.hpp"
#include "clarinet/batch_analyzer.hpp"
#include "clarinet/screening.hpp"
#include "core/baselines.hpp"
#include "core/functional_noise.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "server/server.hpp"
#include "util/deadline.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

namespace {

bool has_flag(int argc, char** argv, std::string_view name) {
  return std::find(argv + 1, argv + argc, name) != argv + argc;
}

/// The value after flag `name`, nullptr when absent.
const char* str_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

/// A numeric flag's value (T = int or double), or `fallback` when absent.
/// A malformed value is a usage error; every numeric flag is read before
/// any work starts, so exiting here loses nothing.
template <class T>
T num_flag(int argc, char** argv, const char* name, T fallback) {
  const char* text = str_flag(argc, argv, name);
  if (!text) return fallback;
  const StatusOr<T> v = parse_flag<T>(name, text);
  if (!v.ok()) {
    std::fprintf(stderr, "error: %s\n", v.status().to_string().c_str());
    std::exit(2);
  }
  return *v;
}

/// A count flag's value, raised to at least `floor`.
std::size_t count_flag(int argc, char** argv, const char* name,
                       std::size_t fallback, int floor = 0) {
  return static_cast<std::size_t>(std::max(
      floor, num_flag(argc, argv, name, static_cast<int>(fallback))));
}

/// Positional (non-flag) arguments, skipping the values of flags that
/// take one. A flag neither here nor in the config key table is
/// kInvalidArgument naming it: a misspelt flag must not run as a no-op.
StatusOr<std::vector<std::string>> positional_args(int argc, char** argv) {
  static constexpr std::string_view kSwitches[] = {
      "--batch", "--screen", "--serve",   "--json",    "--csv",
      "--golden", "--functional", "--recover", "--profile"};
  static constexpr std::string_view kValueFlags[] = {
      "--random",      "--seed",        "--metrics-json", "--trace-out",
      "--inject-faults", "--fault-seed", "--socket",
      "--queue-soft",  "--queue-hard",  "--save-cache",   "--load-cache",
      "--state-dir",   "--fsync",       "--snapshot-every", "--watchdog-ms",
      "--max-request-bytes", "--max-request-nodes", "--max-design-nets"};
  const auto listed = [](const auto& list, std::string_view arg) {
    return std::find(std::begin(list), std::end(list), arg) != std::end(list);
  };
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with('-')) {
      out.emplace_back(arg);
    } else if (AnalysisConfig::is_value_flag(arg) || listed(kValueFlags, arg)) {
      ++i;  // Skip the flag's value.
    } else if (!AnalysisConfig::is_flag(arg) && !listed(kSwitches, arg)) {
      return Status::InvalidArgument("unknown flag " + std::string(arg) +
                                     " (run dnoise_cli alone for usage)");
    }
  }
  return out;
}

/// The usage text: on stdout with exit 0 when asked for (--help, -h),
/// on stderr with exit 2 after a usage error.
int usage(std::FILE* out = stderr) {
  std::fprintf(
      out,
      "usage: dnoise_cli <file.spef> [--functional] [--golden] [--csv]\n"
      "                  [--json]\n"
      "       dnoise_cli --batch <file.spef>... [--json] [--load-cache F]\n"
      "                  [--save-cache F]\n"
      "       dnoise_cli --batch --random N [--seed S] [--json]\n"
      "       dnoise_cli --screen <file.spef>... (rank by severity)\n"
      "       dnoise_cli --serve [--socket PATH] [--queue-soft N]\n"
      "                  [--queue-hard N]   (NDJSON analysis daemon)\n"
      "       dnoise_cli --help | -h           (this text)\n"
      "  durability (DESIGN.md §15):\n"
      "       [--state-dir DIR]  journal + snapshot directory; SIGTERM\n"
      "                          drains gracefully and snapshots\n"
      "       [--recover]        restore snapshot, replay journal tail\n"
      "       [--fsync none|always]   journal durability policy\n"
      "       [--snapshot-every N]    mutations per auto-snapshot\n"
      "       [--watchdog-ms MS]      per-request stuck-analyze bound\n"
      "       [--max-request-bytes N] [--max-request-nodes N]\n"
      "       [--max-design-nets N]   NDJSON per-request limits\n"
      "config (all analysis modes; one validation path):\n"
      "%s"
      "observability (any mode):\n"
      "       [--profile] [--metrics-json FILE] [--trace-out FILE]\n"
      "fault injection (see DESIGN.md §10):\n"
      "       [--inject-faults site[:rate],...] [--fault-seed N]\n"
      "       sites: parse|cache|factor|newton|all\n",
      AnalysisConfig::flags_usage().c_str());
  return out == stdout ? 0 : 2;
}

/// Turns the observability subsystems on per the flags; returns whether
/// any finalization output is owed.
struct ObsFlags {
  bool profile = false;
  const char* metrics_json = nullptr;
  const char* trace_out = nullptr;
};

ObsFlags setup_observability(int argc, char** argv) {
  ObsFlags f;
  f.profile = has_flag(argc, argv, "--profile");
  f.metrics_json = str_flag(argc, argv, "--metrics-json");
  f.trace_out = str_flag(argc, argv, "--trace-out");
  if (f.profile || f.metrics_json) obs::set_metrics_enabled(true);
  if (f.trace_out) obs::set_tracing_enabled(true);
  return f;
}

/// Writes the owed observability outputs. Keeps batch stdout untouched:
/// the profile goes to stderr, metrics/trace to their files.
int finalize_observability(const ObsFlags& f) {
  int rc = 0;
  if (f.profile) {
    std::ostringstream os;
    obs::metrics().write_summary(os);
    std::fputs(os.str().c_str(), stderr);
  }
  // Both artifacts go through the atomic tmp+rename helper: a consumer
  // tailing the path (or a crash mid-write) never sees a partial JSON.
  if (f.metrics_json) {
    std::ostringstream out;
    obs::metrics().write_json(out);
    out << "\n";
    const Status s = durable::atomic_write_file(f.metrics_json, out.str());
    if (!s.ok()) {
      std::fprintf(stderr, "error: cannot write metrics to %s: %s\n",
                   f.metrics_json, s.message().c_str());
      rc = 1;
    }
  }
  if (f.trace_out) {
    std::ostringstream out;
    obs::TraceRecorder::instance().write_json(out);
    out << "\n";
    const Status s = durable::atomic_write_file(f.trace_out, out.str());
    if (!s.ok()) {
      std::fprintf(stderr, "error: cannot write trace to %s: %s\n",
                   f.trace_out, s.message().c_str());
      rc = 1;
    }
  }
  return rc;
}

int run_screening(const std::vector<std::string>& files) {
  if (files.empty()) return usage();

  std::vector<CoupledNet> nets;
  for (const auto& f : files) {
    StatusOr<CoupledNet> net = try_read_spef_file(f);
    if (!net.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", f.c_str(),
                   net.status().to_string().c_str());
      return 1;
    }
    nets.push_back(std::move(*net));
  }
  const auto order = rank_by_severity(nets);
  std::printf("%-40s %12s %12s\n", "file (most severe first)", "est_noise_V",
              "est_dnoise_ps");
  for (const std::size_t i : order) {
    StatusOr<ScreeningEstimate> est = try_screen_net(nets[i]);
    if (!est.ok()) {
      std::printf("%-40s %25s\n", files[i].c_str(),
                  status_code_name(est.status().code()));
      continue;
    }
    std::printf("%-40s %12.4f %12.2f\n", files[i].c_str(), est->vn_est,
                est->dn_est / ps);
  }
  return 0;
}

int run_batch(int argc, char** argv, const std::vector<std::string>& files,
              const AnalysisConfig& cfg) {
  std::vector<CoupledNet> nets;
  std::vector<std::string> names;
  std::vector<BatchNetResult> load_failures;

  const int n_random = num_flag(argc, argv, "--random", 0);
  if (n_random > 0) {
    Rng rng(static_cast<std::uint64_t>(num_flag(argc, argv, "--seed", 1)));
    for (int i = 0; i < n_random; ++i) {
      nets.push_back(random_coupled_net(rng));
      names.push_back("random" + std::to_string(i));
    }
  } else {
    if (files.empty()) return usage();
    for (const auto& f : files) {
      StatusOr<CoupledNet> net = try_read_spef_file(f);
      if (net.ok()) {
        nets.push_back(std::move(*net));
        names.push_back(f);
      } else {
        // Record and continue — one bad deck must not kill the batch.
        BatchNetResult fail;
        fail.name = f;
        fail.status = net.status();
        load_failures.push_back(std::move(fail));
      }
    }
  }

  BatchAnalyzer engine(cfg.batch);
  // --load-cache: start warm from a previous run's characterizations.
  if (const char* path = str_flag(argc, argv, "--load-cache")) {
    StatusOr<std::size_t> loaded = engine.cache()->load_file(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu cached alignment tables from %s\n",
                 *loaded, path);
  }
  BatchResult result = engine.analyze(nets, names);

  // Splice load failures into the accounting (after the analyzed nets, in
  // input order — still deterministic).
  for (auto& fail : load_failures) {
    fail.index = result.nets.size();
    result.nets.push_back(std::move(fail));
    ++result.stats.total;
    ++result.stats.failed;
  }

  if (has_flag(argc, argv, "--json")) {
    result.write_json(std::cout);
    std::cout << "\n";
  } else {
    result.write_text(std::cout);
  }
  std::fprintf(stderr, "%s\n", result.stats_text().c_str());

  if (const char* path = str_flag(argc, argv, "--save-cache")) {
    Status saved = engine.cache()->save_file(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.to_string().c_str());
      return 1;
    }
  }
  return result.stats.analyzed > 0 || result.stats.total == 0 ? 0 : 1;
}

int run_single(int argc, char** argv, const AnalysisConfig& cfg) {
  StatusOr<CoupledNet> loaded = try_read_spef_file(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const CoupledNet net = std::move(*loaded);
  const AnalyzerConfig& analyzer_cfg = cfg.batch.analyzer;
  NoiseAnalyzer analyzer(analyzer_cfg);

  // The deadline_ms key bounds this one net's analysis; the step loops
  // deep in the engine poll it and abort with DEADLINE_EXCEEDED.
  const double deadline_ms = cfg.batch.deadline_ms;
  ScopedDeadline scoped_deadline(
      deadline_ms > 0 ? Deadline::after(deadline_ms * 1e-3) : Deadline());

  StatusOr<DelayNoiseResult> analyzed = analyzer.try_analyze(net);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "analysis error: %s\n",
                 analyzed.status().to_string().c_str());
    return 1;
  }
  const DelayNoiseResult& r = *analyzed;

  if (has_flag(argc, argv, "--csv")) {
    std::printf("file,aggressors,coupling_fF,rth_ohm,holding_ohm,"
                "pulse_V,pulse_ps,input_dnoise_ps,combined_dnoise_ps\n");
    std::printf("%s,%zu,%.3f,%.1f,%.1f,%.4f,%.1f,%.2f,%.2f\n", argv[1],
                net.aggressors.size(), net.total_coupling_cap() / fF, r.rth,
                r.holding_r, r.composite.params.height,
                r.composite.params.width / ps, r.input_delay_noise() / ps,
                r.delay_noise() / ps);
  } else if (has_flag(argc, argv, "--json")) {
    analyzer.report(net, r, argv[1]).to_json(std::cout);
    std::cout << "\n";
  } else {
    analyzer.print_report(std::cout, net, r);
  }

  try {
    if (has_flag(argc, argv, "--golden")) {
      const GoldenResult g =
          golden_nonlinear(net, absolute_shifts(r), analyzer_cfg.engine);
      const double gd = g.delay_noise();
      std::printf("golden (full nonlinear): %.2f ps combined delay noise "
                  "(linear model error %+.1f%%)\n",
                  gd / ps, gd != 0 ? 100.0 * (r.delay_noise() - gd) / gd : 0.0);
    }

    if (has_flag(argc, argv, "--functional")) {
      SuperpositionEngine eng(net, analyzer_cfg.engine);
      const FunctionalNoiseResult f = analyze_functional_noise(eng);
      std::printf("functional noise (victim quiet %s): input peak %.3f V, "
                  "receiver output peak %.3f V -> %s\n",
                  f.victim_quiet_high ? "HIGH" : "LOW", f.input_peak,
                  f.output_peak, f.failure ? "FAILURE" : "ok");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "analysis error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_serve(int argc, char** argv, const AnalysisConfig& cfg) {
  server::ServerOptions opts;
  opts.config = cfg;
  opts.queue_soft_limit = count_flag(argc, argv, "--queue-soft", 8, 1);
  opts.queue_hard_limit = count_flag(argc, argv, "--queue-hard", 64,
                                     static_cast<int>(opts.queue_soft_limit));
  if (const char* dir = str_flag(argc, argv, "--state-dir"))
    opts.durability.state_dir = dir;
  opts.durability.recover = has_flag(argc, argv, "--recover");
  if (opts.durability.recover && opts.durability.state_dir.empty()) {
    std::fprintf(stderr, "error: --recover requires --state-dir\n");
    return 2;
  }
  if (const char* fsync = str_flag(argc, argv, "--fsync")) {
    if (std::strcmp(fsync, "always") == 0) {
      opts.durability.fsync = durable::FsyncPolicy::kAlways;
    } else if (std::strcmp(fsync, "none") == 0) {
      opts.durability.fsync = durable::FsyncPolicy::kNone;
    } else {
      std::fprintf(stderr, "error: --fsync must be none or always\n");
      return 2;
    }
  }
  opts.durability.snapshot_every =
      count_flag(argc, argv, "--snapshot-every", 32);
  opts.durability.watchdog_ms =
      std::max(0.0, num_flag(argc, argv, "--watchdog-ms", 0.0));
  server::ProtocolLimits& limits = opts.limits;
  limits.max_request_bytes =
      count_flag(argc, argv, "--max-request-bytes", limits.max_request_bytes);
  limits.max_request_nodes =
      count_flag(argc, argv, "--max-request-nodes", limits.max_request_nodes);
  limits.max_design_nets =
      count_flag(argc, argv, "--max-design-nets", limits.max_design_nets);
  server::Server srv(opts);
  if (const char* path = str_flag(argc, argv, "--socket"))
    return srv.serve_unix(path);
  return srv.serve_stream(std::cin, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h"))
    return usage(stdout);
  const StatusOr<std::vector<std::string>> files = positional_args(argc, argv);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().to_string().c_str());
    return 2;
  }
  const ObsFlags obs_flags = setup_observability(argc, argv);
  // Chaos harness: install the deterministic fault-injection config before
  // any analysis runs. Probes key on stable identities (net index, cache
  // key), so a fixed spec + seed reproduces bit-for-bit at any --jobs.
  if (const char* spec_str = str_flag(argc, argv, "--inject-faults")) {
    StatusOr<fault::FaultSpec> spec = fault::parse_fault_spec(spec_str);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
      return 2;
    }
    fault::install(*spec, static_cast<std::uint64_t>(
                              num_flag(argc, argv, "--fault-seed", 1)));
  }

  int rc;
  if (has_flag(argc, argv, "--screen")) {
    rc = run_screening(*files);
  } else {
    // The ONE flag -> configuration path: --config FILE first, then the
    // config flags, through the validation the server's `config` verb uses.
    AnalysisConfig cfg;
    if (Status s = cfg.apply_flags({argv + 1, argv + argc}); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
      return 2;
    }
    if (has_flag(argc, argv, "--serve")) {
      rc = run_serve(argc, argv, cfg);
    } else if (has_flag(argc, argv, "--batch")) {
      rc = run_batch(argc, argv, *files, cfg);
    } else if (argc < 2 || argv[1][0] == '-') {
      return usage();
    } else {
      rc = run_single(argc, argv, cfg);
    }
  }
  const int obs_rc = finalize_observability(obs_flags);
  return rc ? rc : obs_rc;
}
