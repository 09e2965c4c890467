// The four benchmark workloads. Each run builds its inputs from the seed,
// sets up (timed separately, several times), runs a timed phase for the
// requested seconds, then checks its outputs. An untraced run reports the
// end-to-end metrics; a traced run (--trace 1) reports the per-layer
// metrics from spans around the calls into each layer and from the
// dn::obs registry's counters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "clarinet/analysis_config.hpp"
#include "clarinet/batch_analyzer.hpp"
#include "clarinet/fidelity_ladder.hpp"
#include "clarinet/screening.hpp"
#include "core/baselines.hpp"
#include "core/delay_noise.hpp"
#include "matrix/sparse.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "replay.hpp"
#include "server/design.hpp"
#include "server/session.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nb {

namespace {

namespace fs = std::filesystem;
using dn::BatchAnalyzer;
using dn::BatchNetResult;
using dn::BatchOptions;
using dn::CharacterizationCache;
using dn::CoupledNet;
using dn::units::fF;
using dn::units::kOhm;
using dn::units::ps;

constexpr int kSetupRepeats = 3;
constexpr double kMs = 1e3;
constexpr double kUntimed = std::numeric_limits<double>::infinity();
// Golden delay noise below this is too small for a percent error to mean
// anything (the bench_fig13 rule).
constexpr double kMinGoldenNoise = 8 * ps;

// ---------------------------------------------------------------------------
// Per-layer metric table: every traced run reports every name, so a layer
// a workload does not exercise reads 0.
// ---------------------------------------------------------------------------

struct LayerMetric {
  std::string name;
  const char* unit;
};

const char* const kStages[][3] = {
    // metric prefix, span layer, span name
    {"ceff.fit_ms_per_net", "ceff", "SuperpositionEngine"},
    {"sim.victim_ms_per_net", "sim", "victim_transition"},
    {"sim.aggressor_ms_per_net", "sim", "aggressor_noise"},
    {"core.composite_ms_per_net", "core", "align_aggressor_peaks"},
    {"core.rtr_ms_per_net", "core", "compute_rtr"},
    {"core.predict_ms_per_net", "core", "predict_peak_time"},
    {"core.receiver_ms_per_net", "core", "evaluate_receiver"},
};

const char* const kLayers[] = {"ceff", "sim", "core", "clarinet", "rcnet",
                               "server"};

const std::vector<LayerMetric>& layer_metric_table() {
  static const std::vector<LayerMetric> table = [] {
    std::vector<LayerMetric> t;
    for (const auto& s : kStages) {
      t.push_back({s[0], "ms"});
      t.push_back({std::string(s[0]) + ".share", "frac"});
    }
    const LayerMetric rest[] = {
        {"core.rtr_iters_per_net", "count"},
        {"core.receiver_calls_per_net", "count"},
        {"core.dn_err_mean_pct", "%"},
        {"core.dn_err_worst_pct", "%"},
        {"flow.replayed_nets", "count"},
        {"flow.unattributed_share", "frac"},
        {"flow.trace_overhead_frac", "frac"},
        {"sim.nonlinear_steps_per_net", "count"},
        {"sim.newton_iters_per_net", "count"},
        {"sim.linear_steps_per_net", "count"},
        {"sim.stale_reuse_frac", "frac"},
        {"sim.lte_reject_frac", "frac"},
        {"matrix.factor_ms_per_net", "ms"},
        {"matrix.solve_ms_per_net", "ms"},
        {"matrix.refactors_per_net", "count"},
        {"matrix.small_dense_frac", "frac"},
        {"matrix.dense_frac", "frac"},
        {"matrix.sparse_frac", "frac"},
        {"clarinet.characterize_s", "s"},
        {"clarinet.tables", "count"},
        {"clarinet.cache_hit_frac", "frac"},
        {"clarinet.batch_overhead_share", "frac"},
        {"clarinet.report_ms", "ms"},
        {"clarinet.tier0_ms_per_net", "ms"},
        {"clarinet.tier1_ms_per_net", "ms"},
        {"clarinet.tier0_pruned_frac", "frac"},
        {"clarinet.tier1_pruned_frac", "frac"},
        {"clarinet.tier2_frac", "frac"},
        {"rcnet.spef_parse_ms_per_net", "ms"},
        {"server.update_ms_p50", "ms"},
        {"server.snapshot_ms", "ms"},
        {"server.reanalyzed_per_edit", "count"},
        {"server.cache_hit_frac", "frac"},
        {"server.stats_ms", "ms"},
        {"server.recover_ms", "ms"},
    };
    t.insert(t.end(), std::begin(rest), std::end(rest));
    for (const char* layer : kLayers)
      t.push_back({std::string(layer) + ".self_share", "frac"});
    return t;
  }();
  return table;
}

/// Collects per-layer values, then emits the whole table in order.
class LayerValues {
 public:
  void set(const std::string& name, double v) { v_[name] = v; }
  void emit(Result& out) const {
    for (const LayerMetric& m : layer_metric_table()) {
      const auto it = v_.find(m.name);
      out.metric(m.name, it == v_.end() ? 0.0 : it->second, m.unit);
    }
  }

 private:
  std::map<std::string, double> v_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// dn::obs registry readings (traced runs turn the registry on).
// ---------------------------------------------------------------------------

const char* const kCounters[] = {
    "sim.nonlinear.steps",       "sim.nonlinear.newton_iters",
    "sim.linear.steps",          "sim.newton.stale_reuse",
    "sim.newton.fresh_factors",  "sim.lte.steps_accepted",
    "sim.lte.steps_rejected",    "solver.refactors",
    "solver.backend.small_dense", "solver.backend.dense",
    "solver.backend.sparse",     "ladder.tier0_evals",
    "ladder.tier1_evals"};
const char* const kHistSums[] = {
    "stage.solver_factor.seconds", "stage.solver_solve.seconds",
    "stage.analyze.seconds", "stage.characterize.seconds"};

class ObsReading {
 public:
  static ObsReading take() {
    ObsReading r;
    auto& reg = dn::obs::metrics();
    for (const char* c : kCounters)
      r.v_[c] = static_cast<double>(reg.counter(c).value());
    for (const char* h : kHistSums) r.v_[h] = reg.histogram(h).snapshot().sum;
    return r;
  }
  ObsReading operator-(const ObsReading& base) const {
    ObsReading d = *this;
    for (auto& [k, v] : d.v_) v -= base.v_.at(k);
    return d;
  }
  double operator[](const char* name) const { return v_.at(name); }

 private:
  std::map<std::string, double> v_;
};

void set_counter_metrics(const ObsReading& d, double per, LayerValues& lv) {
  lv.set("sim.nonlinear_steps_per_net", ratio(d["sim.nonlinear.steps"], per));
  lv.set("sim.newton_iters_per_net",
         ratio(d["sim.nonlinear.newton_iters"], per));
  lv.set("sim.linear_steps_per_net", ratio(d["sim.linear.steps"], per));
  lv.set("sim.stale_reuse_frac",
         ratio(d["sim.newton.stale_reuse"],
               d["sim.newton.stale_reuse"] + d["sim.newton.fresh_factors"]));
  lv.set("sim.lte_reject_frac",
         ratio(d["sim.lte.steps_rejected"],
               d["sim.lte.steps_rejected"] + d["sim.lte.steps_accepted"]));
  lv.set("matrix.factor_ms_per_net",
         ratio(d["stage.solver_factor.seconds"] * kMs, per));
  lv.set("matrix.solve_ms_per_net",
         ratio(d["stage.solver_solve.seconds"] * kMs, per));
  lv.set("matrix.refactors_per_net", ratio(d["solver.refactors"], per));
  const double picks = d["solver.backend.small_dense"] +
                       d["solver.backend.dense"] + d["solver.backend.sparse"];
  lv.set("matrix.small_dense_frac",
         ratio(d["solver.backend.small_dense"], picks));
  lv.set("matrix.dense_frac", ratio(d["solver.backend.dense"], picks));
  lv.set("matrix.sparse_frac", ratio(d["solver.backend.sparse"], picks));
}

/// Stage-replay, overhead and self-time metrics from the recorded spans.
void set_span_metrics(const Spans& spans, LayerValues& lv) {
  const double nets =
      static_cast<double>(spans.count("ceff", "SuperpositionEngine"));
  lv.set("flow.replayed_nets", nets);
  double stages_s = 0.0;
  for (const auto& s : kStages) stages_s += spans.total_s(s[1], s[2]);
  for (const auto& s : kStages) {
    const double t = spans.total_s(s[1], s[2]);
    lv.set(s[0], ratio(t * kMs, nets));
    lv.set(std::string(s[0]) + ".share", ratio(t, stages_s));
  }
  lv.set("core.receiver_calls_per_net",
         ratio(static_cast<double>(spans.count("core", "evaluate_receiver")),
               nets));
  const double analyze_s = spans.total_s("clarinet", "try_analyze");
  lv.set("flow.unattributed_share",
         analyze_s > 0 ? 1.0 - stages_s / analyze_s : 0.0);
  const auto self = spans.self_s_by_layer();
  double total_self = 0.0;
  for (const auto& [layer, s] : self) total_self += s;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    lv.set(std::string(layer) + ".self_share",
           it == self.end() ? 0.0 : ratio(it->second, total_self));
  }
}

/// Reported delay noise against full nonlinear (golden) simulation at the
/// reported alignment, over up to `cap` analyzed nets. Nets whose golden
/// noise is under kMinGoldenNoise are skipped. The gated figure is the
/// mean with the top and bottom tenth of the nets dropped: single nets
/// can be off by thousands of percent, and the plain mean then swings
/// with the draw.
class Accuracy {
 public:
  explicit Accuracy(std::size_t cap) : cap_(cap) {}

  void add(const CoupledNet& net, const dn::DelayNoiseResult& r) {
    if (nets_.size() < cap_) {
      nets_.push_back(net);
      results_.push_back(r);
    }
  }

  struct Stats {
    double mean_pct = 0.0;
    double trimmed_mean_pct = 0.0;
    double worst_pct = 0.0;
  };

  Stats compute(const dn::SuperpositionOptions& engine) const {
    std::vector<double> err;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      const double dn = results_[i].delay_noise();
      const double g = dn::golden_nonlinear(
                           nets_[i], dn::absolute_shifts(results_[i]), engine)
                           .delay_noise();
      if (g >= kMinGoldenNoise) err.push_back(100.0 * std::abs(dn - g) / g);
    }
    Stats st;
    if (!err.empty()) {
      std::sort(err.begin(), err.end());
      const std::size_t cut = err.size() / 10;
      st.mean_pct = mean(err.begin(), err.end());
      st.trimmed_mean_pct = mean(err.begin() + cut, err.end() - cut);
      st.worst_pct = err.back();
    }
    std::fprintf(stderr,
                 "golden: %zu of %zu nets above %.0f ps in %.2f s; error "
                 "trimmed mean %.2f%%, mean %.2f%%, worst %.1f%%\n",
                 err.size(), nets_.size(), kMinGoldenNoise / ps,
                 seconds_since(t0), st.trimmed_mean_pct, st.mean_pct,
                 st.worst_pct);
    return st;
  }

 private:
  static double mean(std::vector<double>::const_iterator first,
                     std::vector<double>::const_iterator last) {
    double sum = 0.0;
    for (auto it = first; it != last; ++it) sum += *it;
    return sum / static_cast<double>(last - first);
  }

  std::size_t cap_;
  std::vector<CoupledNet> nets_;
  std::vector<dn::DelayNoiseResult> results_;
};

void set_accuracy_metrics(const Accuracy::Stats& st, LayerValues& lv) {
  lv.set("core.dn_err_mean_pct", st.mean_pct);
  lv.set("core.dn_err_worst_pct", st.worst_pct);
}

/// The sparse solver memoizes fill-reducing orderings per sparsity
/// pattern, in a process-wide table it clears once it holds 128 patterns.
/// Factoring 128 throwaway patterns through the public SparseLu API
/// empties it of the net's own patterns, so the second of two analyses of
/// one net pays for its orderings again, as the first did.
void flush_ordering_memo() {
  for (std::size_t n = 2; n < 130; ++n) {
    std::vector<dn::Triplet> t;
    for (std::size_t i = 0; i < n; ++i) {
      t.push_back({i, i, 4.0});
      if (i + 1 < n) {
        t.push_back({i, i + 1, -1.0});
        t.push_back({i + 1, i, -1.0});
      }
    }
    (void)dn::SparseLu::make(dn::SparseMatrix::from_triplets(n, n, t));
  }
}

/// Replays the flow on `net` after a traced plain try_analyze, both cold,
/// gating on bit-identical delays; the plain result joins `acc`.
void replay_and_check(const dn::NoiseAnalyzer& analyzer, const CoupledNet& net,
                      std::uint64_t id, Spans& spans, int& rtr_iters,
                      Accuracy& acc, Result& res) {
  flush_ordering_memo();
  const dn::StatusOr<dn::DelayNoiseResult> plain = [&] {
    Spans::Scope span(spans, "clarinet", "try_analyze", id);
    return analyzer.try_analyze(net);
  }();
  flush_ordering_memo();
  dn::StatusOr<ReplayResult> rep = replay_flow(analyzer, net, spans, id);
  if (!plain.ok() || !rep.ok()) {
    res.gate(plain.ok() == rep.ok(),
             "stage replay and try_analyze disagree on success for net " +
                 std::to_string(id));
    return;
  }
  rtr_iters += rep->rtr_iterations;
  acc.add(net, *plain);
  res.gate(rep->nominal_t50 == plain->nominal_t50 &&
               rep->noisy_t50 == plain->noisy_t50,
           "stage replay t50 differs from try_analyze for net " +
               std::to_string(id));
}

// ---------------------------------------------------------------------------
// Batch workloads: batch_full, bus_large, ladder_quiet.
// ---------------------------------------------------------------------------

std::vector<CoupledNet> random_population(std::uint64_t seed, int n,
                                          bool quiet_mix) {
  dn::Rng rng(seed);
  std::vector<CoupledNet> nets;
  nets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    CoupledNet net = dn::random_coupled_net(rng);
    // The bench_perf_ladder population: 17 of every 20 nets quiet.
    if (quiet_mix && i % 20 < 17)
      for (auto& cc : net.couplings) cc.c *= 0.01;
    nets.push_back(std::move(net));
  }
  return nets;
}

/// 3-lane buses of 2k-3k nodes with wire R, C and coupling within 10% of
/// 1 kOhm, 60 fF and 30 fF. make_bus splits the same totals over however
/// many segments, so the node count sets the cost and not the physics.
/// Wider spreads (1k-4k nodes in six strata, 5-lane buses, 20% RC
/// jitter) made the per-bus medians and the error jump from seed to seed.
std::vector<CoupledNet> bus_population(std::uint64_t seed, std::size_t buses,
                                       bool smoke) {
  dn::Rng rng(seed);
  std::vector<CoupledNet> nets;
  for (std::size_t i = 0; i < buses; ++i) {
    const int nodes = smoke ? 60 : rng.uniform_int(2000, 3000);
    nets.push_back(dn::make_bus(3, nodes / 3, rng.uniform(0.9, 1.1) * kOhm,
                                rng.uniform(54, 66) * fF,
                                rng.uniform(27, 33) * fF));
  }
  return nets;
}

struct BatchSpec {
  std::vector<CoupledNet> nets;
  BatchOptions opts;
  std::size_t golden_nets = 0;  // Analyzed nets checked against golden.
};

/// Population size: the workload's nominal size, or more when the run is
/// long enough to get through it, so the timed phase sends every net once
/// (a repeat would find the solver's per-pattern ordering memo warm,
/// which distinct nets of a real design do not).
std::size_t population(const Options& opt, int nominal, double per_second) {
  return static_cast<std::size_t>(
      std::max(static_cast<double>(nominal), std::ceil(opt.seconds * per_second)));
}

BatchSpec batch_spec(const std::string& wl, const Options& opt) {
  BatchSpec s;
  s.opts = dn::AnalysisConfig{}.batch;  // What dnoise_cli --batch runs.
  s.opts.jobs = 1;
  if (wl == "batch_full") {
    s.nets = random_population(
        opt.seed, opt.smoke ? 3 : population(opt, 200, 60), false);
    s.golden_nets = 200;
  } else if (wl == "bus_large") {
    s.nets = bus_population(opt.seed, opt.smoke ? 1 : population(opt, 6, 3),
                            opt.smoke);
    s.golden_nets = 12;
  } else {  // ladder_quiet
    s.nets = random_population(
        opt.seed, opt.smoke ? 20 : population(opt, 1000, 400), true);
    s.golden_nets = 150;
    s.opts.ladder.enabled = true;
    s.opts.ladder.dn_threshold = 20 * ps;
  }
  return s;
}

/// Fills a fresh characterization cache with every receiver condition of
/// the population, so the timed phase never characterizes.
std::shared_ptr<CharacterizationCache> characterize(const BatchSpec& s) {
  auto cache =
      std::make_shared<CharacterizationCache>(s.opts.analyzer.table_spec);
  for (const CoupledNet& net : s.nets)
    (void)cache->try_table_for(net.victim.receiver, net.victim.output_rising);
  return cache;
}

/// A timed stretch of requests. The figures average each net's requests
/// first and then weigh every net reached once, so a net requested again
/// (a repeat, or a population the run wrapped around) does not count
/// double.
struct Pass {
  explicit Pass(std::size_t nets) : lat_sum(nets), cpu_sum(nets), count(nets) {}

  /// Nets requested at least once, in net order.
  std::vector<std::size_t> visited() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < count.size(); ++i)
      if (count[i]) out.push_back(i);
    return out;
  }
  /// Mean latency [s] of each net requested at least once.
  std::vector<double> net_latency_s() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < count.size(); ++i)
      if (count[i]) out.push_back(lat_sum[i] / count[i]);
    return out;
  }
  /// Nets per second of analysis time over the population.
  double nets_per_s() const {
    const std::vector<double> lat = net_latency_s();
    double sum = 0.0;
    for (const double l : lat) sum += l;
    return ratio(static_cast<double>(lat.size()), sum);
  }
  /// Mean process CPU seconds per net over the population.
  double cpu_per_net_s() const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < count.size(); ++i)
      if (count[i]) sum += cpu_sum[i] / count[i], ++n;
    return ratio(sum, static_cast<double>(n));
  }

  std::vector<double> lat_sum, cpu_sum;
  std::vector<int> count;
  double wall_s = 0.0;
  std::size_t requests = 0;
  std::size_t failed = 0;
};

/// Sends the population's nets as one-net BatchAnalyzer::analyze requests
/// (jobs 1), rendering each response as a user gets it (JSON and text),
/// and remembers each net's report digest and first result.
class BatchRunner {
 public:
  BatchRunner(const BatchSpec& spec,
              std::shared_ptr<CharacterizationCache> cache)
      : analyzer_(spec.opts, std::move(cache)) {
    for (std::size_t i = 0; i < spec.nets.size(); ++i) {
      singles_.push_back({spec.nets[i]});
      names_.push_back({"net" + std::to_string(i)});
    }
    digests_.assign(spec.nets.size(), 0);
    first_.resize(spec.nets.size());
  }

  /// Requests nets round-robin from net `first` until `seconds` have
  /// passed (at least one request) or `max_requests` were sent.
  Pass run(std::size_t first, double seconds, std::size_t max_requests,
           Spans* spans, Result& res, bool tamper = false) {
    Pass p(singles_.size());
    const auto t0 = Clock::now();
    std::size_t i = first;
    while (p.requests < max_requests &&
           (p.requests == 0 || seconds_since(t0) < seconds)) {
      const std::size_t idx = i++ % singles_.size();
      const double cpu0 = cpu_seconds();
      const auto r0 = Clock::now();
      const std::uint64_t digest = request(idx, spans, p.failed);
      p.lat_sum[idx] += seconds_since(r0);
      p.cpu_sum[idx] += cpu_seconds() - cpu0;
      ++p.count[idx];
      ++p.requests;
      check_digest(idx, tamper ? digest ^ 1 : digest, res);
    }
    p.wall_s = seconds_since(t0);
    return p;
  }

  /// Nets analyzed at least once, in net order.
  std::vector<std::size_t> seen() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < first_.size(); ++i)
      if (first_[i]) out.push_back(i);
    return out;
  }
  const BatchNetResult& first_result(std::size_t i) const { return *first_[i]; }
  bool analyzed(std::size_t i) const {
    return first_[i] && first_[i]->status.ok() && !first_[i]->screened_out &&
           !first_[i]->deferred;
  }
  const BatchAnalyzer& analyzer() const { return analyzer_; }

 private:
  std::uint64_t request(std::size_t idx, Spans* spans, std::size_t& failed) {
    std::optional<Spans::Scope> whole;
    std::optional<Spans::Scope> part;
    if (spans) {
      whole.emplace(*spans, "clarinet", "request", idx);
      part.emplace(*spans, "clarinet", "BatchAnalyzer::analyze", idx);
    }
    dn::BatchResult br = analyzer_.analyze(singles_[idx], names_[idx]);
    if (spans) part.emplace(*spans, "clarinet", "report", idx);
    const std::string json = br.to_json();
    const std::string text = br.to_text();
    part.reset();
    whole.reset();
    BatchNetResult& nr = br.nets.front();
    if (nr.outcome == dn::AnalysisOutcome::kFailed) ++failed;
    if (!first_[idx]) first_[idx] = std::move(nr);
    return fnv1a(text, fnv1a(json));
  }

  void check_digest(std::size_t idx, std::uint64_t digest, Result& res) {
    if (digests_[idx] == 0) {
      digests_[idx] = digest;
      return;
    }
    res.gate(digests_[idx] == digest,
             "report digest of net " + std::to_string(idx) +
                 " differs between repeats");
  }

  BatchAnalyzer analyzer_;
  std::vector<std::vector<CoupledNet>> singles_;
  std::vector<std::vector<std::string>> names_;
  std::vector<std::uint64_t> digests_;
  std::vector<std::optional<BatchNetResult>> first_;
};

/// ladder_quiet: a survivor's report must equal a plain try_analyze.
void check_survivors(const BatchSpec& spec, const BatchRunner& runner,
                     Result& res) {
  const dn::NoiseAnalyzer plain(spec.opts.analyzer, runner.analyzer().cache());
  int checked = 0;
  for (const std::size_t i : runner.seen()) {
    if (checked == 4) break;
    if (!runner.analyzed(i)) continue;
    const BatchNetResult& nr = runner.first_result(i);
    dn::StatusOr<dn::DelayNoiseResult> r = plain.try_analyze(spec.nets[i]);
    bool same = r.ok();
    if (same) {
      dn::DelayNoiseReport rep =
          dn::DelayNoiseReport::from(spec.nets[i], *r, nr.name);
      rep.fidelity_tier = nr.report.fidelity_tier;
      same = rep.to_json() == nr.report.to_json();
    }
    res.gate(same, "ladder survivor net " + std::to_string(i) +
                       " differs from a plain try_analyze");
    ++checked;
  }
}

void batch_untraced(const std::string& wl, const Options& opt, Result& res) {
  std::vector<double> setup_s;
  BatchSpec spec;
  std::shared_ptr<CharacterizationCache> cache;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    spec = batch_spec(wl, opt);
    cache = characterize(spec);
    setup_s.push_back(seconds_since(t0));
  }

  BatchRunner runner(spec, cache);
  const Pass p = runner.run(0, opt.seconds,
                            std::numeric_limits<std::size_t>::max(), nullptr,
                            res);
  // Repeat gate: the first nets again, whatever the timed phase covered.
  const std::vector<std::size_t> seen = runner.seen();
  runner.run(0, kUntimed, std::min<std::size_t>(seen.size(), 2), nullptr, res,
             opt.tamper);
  if (spec.opts.ladder.enabled) check_survivors(spec, runner, res);

  Accuracy acc(spec.golden_nets);
  for (const std::size_t i : seen)
    if (runner.analyzed(i)) acc.add(spec.nets[i], runner.first_result(i).result);
  const Accuracy::Stats err = acc.compute(spec.opts.analyzer.engine);

  std::fprintf(stderr, "%s: %zu requests over %zu nets in %.2f s\n",
               wl.c_str(), p.requests, seen.size(), p.wall_s);
  res.attempted = p.requests;
  res.failed = p.failed;
  const double n = static_cast<double>(p.requests);
  res.metric("setup_s", median(setup_s), "s");
  res.metric("nets_per_s", p.nets_per_s(), "1/s");
  res.metric("request_ms_p50", percentile(p.net_latency_s(), 50) * kMs, "ms");
  res.metric("request_ms_p90", percentile(p.net_latency_s(), 90) * kMs, "ms");
  res.metric("cpu_per_op_ms", p.cpu_per_net_s() * kMs, "ms");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.metric("ok_frac", (n - static_cast<double>(p.failed)) / n, "frac");
  res.metric("dn_err_trimmed_mean_pct", err.trimmed_mean_pct, "%");
}

void batch_traced(const std::string& wl, const Options& opt, Spans& spans,
                  Result& res) {
  dn::obs::set_metrics_enabled(true);
  const ObsReading at_setup = ObsReading::take();
  const BatchSpec spec = batch_spec(wl, opt);
  const auto cache = characterize(spec);
  const ObsReading setup = ObsReading::take() - at_setup;
  LayerValues lv;
  lv.set("clarinet.characterize_s", setup["stage.characterize.seconds"]);
  lv.set("clarinet.tables", static_cast<double>(cache->tables_cached()));
  dn::obs::set_metrics_enabled(false);

  // rcnet: parse the population back from SPEF written by the repo's
  // own writer.
  {
    const fs::path dir = fs::path(opt.work_dir) / "spef";
    fs::create_directories(dir);
    const std::size_t n = std::min<std::size_t>(spec.nets.size(), 200);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string path = (dir / ("net" + std::to_string(i) + ".spef")).string();
      dn::write_spef_file(path, spec.nets[i]);
      Spans::Scope span(spans, "rcnet", "try_read_spef_file", i);
      res.gate(dn::try_read_spef_file(path).ok(),
               "SPEF round trip failed for net " + std::to_string(i));
    }
    lv.set("rcnet.spef_parse_ms_per_net",
           ratio(spans.total_s("rcnet", "try_read_spef_file") * kMs,
                 static_cast<double>(n)));
  }

  // Untraced, then traced, over as many fresh nets again: the throughput
  // ratio is the tracing overhead.
  BatchRunner runner(spec, cache);
  const Pass plain = runner.run(0, opt.seconds / 4,
                                std::numeric_limits<std::size_t>::max(),
                                nullptr, res);
  const std::uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  dn::obs::set_metrics_enabled(true);
  const ObsReading before = ObsReading::take();
  const Pass traced = runner.run(plain.requests, kUntimed, plain.requests, &spans,
                                 res);
  const ObsReading d = ObsReading::take() - before;
  dn::obs::set_metrics_enabled(false);
  // Repeat gate on the first traced nets.
  runner.run(plain.requests, kUntimed, std::min<std::size_t>(traced.requests, 2),
             nullptr, res, opt.tamper);
  const double k = static_cast<double>(traced.requests);
  lv.set("flow.trace_overhead_frac", 1.0 - traced.nets_per_s() / plain.nets_per_s());
  set_counter_metrics(d, k, lv);
  lv.set("clarinet.cache_hit_frac",
         ratio(static_cast<double>(cache->hits() - hits0),
               static_cast<double>(cache->hits() - hits0 + cache->misses() -
                                   misses0)));
  const double analyze_span = spans.total_s("clarinet", "BatchAnalyzer::analyze");
  lv.set("clarinet.batch_overhead_share",
         ratio(analyze_span - d["stage.analyze.seconds"], analyze_span));
  lv.set("clarinet.report_ms",
         ratio(spans.total_s("clarinet", "report") * kMs, k));

  // Ladder tiers, called from outside in the order the ladder runs them.
  std::size_t pruned0 = 0, pruned1 = 0, tier2 = 0;
  const std::vector<std::size_t> seen = traced.visited();
  if (spec.opts.ladder.enabled) {
    for (const std::size_t i : seen) {
      const BatchNetResult& nr = runner.first_result(i);
      {
        Spans::Scope span(spans, "clarinet", "try_tier0_bound", i);
        (void)dn::try_tier0_bound(spec.nets[i]);
      }
      if (nr.screened_out && nr.decided_by == dn::FidelityTier::kTier0) {
        ++pruned0;
        continue;
      }
      {
        Spans::Scope span(spans, "clarinet", "try_screen_net", i);
        (void)dn::try_screen_net(spec.nets[i]);
      }
      if (nr.screened_out) ++pruned1; else ++tier2;
    }
    const double n = static_cast<double>(seen.size());
    lv.set("clarinet.tier0_ms_per_net",
           ratio(spans.total_s("clarinet", "try_tier0_bound") * kMs, n));
    lv.set("clarinet.tier1_ms_per_net",
           ratio(spans.total_s("clarinet", "try_screen_net") * kMs, n));
    lv.set("clarinet.tier0_pruned_frac", ratio(static_cast<double>(pruned0), n));
    lv.set("clarinet.tier1_pruned_frac", ratio(static_cast<double>(pruned1), n));
    lv.set("clarinet.tier2_frac", ratio(static_cast<double>(tier2), n));
  }

  // Stage replay of the analyzed nets, bounded by the run's time budget.
  const dn::NoiseAnalyzer analyzer(spec.opts.analyzer, cache);
  int rtr_iters = 0;
  Accuracy acc(spec.golden_nets);
  const auto t0 = Clock::now();
  for (const std::size_t i : seen) {
    if (seconds_since(t0) >= opt.seconds / 2) break;
    if (runner.analyzed(i))
      replay_and_check(analyzer, spec.nets[i], i, spans, rtr_iters, acc, res);
  }
  set_span_metrics(spans, lv);
  set_accuracy_metrics(acc.compute(spec.opts.analyzer.engine), lv);
  lv.set("core.rtr_iters_per_net",
         ratio(rtr_iters, static_cast<double>(
                              spans.count("ceff", "SuperpositionEngine"))));
  res.attempted = plain.requests + traced.requests;
  res.failed = plain.failed + traced.failed;
  lv.emit(res);
}

// ---------------------------------------------------------------------------
// server_eco: closed loop, one client, in-process Session.
// ---------------------------------------------------------------------------

constexpr int kDesignNets = 100;
constexpr int kNeighbors = 2;

// The session analyzes at jobs 1: at jobs 2 the latency tail followed the
// load of other processes on the host (p90 spread 0.27 to 0.44 of the
// median over ten seeds). The checks outside the timed phase run at jobs 2,
// which also holds the session to jobs-independent output.
constexpr int kSessionJobs = 1;
constexpr int kCheckJobs = 2;

dn::AnalysisConfig server_config(int jobs = kSessionJobs) {
  dn::AnalysisConfig cfg;
  cfg.batch.jobs = jobs;
  return cfg;
}

// The design's seed and size (load_design takes an int seed).
std::uint64_t design_seed(const Options& opt) { return opt.seed % 1000000007; }
int design_nets(const Options& opt) { return opt.smoke ? 8 : kDesignNets; }

std::string load_design_line(const Options& opt) {
  return "{\"verb\":\"load_design\",\"design\":{\"random\":{\"seed\":" +
         std::to_string(design_seed(opt)) + ",\"nets\":" +
         std::to_string(design_nets(opt)) +
         ",\"neighbors\":" + std::to_string(kNeighbors) + "}}}";
}

/// Seeded ECO edits, mirrored onto a local Design so the traced run can
/// replay exactly the victims each analyze re-runs.
class EcoStream {
 public:
  explicit EcoStream(const Options& opt)
      : rng_(opt.seed * 0x9e3779b97f4a7c15ull + 17),
        design_(dn::server::Design::random(design_seed(opt), design_nets(opt),
                                           kNeighbors)) {}

  /// The next mutation request; applies it to the mirror and returns the
  /// victims it dirties.
  std::string next(std::vector<int>& dirtied) {
    const int net = rng_.uniform_int(0, static_cast<int>(design_.num_nets()) - 1);
    char buf[160];
    if (rng_.chance(0.8)) {
      const double scale = rng_.uniform(0.8, 1.25);
      std::snprintf(buf, sizeof buf,
                    "{\"verb\":\"update_net\",\"net\":\"n%d\",\"scale_c\":%.17g}",
                    net, scale);
      (void)design_.scale_net(net, 1.0, scale);
    } else {
      const double sizes[] = {1.0, 2.0, 4.0};
      const double size = sizes[rng_.uniform_int(0, 2)];
      std::snprintf(buf, sizeof buf,
                    "{\"verb\":\"update_driver\",\"net\":\"n%d\",\"size\":%.17g}",
                    net, size);
      (void)design_.set_driver_size(net, size);
    }
    dirtied = design_.affected_victims(net);
    return buf;
  }
  const dn::server::Design& design() const { return design_; }

 private:
  dn::Rng rng_;
  dn::server::Design design_;
};

const std::string kAnalyze = "{\"verb\":\"analyze\"}";

bool response_ok(const dn::json::Value& v) {
  const dn::json::Value* ok = v.find("ok");
  return ok && ok->as_bool();
}

const dn::json::Value* result_field(const dn::json::Value& v,
                                    const char* key) {
  const dn::json::Value* r = v.find("result");
  return r ? r->find(key) : nullptr;
}

double number_at(const dn::json::Value& v,
                 std::initializer_list<const char*> path) {
  const dn::json::Value* cur = &v;
  for (const char* k : path) {
    cur = cur->find(k);
    if (!cur) return 0.0;
  }
  return cur->as_number();
}

std::string report_of(const dn::json::Value& v) {
  const dn::json::Value* r = result_field(v, "report");
  return r ? r->dump() : std::string();
}

/// A journaled session with the design loaded and cold-analyzed.
struct ServerSetup {
  std::unique_ptr<dn::server::Session> session;
  std::string cold_report;
  dn::server::DurabilityOptions durability;
};

ServerSetup server_setup(const Options& opt, int repeat, Result& res) {
  ServerSetup s;
  s.durability.state_dir =
      (fs::path(opt.work_dir) / ("state" + std::to_string(repeat))).string();
  fs::remove_all(s.durability.state_dir);
  fs::create_directories(opt.work_dir);
  s.durability.fsync = dn::durable::FsyncPolicy::kNone;
  s.durability.snapshot_every = 32;
  s.session = std::make_unique<dn::server::Session>(server_config(),
                                                    s.durability);
  res.gate(s.session->start_durability().ok(), "server state dir unusable");
  res.gate(response_ok(s.session->handle_line(load_design_line(opt))),
           "load_design failed");
  const dn::json::Value cold = s.session->handle_line(kAnalyze);
  res.gate(response_ok(cold), "cold analyze failed");
  s.cold_report = report_of(cold);
  return s;
}

/// Closed-loop ECO cycles: one mutation, then one analyze.
struct EcoPass {
  std::vector<double> edit_s, analyze_s, stats_s;
  std::vector<std::string> mutations;
  std::vector<std::vector<int>> dirtied;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double reanalyzed = 0.0;
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::string last_report;
};

EcoPass eco_cycles(dn::server::Session& session, EcoStream& eco,
                   double seconds, std::size_t max_cycles, Spans* spans,
                   bool with_stats) {
  EcoPass p;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::uint64_t id = 0;
  while (p.analyze_s.size() < max_cycles &&
         (p.analyze_s.empty() || seconds_since(t0) < seconds)) {
    std::vector<int> dirtied;
    const std::string line = eco.next(dirtied);
    auto timed = [&](const std::string& req, const char* name,
                     std::vector<double>& lat) {
      std::optional<Spans::Scope> span;
      if (spans) span.emplace(*spans, "server", name, id);
      const auto r0 = Clock::now();
      dn::json::Value v = session.handle_line(req);
      lat.push_back(seconds_since(r0));
      ++p.requests;
      if (!response_ok(v)) ++p.failed;
      return v;
    };
    timed(line, "mutation", p.edit_s);
    const dn::json::Value a = timed(kAnalyze, "analyze", p.analyze_s);
    if (const dn::json::Value* n = result_field(a, "reanalyzed"))
      p.reanalyzed += n->as_number();
    if (with_stats) timed("{\"verb\":\"stats\"}", "stats", p.stats_s);
    p.mutations.push_back(line);
    p.dirtied.push_back(std::move(dirtied));
    p.last_report = report_of(a);
    ++id;
  }
  p.wall_s = seconds_since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  return p;
}

/// A fresh session fed the same edits must produce, cold, the report the
/// incremental session ended with.
void check_fresh_session(const Options& opt,
                         const std::vector<std::string>& mutations,
                         const std::string& incremental, Result& res) {
  dn::server::Session fresh(server_config(kCheckJobs));
  bool ok = response_ok(fresh.handle_line(load_design_line(opt)));
  for (const std::string& m : mutations)
    ok = response_ok(fresh.handle_line(m)) && ok;
  const std::string cold = report_of(fresh.handle_line(kAnalyze));
  res.gate(ok && !cold.empty() && cold == incremental,
           "incremental report differs from a fresh session's cold analyze");
}

/// Loads the session's characterization tables into a standalone cache
/// (via the save_cache verb), for analyses outside the session.
std::shared_ptr<CharacterizationCache> session_cache(
    dn::server::Session& session, const Options& opt, Result& res) {
  const std::string path =
      (fs::path(opt.work_dir) / "tables.cache").string();
  res.gate(response_ok(session.handle_line(
               "{\"verb\":\"save_cache\",\"path\":\"" + path + "\"}")),
           "save_cache failed");
  auto cache = std::make_shared<CharacterizationCache>(
      server_config().batch.analyzer.table_spec);
  res.gate(cache->load_file(path).ok(), "cache reload failed");
  return cache;
}

void server_untraced(const Options& opt, Result& res) {
  std::vector<double> setup_s;
  ServerSetup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    ServerSetup next = server_setup(opt, r, res);
    setup_s.push_back(seconds_since(t0));
    if (r > 0)
      res.gate(next.cold_report == s.cold_report,
               "cold analyze report differs between set-ups");
    s = std::move(next);
  }

  EcoStream eco(opt);
  const EcoPass p = eco_cycles(*s.session, eco, opt.seconds,
                               std::numeric_limits<std::size_t>::max(),
                               nullptr, false);
  // Repeat gate: an analyze with nothing dirty returns the same bytes.
  std::string again = report_of(s.session->handle_line(kAnalyze));
  if (opt.tamper) again += ' ';
  res.gate(again == p.last_report,
           "report digest differs between repeated analyzes");
  check_fresh_session(opt, p.mutations, p.last_report, res);

  // Accuracy of the edited design's victims against golden simulation.
  BatchOptions bo = server_config(kCheckJobs).batch;
  BatchAnalyzer batch(bo, session_cache(*s.session, opt, res));
  std::vector<CoupledNet> views;
  for (const int v : eco.design().victims())
    views.push_back(*eco.design().coupled_view(v));
  const dn::BatchResult br = batch.analyze(views);
  Accuracy acc(views.size());
  for (std::size_t i = 0; i < views.size(); ++i)
    if (br.nets[i].status.ok()) acc.add(views[i], br.nets[i].result);
  const Accuracy::Stats err = acc.compute(bo.analyzer.engine);

  res.attempted = p.requests;
  res.failed = p.failed;
  const double cycles = static_cast<double>(p.analyze_s.size());
  res.metric("setup_s", median(setup_s), "s");
  res.metric("nets_per_s", p.reanalyzed / p.wall_s, "1/s");
  res.metric("request_ms_p50", percentile(p.analyze_s, 50) * kMs, "ms");
  res.metric("request_ms_p90", percentile(p.analyze_s, 90) * kMs, "ms");
  res.metric("cpu_per_op_ms", p.cpu_s / cycles * kMs, "ms");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.metric("ok_frac",
             (static_cast<double>(p.requests) - static_cast<double>(p.failed)) /
                 static_cast<double>(p.requests),
             "frac");
  res.metric("dn_err_trimmed_mean_pct", err.trimmed_mean_pct, "%");
  std::fprintf(stderr, "server_eco: %zu cycles, edit p50 %.3f ms\n",
               p.analyze_s.size(), percentile(p.edit_s, 50) * kMs);
}

void server_traced(const Options& opt, Spans& spans, Result& res) {
  LayerValues lv;
  dn::obs::set_metrics_enabled(true);
  const ObsReading at_setup = ObsReading::take();
  ServerSetup s = server_setup(opt, 0, res);
  const ObsReading setup = ObsReading::take() - at_setup;
  dn::obs::set_metrics_enabled(false);
  lv.set("clarinet.characterize_s", setup["stage.characterize.seconds"]);

  EcoStream eco(opt);
  const EcoPass plain = eco_cycles(*s.session, eco, opt.seconds / 4,
                                   std::numeric_limits<std::size_t>::max(),
                                   nullptr, false);
  const dn::json::Value stats0 = s.session->handle_line("{\"verb\":\"stats\"}");
  dn::obs::set_metrics_enabled(true);
  const ObsReading before = ObsReading::take();
  const EcoPass traced = eco_cycles(*s.session, eco, kUntimed,
                                    plain.analyze_s.size(), &spans, true);
  const ObsReading d = ObsReading::take() - before;
  dn::obs::set_metrics_enabled(false);
  const dn::json::Value stats1 = s.session->handle_line("{\"verb\":\"stats\"}");

  lv.set("flow.trace_overhead_frac",
         1.0 - ratio(traced.reanalyzed, traced.wall_s) /
                   ratio(plain.reanalyzed, plain.wall_s));
  set_counter_metrics(d, traced.reanalyzed, lv);
  // The session's batch runs on kSessionJobs workers: the overhead is the
  // share of their capacity over the analyze requests not spent in
  // try_analyze.
  const double capacity =
      spans.total_s("server", "analyze") * static_cast<double>(kSessionJobs);
  lv.set("clarinet.batch_overhead_share",
         ratio(capacity - d["stage.analyze.seconds"], capacity));
  lv.set("server.update_ms_p50", percentile(traced.edit_s, 50) * kMs);
  lv.set("server.stats_ms", percentile(traced.stats_s, 50) * kMs);
  lv.set("server.reanalyzed_per_edit",
         ratio(traced.reanalyzed, static_cast<double>(traced.analyze_s.size())));
  const auto cache_delta = [&](const char* key) {
    return number_at(stats1, {"result", "characterization_cache", key}) -
           number_at(stats0, {"result", "characterization_cache", key});
  };
  const double hit_frac =
      ratio(cache_delta("hits"), cache_delta("hits") + cache_delta("misses"));
  lv.set("server.cache_hit_frac", hit_frac);
  lv.set("clarinet.cache_hit_frac", hit_frac);
  lv.set("clarinet.tables",
         number_at(stats1, {"result", "characterization_cache", "tables"}));

  std::vector<double> snapshot_s;
  for (int r = 0; r < 3; ++r) {
    Spans::Scope span(spans, "server", "snapshot", static_cast<std::uint64_t>(r));
    const auto t0 = Clock::now();
    res.gate(response_ok(s.session->handle_line("{\"verb\":\"snapshot\"}")),
             "snapshot verb failed");
    snapshot_s.push_back(seconds_since(t0));
  }
  lv.set("server.snapshot_ms", median(snapshot_s) * kMs);
  {
    dn::server::DurabilityOptions dur = s.durability;
    dur.recover = true;
    Spans::Scope span(spans, "server", "recover", 0);
    const auto t0 = Clock::now();
    dn::server::Session recovered(server_config(), dur);
    res.gate(recovered.start_durability().ok() && recovered.recovered(),
             "session recovery failed");
    lv.set("server.recover_ms", seconds_since(t0) * kMs);
  }

  // Stage replay of the victims the traced cycles re-analyzed, on the
  // mirrored design as it stood after the traced phase.
  const dn::NoiseAnalyzer analyzer(server_config().batch.analyzer,
                                   session_cache(*s.session, opt, res));
  int rtr_iters = 0;
  Accuracy acc(kDesignNets);
  const auto t0 = Clock::now();
  std::uint64_t id = 0;
  for (const auto& dirtied : traced.dirtied) {
    for (const int v : dirtied) {
      if (seconds_since(t0) >= opt.seconds / 2) break;
      const dn::StatusOr<CoupledNet> view = eco.design().coupled_view(v);
      if (view.ok())
        replay_and_check(analyzer, *view, id++, spans, rtr_iters, acc, res);
    }
  }
  set_span_metrics(spans, lv);
  set_accuracy_metrics(acc.compute(server_config().batch.analyzer.engine), lv);
  lv.set("core.rtr_iters_per_net",
         ratio(rtr_iters, static_cast<double>(
                              spans.count("ceff", "SuperpositionEngine"))));
  res.attempted = plain.requests + traced.requests;
  res.failed = plain.failed + traced.failed;
  lv.emit(res);
}

}  // namespace

bool run_workload(const Options& opt, Result& out) {
  static const char* const kWorkloads[] = {"batch_full", "bus_large",
                                           "ladder_quiet", "server_eco"};
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads))
    return false;
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  Spans spans;
  if (opt.workload == "server_eco") {
    if (opt.trace)
      server_traced(opt, spans, out);
    else
      server_untraced(opt, out);
  } else if (opt.trace) {
    batch_traced(opt.workload, opt, spans, out);
  } else {
    batch_untraced(opt.workload, opt, out);
  }
  if (opt.trace && !opt.trace_out.empty())
    out.gate(spans.write_chrome_json(opt.trace_out),
             "cannot write trace to " + opt.trace_out);
  fs::remove_all(opt.work_dir);
  return true;
}

}  // namespace nb
