#include "clarinet/analysis_config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "util/units.hpp"

namespace dn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The fields one key sets. They share one type and one default, so a
/// key never overwrites another key's field and keys apply in any order;
/// to_json reads the first.
using Fields = std::variant<std::vector<bool*>, std::vector<int*>,
                            std::vector<double*>>;

template <class T, class... More>
Fields refs(T* first, More*... more) {
  static_assert((std::is_same_v<T, More> && ...), "one type per key");
  return std::vector<T*>{first, more...};
}

template <class V>
using FieldType = std::remove_pointer_t<typename std::decay_t<V>::value_type>;

struct Key {
  const char* name;
  const char* flag = nullptr;  // CLI spelling; nullptr: no flag.
  const char* arg = nullptr;   // The flag's value; nullptr: a bare switch.
  double unit = 1.0;           // Field = JSON value * unit (ps, ns or 1).
  bool negated = false;        // The bool field holds the key's negation.
  double lo = -kInf;           // Valid numbers, in the JSON unit: [lo, hi],
  double hi = kInf;            // or (lo, hi] when lo_open.
  bool lo_open = false;
  bool scheduling = false;     // Changes how work runs, never its results.
  const char* help = "";
  Fields (*fields)(BatchOptions&, AnalyzerConfig&);
};

// Every key, in to_json order. `fields` takes (BatchOptions, AnalyzerConfig).
const Key kKeys[] = {
    {.name = "jobs", .flag = "--jobs", .arg = "N", .lo = 0, .scheduling = true,
     .help = "worker threads (0 = one per core)",
     .fields = [](auto& b, auto&) { return refs(&b.jobs); }},
    {.name = "top_k", .flag = "--top", .arg = "K", .lo = 0, .scheduling = true,
     .help = "size of the worst-nets ranking",
     .fields = [](auto& b, auto&) { return refs(&b.top_k); }},
    {.name = "fidelity_ladder", .help = "tiered screening ladder on",
     .fields = [](auto& b, auto&) { return refs(&b.ladder.enabled); }},
    {.name = "fidelity_threshold_ps", .flag = "--fidelity-threshold",
     .arg = "PS", .unit = units::ps, .lo = 0, .help = "ladder prune threshold",
     .fields = [](auto& b, auto&) { return refs(&b.ladder.dn_threshold); }},
    {.name = "fidelity_margin", .flag = "--fidelity-margin", .arg = "F",
     .lo = 1, .help = "tier-1 safety margin (>= 1)",
     .fields = [](auto& b, auto&) { return refs(&b.ladder.tier1_margin); }},
    {.name = "fidelity_max_tier", .lo = 0, .hi = 2,
     .help = "highest ladder tier to run (2 = full)",
     .fields = [](auto& b, auto&) { return refs(&b.ladder.max_tier); }},
    {.name = "window_pruning",
     .help = "drop aggressors outside their switching windows",
     .fields = [](auto&, auto& a) { return refs(&a.analysis.window_pruning); }},
    {.name = "deadline_ms", .flag = "--deadline-ms", .arg = "MS",
     .scheduling = true, .help = "wall-clock budget of the run (<0 = none)",
     .fields = [](auto& b, auto&) { return refs(&b.deadline_ms); }},
    {.name = "exhaustive", .flag = "--exhaustive", .negated = true,
     .help = "exhaustive alignment search (no 8-pt tables)",
     .fields = [](auto&, auto& a) { return refs(&a.use_prediction_tables); }},
    {.name = "thevenin", .flag = "--thevenin", .negated = true,
     .help = "traditional Thevenin holding (no Rtr)",
     .fields = [](auto&, auto& a) {
       return refs(&a.analysis.use_transient_holding);
     }},
    {.name = "prereduce", .flag = "--prereduce",
     .help = "TICER-prereduce nets before analysis",
     .fields = [](auto&, auto& a) { return refs(&a.engine.prereduce); }},
    {.name = "dt_ps", .unit = units::ps, .lo = 0, .lo_open = true,
     .help = "reference time step",
     .fields = [](auto&, auto& a) { return refs(&a.engine.dt); }},
    {.name = "horizon_ns", .unit = units::ns, .help = "simulated time span",
     .fields = [](auto&, auto& a) { return refs(&a.engine.horizon); }},
    {.name = "model_alignment_iterations", .lo = 1, .hi = 16,
     .help = "outer Rtr/alignment fix-point passes",
     .fields = [](auto&, auto& a) {
       return refs(&a.analysis.model_alignment_iterations);
     }},
    {.name = "rtr_max_iterations", .lo = 1, .help = "Rtr extraction passes",
     .fields = [](auto&, auto& a) {
       return refs(&a.analysis.rtr.max_iterations);
     }},
    {.name = "newton_max_iterations", .lo = 1,
     .help = "Newton iterations per time step",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.newton.max_iterations);
     }},
    {.name = "newton_v_tol", .lo = 0, .lo_open = true,
     .help = "Newton voltage tolerance [V]",
     .fields = [](auto&, auto& a) { return refs(&a.engine.newton.v_tol); }},
    // Every adaptive sim family but the Rtr extraction, which measures the
    // DIFFERENCE of two nearly identical sims and keeps its fixed grid.
    {.name = "lte_tol", .flag = "--lte-tol", .arg = "V", .lo = 0,
     .help = "adaptive-step LTE bound [V]; 0 = fixed grid",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.lte_tol, &a.engine.ceff.lte_tol,
                   &a.engine.ceff.fit.lte_tol, &a.analysis.search.lte_tol,
                   &a.table_spec.search.lte_tol);
     }},
    // The dt growth caps and Jacobian-reuse budgets default differently
    // per sim family, so each family has its own key.
    {.name = "max_dt_growth", .flag = "--max-dt-growth", .arg = "F", .lo = 1,
     .hi = 64, .lo_open = true,
     .help = "max adaptive-dt growth, superposition sims",
     .fields = [](auto&, auto& a) { return refs(&a.engine.max_dt_growth); }},
    {.name = "ceff_max_dt_growth", .lo = 1, .hi = 64, .lo_open = true,
     .help = "max adaptive-dt growth, Ceff and fit sims",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.ceff.max_dt_growth,
                   &a.engine.ceff.fit.max_dt_growth);
     }},
    {.name = "stale_jacobian_iters", .flag = "--stale-jacobian-iters",
     .arg = "N", .lo = 0, .hi = 1000,
     .help = "Jacobian reuse, superposition sims; 0 = off",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.newton.stale_jacobian_iters);
     }},
    {.name = "search_stale_jacobian_iters", .lo = -1, .hi = 1000,
     .help = "Jacobian reuse, fit/search/Rtr; -1 = inherit",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.ceff.fit.stale_jacobian_iters,
                   &a.analysis.search.stale_jacobian_iters,
                   &a.table_spec.search.stale_jacobian_iters,
                   &a.analysis.rtr.stale_jacobian_iters);
     }},
    {.name = "warm_start", .flag = "--warm-start", .arg = "0|1",
     .help = "reuse DC operating points across sims",
     .fields = [](auto&, auto& a) {
       return refs(&a.engine.warm_start, &a.engine.ceff.warm_start,
                   &a.analysis.search.warm_start,
                   &a.table_spec.search.warm_start);
     }},
};

/// A key no longer in the table. Dumps written before its removal hold
/// it at `dumped` (JSON text), the value that behaves as today, so they
/// still apply.
struct RemovedKey {
  const char* name;
  const char* dumped;
  const char* instead;
};

constexpr const char* kScreenInstead =
    "screen with --fidelity 2 --fidelity-threshold PS --fidelity-margin 1";
constexpr const char* kRetryInstead =
    "a batch analyzes each net once (analysis is deterministic)";

const RemovedKey kRemovedKeys[] = {
    {"screen_below_ps", "-1", kScreenInstead},
    {"screen_vn_below_v", "-1", kScreenInstead},
    {"max_retries", "0", kRetryInstead},
    {"retry_backoff_ms", "1", kRetryInstead},
    {"solver", "\"auto\"",
     "the system size picks the linear solver (SmallLu up to 16 unknowns, "
     "SparseLu above)"},
    {"rtr_max_dt_growth", "4",
     "the Rtr driver sims run on the fixed dt_ps grid, simulating only the "
     "window the noise touches"},
};

// The config flags outside the table: a file of keys, and the one flag
// that sets two keys.
constexpr std::string_view kConfigFlag = "--config";
constexpr std::string_view kFidelityFlag = "--fidelity";

const Key* find_key(std::string_view name) {
  for (const Key& k : kKeys)
    if (name == k.name) return &k;
  return nullptr;
}

const Key* find_flag(std::string_view flag) {
  for (const Key& k : kKeys)
    if (k.flag && flag == k.flag) return &k;
  return nullptr;
}

const RemovedKey* find_removed(std::string_view name) {
  for (const RemovedKey& r : kRemovedKeys)
    if (name == r.name) return &r;
  return nullptr;
}

/// The key's JSON value converted to its fields' type.
template <class T>
StatusOr<T> decode(const Key& k, const json::Value& v) {
  if constexpr (std::is_same_v<T, bool>) {
    StatusOr<bool> r = v.require_bool(k.name);
    if (!r.ok()) return r.status();
    return *r != k.negated;
  } else if constexpr (std::is_same_v<T, int>) {
    return v.require_int(k.name);
  } else {
    StatusOr<double> r = v.require_number(k.name);
    if (!r.ok()) return r.status();
    // A negative time (ps/ns key) means "off" and is stored as -1.
    return k.unit != 1.0 && *r < 0 ? -1.0 : *r * k.unit;
  }
}

template <class T>
json::Value encode(const Key& k, T field) {
  if constexpr (std::is_same_v<T, bool>) {
    return field != k.negated;
  } else if constexpr (std::is_same_v<T, double>) {
    return k.unit != 1.0 && field < 0 ? -1.0 : field / k.unit;
  } else {
    return field;
  }
}

Status write_key(const Key& k, const json::Value& v, BatchOptions& b) {
  return std::visit(
      [&](const auto& targets) -> Status {
        using T = FieldType<decltype(targets)>;
        StatusOr<T> value = decode<T>(k, v);
        if (!value.ok()) return value.status();
        for (T* t : targets) *t = *value;
        return Status::Ok();
      },
      k.fields(b, b.analyzer));
}

json::Value read_key(const Key& k, const BatchOptions& b) {
  // fields() only takes addresses; nothing is written through them here.
  BatchOptions& any = const_cast<BatchOptions&>(b);
  return std::visit(
      [&](const auto& targets) { return encode(k, *targets.front()); },
      k.fields(any, any.analyzer));
}

json::Value dump_keys(const BatchOptions& b, bool with_scheduling) {
  json::Object o;
  for (const Key& k : kKeys)
    if (with_scheduling || !k.scheduling) o[k.name] = read_key(k, b);
  return json::Value(std::move(o));
}

Status check_range(const Key& k, double v) {
  if ((k.lo_open ? v > k.lo : v >= k.lo) && v <= k.hi) return Status::Ok();
  std::ostringstream os;
  os << "config: " << k.name << " must be ";
  if (k.hi == kInf)
    os << (k.lo_open ? "> " : ">= ") << k.lo;
  else
    os << "in " << (k.lo_open ? '(' : '[') << k.lo << ", " << k.hi << ']';
  return Status::InvalidArgument(os.str());
}

Status bad_flag_value(std::string_view flag, std::string_view text,
                      const char* expected) {
  return Status::InvalidArgument(std::string(flag) + ": expected " + expected +
                                 ", got \"" + std::string(text) + "\"");
}

/// The argument after the first `flag` in `args`, nullptr when absent.
/// apply_flags has already rejected a value flag in last place.
const std::string* flag_value(const std::vector<std::string>& args,
                              std::string_view flag) {
  const auto it = std::find(args.begin(), args.end(), flag);
  return it == args.end() ? nullptr : &*(it + 1);
}

/// A config flag's argument as its key's JSON value.
StatusOr<json::Value> flag_json(const Key& k, const std::string& text,
                                BatchOptions& b) {
  return std::visit(
      [&](const auto& targets) -> StatusOr<json::Value> {
        using T = FieldType<decltype(targets)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (text != "0" && text != "1")
            return bad_flag_value(k.flag, text, "0 or 1");
          return json::Value(text == "1");
        } else {
          StatusOr<T> x = parse_flag<T>(k.flag, text);
          if (!x.ok()) return x.status();
          return json::Value(*x);
        }
      },
      k.fields(b, b.analyzer));
}

}  // namespace

template <class T>
StatusOr<T> parse_flag(std::string_view flag, std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(double(v)))
    return bad_flag_value(flag, text,
                          std::is_integral_v<T> ? "an integer" : "a number");
  return v;
}

template StatusOr<int> parse_flag(std::string_view, std::string_view);
template StatusOr<double> parse_flag(std::string_view, std::string_view);

Status AnalysisConfig::validate() const {
  for (const Key& k : kKeys) {
    const json::Value v = read_key(k, batch);
    if (!v.is_number()) continue;
    if (Status s = check_range(k, v.as_number()); !s.ok()) return s;
  }
  const SuperpositionOptions& e = batch.analyzer.engine;
  if (!(e.horizon > e.dt))
    return Status::InvalidArgument(
        "config: horizon_ns must exceed the time step dt_ps");
  return Status::Ok();
}

Status AnalysisConfig::apply(const json::Value& v) {
  if (!v.is_object())
    return Status::InvalidArgument("config must be a JSON object, got " +
                                   std::string(json::type_name(v.type())));
  // Strong guarantee: stage the merge, validate, then commit.
  AnalysisConfig staged = *this;
  for (const auto& [name, value] : v.as_object()) {
    if (const RemovedKey* r = find_removed(name)) {
      if (value.dump() == r->dumped) continue;
      return Status::InvalidArgument("config: key \"" + name +
                                     "\" was removed; " + r->instead);
    }
    const Key* k = find_key(name);
    if (!k)
      return Status::InvalidArgument("config: unknown key \"" + name + "\"");
    Status s = write_key(*k, value, staged.batch);
    if (!s.ok()) return s;
  }
  Status s = staged.validate();
  if (!s.ok()) return s;
  *this = std::move(staged);
  return Status::Ok();
}

Status AnalysisConfig::apply_flags(const std::vector<std::string>& args) {
  if (!args.empty() && is_value_flag(args.back()))
    return Status::InvalidArgument(args.back() + " needs a value");
  AnalysisConfig staged = *this;
  if (const std::string* path = flag_value(args, kConfigFlag)) {
    std::ifstream is(*path);
    if (!is) return Status::NotFound("cannot read config file " + *path);
    std::ostringstream text;
    text << is.rdbuf();
    StatusOr<json::Value> doc = json::parse(text.str());
    if (!doc.ok()) return doc.status();
    if (Status s = staged.apply(*doc); !s.ok()) return s;
  }
  if (const std::string* f = flag_value(args, kFidelityFlag)) {
    if (*f != "off" && *f != "0" && *f != "1" && *f != "2")
      return bad_flag_value(kFidelityFlag, *f, "off, 0, 1, or 2");
    staged.batch.ladder.enabled = *f != "off";
    if (*f != "off") staged.batch.ladder.max_tier = (*f)[0] - '0';
  }
  json::Object keys;
  for (const Key& k : kKeys) {
    if (!k.flag) continue;
    if (!k.arg) {
      if (std::find(args.begin(), args.end(), k.flag) != args.end())
        keys[k.name] = true;
    } else if (const std::string* text = flag_value(args, k.flag)) {
      StatusOr<json::Value> value = flag_json(k, *text, staged.batch);
      if (!value.ok()) return value.status();
      keys[k.name] = *value;
    }
  }
  Status s = staged.apply(json::Value(std::move(keys)));
  if (!s.ok()) return s;
  *this = std::move(staged);
  return Status::Ok();
}

StatusOr<AnalysisConfig> AnalysisConfig::from_json(const json::Value& v) {
  AnalysisConfig cfg;
  Status s = cfg.apply(v);
  if (!s.ok()) return s;
  return cfg;
}

StatusOr<AnalysisConfig> AnalysisConfig::from_json(std::string_view text) {
  StatusOr<json::Value> v = json::parse(text);
  if (!v.ok()) return v.status();
  return from_json(*v);
}

json::Value AnalysisConfig::to_json() const { return dump_keys(batch, true); }

std::string AnalysisConfig::to_json_text() const { return to_json().dump(); }

std::string AnalysisConfig::result_fingerprint() const {
  return dump_keys(batch, false).dump();
}

bool AnalysisConfig::is_flag(std::string_view arg) {
  return arg == kConfigFlag || arg == kFidelityFlag || find_flag(arg);
}

bool AnalysisConfig::is_value_flag(std::string_view arg) {
  const Key* k = find_flag(arg);
  return arg == kConfigFlag || arg == kFidelityFlag || (k && k->arg);
}

std::string AnalysisConfig::flags_usage() {
  std::ostringstream os;
  const auto line = [&os](std::string column, const char* help) {
    column.resize(std::max<std::size_t>(column.size() + 2, 29), ' ');
    os << "       " << column << help << "\n";
  };
  line("[" + std::string(kConfigFlag) + " FILE]", "JSON object of the keys");
  line("[" + std::string(kFidelityFlag) + " off|0|1|2]",
       "tiered screening ladder: max tier (2 = full)");
  for (const Key& k : kKeys) {
    const std::string arg = k.arg ? std::string(" ") + k.arg : "";
    if (k.flag) line(std::string("[") + k.flag + arg + "]", k.help);
  }
  os << "  keys without a flag (--config FILE or the server config verb):\n";
  for (const Key& k : kKeys)
    if (!k.flag) line(k.name, k.help);
  return os.str();
}

}  // namespace dn
