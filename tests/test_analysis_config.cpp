// AnalysisConfig tests: the single flag/JSON -> engine-options validation
// path shared by the CLI and the server's `config` verb, and the key table
// behind it.
#include "clarinet/analysis_config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace dn {
namespace {

using dn::units::ps;

TEST(AnalysisConfig, DefaultsValidateAndRoundTrip) {
  const AnalysisConfig cfg;
  EXPECT_TRUE(cfg.validate().ok());
  const std::string text = cfg.to_json_text();
  const StatusOr<AnalysisConfig> back =
      AnalysisConfig::from_json(std::string_view(text));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->to_json_text(), text);
}

TEST(AnalysisConfig, EveryKeyRoundTripsThroughJson) {
  AnalysisConfig cfg;
  const Status applied = cfg.apply(*json::parse(R"({
    "jobs": 3, "top_k": 7, "deadline_ms": 250, "exhaustive": true, "thevenin": true,
    "prereduce": true, "dt_ps": 2, "horizon_ns": 4,
    "model_alignment_iterations": 2, "rtr_max_iterations": 6,
    "newton_max_iterations": 50, "newton_v_tol": 1e-8})"));
  ASSERT_TRUE(applied.ok()) << applied.to_string();

  EXPECT_EQ(cfg.batch.jobs, 3);
  EXPECT_EQ(cfg.batch.top_k, 7);
  EXPECT_FALSE(cfg.batch.analyzer.use_prediction_tables);  // exhaustive
  EXPECT_FALSE(
      cfg.batch.analyzer.analysis.use_transient_holding);  // thevenin
  EXPECT_TRUE(cfg.batch.analyzer.engine.prereduce);
  EXPECT_EQ(cfg.batch.analyzer.engine.newton.max_iterations, 50);

  // Fixed-point: serialize, reparse, serialize again -> identical bytes.
  const std::string text = cfg.to_json_text();
  const StatusOr<AnalysisConfig> back =
      AnalysisConfig::from_json(std::string_view(text));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->to_json_text(), text);
}

TEST(AnalysisConfig, UnknownKeyIsInvalidArgumentNamingTheKey) {
  AnalysisConfig cfg;
  const Status s = cfg.apply(*json::parse("{\"jbos\":4}"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("jbos"), std::string::npos);
}

TEST(AnalysisConfig, BadTypesAndRangesAreInvalidArgumentNotCrashes) {
  const char* bad[] = {
      "{\"jobs\":\"four\"}",          // wrong type
      "{\"jobs\":2.5}",               // non-integral
      "{\"jobs\":-1}",                // range
      "{\"top_k\":-2}",               // range
      "{\"dt_ps\":0}",                // dt must be > 0
      "{\"dt_ps\":5,\"horizon_ns\":0.000001}",  // horizon <= dt
      "{\"model_alignment_iterations\":0}",
      "{\"newton_v_tol\":-1}",
      "{\"exhaustive\":1}",           // bool expected
      "[]",                           // not an object
  };
  for (const char* text : bad) {
    AnalysisConfig cfg;
    const StatusOr<json::Value> v = json::parse(text);
    ASSERT_TRUE(v.ok()) << text;
    const Status s = cfg.apply(*v);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(AnalysisConfig, ApplyHasTheStrongGuarantee) {
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":5}")).ok());
  const std::string before = cfg.to_json_text();
  // Valid first key, invalid second: NOTHING must stick.
  const Status s = cfg.apply(*json::parse("{\"jobs\":2,\"top_k\":-1}"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cfg.to_json_text(), before);
  EXPECT_EQ(cfg.batch.jobs, 5);
}

TEST(AnalysisConfig, FromJsonTextRejectsMalformedDocuments) {
  EXPECT_EQ(AnalysisConfig::from_json(std::string_view("{\"jobs\":"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnalysisConfig::from_json(std::string_view("42")).status().code(),
            StatusCode::kInvalidArgument);
}

// --- The key table ----------------------------------------------------

/// One non-default value per key (JSON text). Every key of to_json() must
/// appear here, so a new key cannot skip these checks.
const std::vector<std::pair<std::string, std::string>> kNonDefault = {
    {"jobs", "3"},
    {"top_k", "7"},
    {"fidelity_ladder", "true"},
    {"fidelity_threshold_ps", "12.5"},
    {"fidelity_margin", "4"},
    {"fidelity_max_tier", "1"},
    {"window_pruning", "false"},
    {"deadline_ms", "250"},
    {"exhaustive", "true"},
    {"thevenin", "true"},
    {"prereduce", "true"},
    {"dt_ps", "2"},
    {"horizon_ns", "8"},
    {"model_alignment_iterations", "3"},
    {"rtr_max_iterations", "6"},
    {"newton_max_iterations", "50"},
    {"newton_v_tol", "1e-8"},
    {"lte_tol", "1e-3"},
    {"max_dt_growth", "8"},
    {"ceff_max_dt_growth", "16"},
    {"stale_jacobian_iters", "0"},
    {"search_stale_jacobian_iters", "0"},
    {"warm_start", "false"},
};

const std::set<std::string> kSchedulingKeys = {"jobs", "top_k",
                                               "deadline_ms"};

/// The keys removed from the table, at the value every old dump holds.
const std::map<std::string, std::string> kRemovedKeys = {
    {"screen_below_ps", "-1"},
    {"screen_vn_below_v", "-1"},
    {"max_retries", "0"},
    {"retry_backoff_ms", "1"},
    {"solver", "\"auto\""},
    {"rtr_max_dt_growth", "4"}};

json::Value one_key(const std::string& key, const std::string& value) {
  json::Object o;
  o[key] = *json::parse(value);
  return json::Value(std::move(o));
}

AnalysisConfig all_non_default() {
  json::Object o;
  for (const auto& [key, value] : kNonDefault) o[key] = *json::parse(value);
  AnalysisConfig cfg;
  EXPECT_TRUE(cfg.apply(json::Value(std::move(o))).ok());
  return cfg;
}

TEST(AnalysisConfigTable, EveryKeyMovesAloneAndRoundTrips) {
  const json::Value defaults = AnalysisConfig{}.to_json();
  ASSERT_EQ(defaults.as_object().size(), kNonDefault.size());
  for (const auto& [key, value] : kNonDefault) {
    SCOPED_TRACE(key);
    ASSERT_NE(defaults.find(key), nullptr);
    AnalysisConfig cfg;
    const Status s = cfg.apply(one_key(key, value));
    ASSERT_TRUE(s.ok()) << s.to_string();
    const json::Value dump = cfg.to_json();
    // The key moved, and no other key did: a key writes only the fields
    // it reads back.
    for (const auto& [other, v] : defaults.as_object()) {
      if (other == key)
        EXPECT_NE(dump.find(other)->dump(), v.dump());
      else
        EXPECT_EQ(dump.find(other)->dump(), v.dump()) << other;
    }
    const StatusOr<AnalysisConfig> back = AnalysisConfig::from_json(dump);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->to_json_text(), cfg.to_json_text());
  }
}

TEST(AnalysisConfigTable, KeysApplyInAnyOrder) {
  const json::Value dump = all_non_default().to_json();
  const json::Object& forward = dump.as_object();
  std::vector<json::Object::Item> items(forward.begin(), forward.end());
  json::Object reversed;
  for (auto it = items.rbegin(); it != items.rend(); ++it)
    reversed[it->first] = it->second;
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(json::Value(std::move(reversed))).ok());
  EXPECT_EQ(cfg.to_json_text(), dump.dump());
}

TEST(AnalysisConfigTable, ResultFingerprintSkipsOnlySchedulingKeys) {
  const std::string base = AnalysisConfig{}.result_fingerprint();
  for (const auto& [key, value] : kNonDefault) {
    AnalysisConfig cfg;
    ASSERT_TRUE(cfg.apply(one_key(key, value)).ok()) << key;
    EXPECT_EQ(cfg.result_fingerprint() == base, kSchedulingKeys.count(key) == 1)
        << key;
  }
}

TEST(AnalysisConfigTable, NarrowedKeysSetOnlyTheirOwnFamily) {
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(*json::parse(
                  R"({"max_dt_growth":8,"stale_jacobian_iters":0})"))
                  .ok());
  const AnalyzerConfig& a = cfg.batch.analyzer;
  const AnalyzerConfig d;
  EXPECT_EQ(a.engine.max_dt_growth, 8.0);
  EXPECT_EQ(a.engine.ceff.max_dt_growth, d.engine.ceff.max_dt_growth);
  EXPECT_EQ(a.engine.ceff.fit.max_dt_growth, d.engine.ceff.fit.max_dt_growth);
  EXPECT_EQ(a.engine.newton.stale_jacobian_iters, 0);
  EXPECT_EQ(a.engine.ceff.fit.stale_jacobian_iters,
            d.engine.ceff.fit.stale_jacobian_iters);
  EXPECT_EQ(a.analysis.search.stale_jacobian_iters,
            d.analysis.search.stale_jacobian_iters);
  EXPECT_EQ(a.table_spec.search.stale_jacobian_iters,
            d.table_spec.search.stale_jacobian_iters);
  EXPECT_EQ(a.analysis.rtr.stale_jacobian_iters,
            d.analysis.rtr.stale_jacobian_iters);
}

TEST(AnalysisConfigTable, ParentFormatDumpRestoresEveryField) {
  // A dump written before the key table (flow keys first, per-family
  // overrides after, read in document order), with non-default flow and
  // override values. Server snapshots in this form must still recover.
  // The six keys removed since hold the values every such dump has.
  const char* kOldDump =
      R"({"jobs":3,"top_k":7,"screen_below_ps":-1,"screen_vn_below_v":-1,)"
      R"("fidelity_ladder":true,"fidelity_threshold_ps":12.5,)"
      R"("fidelity_margin":3,"fidelity_max_tier":2,"window_pruning":true,)"
      R"("max_retries":0,"retry_backoff_ms":1,"deadline_ms":-1,)"
      R"("exhaustive":false,"thevenin":false,"prereduce":false,)"
      R"("solver":"auto","dt_ps":1,"horizon_ns":4,)"
      R"("model_alignment_iterations":2,"rtr_max_iterations":4,)"
      R"("newton_max_iterations":80,"newton_v_tol":9.9999999999999995e-08,)"
      R"("lte_tol":0.001,"max_dt_growth":8,"ceff_max_dt_growth":16,)"
      R"("rtr_max_dt_growth":4,"stale_jacobian_iters":4,)"
      R"("search_stale_jacobian_iters":0,"warm_start":false})";
  const StatusOr<AnalysisConfig> cfg =
      AnalysisConfig::from_json(std::string_view(kOldDump));
  ASSERT_TRUE(cfg.ok()) << cfg.status().to_string();
  const json::Value old_dump = *json::parse(kOldDump);
  json::Object current;
  for (const auto& [key, value] : old_dump.as_object())
    if (!kRemovedKeys.count(key)) current[key] = value;
  EXPECT_EQ(cfg->to_json_text(), json::Value(std::move(current)).dump());

  const AnalyzerConfig& a = cfg->batch.analyzer;
  for (const double tol :
       {a.engine.lte_tol, a.engine.ceff.lte_tol, a.engine.ceff.fit.lte_tol,
        a.analysis.search.lte_tol, a.table_spec.search.lte_tol})
    EXPECT_EQ(tol, 0.001);
  EXPECT_EQ(a.engine.max_dt_growth, 8.0);
  EXPECT_EQ(a.engine.ceff.max_dt_growth, 16.0);
  EXPECT_EQ(a.engine.ceff.fit.max_dt_growth, 16.0);
  EXPECT_EQ(a.engine.newton.stale_jacobian_iters, 4);
  for (const int n : {a.engine.ceff.fit.stale_jacobian_iters,
                      a.analysis.search.stale_jacobian_iters,
                      a.table_spec.search.stale_jacobian_iters,
                      a.analysis.rtr.stale_jacobian_iters})
    EXPECT_EQ(n, 0);
  for (const bool warm :
       {a.engine.warm_start, a.engine.ceff.warm_start,
        a.analysis.search.warm_start, a.table_spec.search.warm_start})
    EXPECT_FALSE(warm);
  EXPECT_TRUE(cfg->batch.ladder.enabled);
  EXPECT_NEAR(cfg->batch.ladder.dn_threshold, 12.5 * ps, 1e-24);
}

TEST(AnalysisConfigTable, RemovedKeysApplyOnlyAtTheirOldDumpedValues) {
  for (const auto& [key, dumped] : kRemovedKeys) {
    SCOPED_TRACE(key);
    AnalysisConfig cfg;
    EXPECT_TRUE(cfg.apply(one_key(key, dumped)).ok());
    EXPECT_EQ(cfg.to_json_text(), AnalysisConfig{}.to_json_text());
    EXPECT_EQ(cfg.to_json().find(key), nullptr);
  }
  AnalysisConfig cfg;
  const Status s = cfg.apply(one_key("screen_below_ps", "2.5"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("screen_below_ps"), std::string::npos);
  EXPECT_NE(s.message().find("--fidelity-margin 1"), std::string::npos);
  EXPECT_EQ(cfg.apply(one_key("max_retries", "2")).code(),
            StatusCode::kInvalidArgument);
  // The Rtr sims have one fixed grid; a growth cap other than the dumped
  // default names why.
  const Status growth = cfg.apply(one_key("rtr_max_dt_growth", "2"));
  EXPECT_EQ(growth.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(growth.message().find("fixed dt_ps grid"), std::string::npos);
}

TEST(AnalysisConfigTable, RemovedSolverKeyAppliesOnlyAtAuto) {
  // Parent dumps hold "solver":"auto"; a forced backend is gone, because
  // the system size picks the linear solver.
  AnalysisConfig cfg;
  EXPECT_TRUE(cfg.apply(one_key("solver", "\"auto\"")).ok());
  EXPECT_EQ(cfg.to_json_text(), AnalysisConfig{}.to_json_text());
  for (const char* forced : {"\"dense\"", "\"sparse\"", "1"}) {
    SCOPED_TRACE(forced);
    const Status s = cfg.apply(one_key("solver", forced));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("system size"), std::string::npos);
  }
  EXPECT_FALSE(AnalysisConfig::is_flag("--solver"));
}

TEST(AnalysisConfigTable, DefaultsMatchTheGoldenDump) {
  const std::string path = std::string(DN_GOLDEN_DIR) + "/config_defaults.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), AnalysisConfig{}.to_json_text() + "\n");
}

// --- Command-line flags ------------------------------------------------

TEST(AnalysisConfigFlags, MalformedValuesAreRejectedNamingTheFlag) {
  const std::vector<std::vector<std::string>> bad = {
      {"--lte-tol", "abc"},    {"--jobs", "four"},
      {"--jobs", "2.5"},       {"--top", ""},
      {"--fidelity-threshold", "5ps"}, {"--lte-tol", "inf"},
      {"--warm-start", "yes"}, {"--fidelity", "3"},
      {"--max-dt-growth"}};
  for (const auto& args : bad) {
    SCOPED_TRACE(args[0]);
    AnalysisConfig cfg;
    const Status s = cfg.apply_flags(args);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(cfg.to_json_text(), AnalysisConfig{}.to_json_text());
  }
  AnalysisConfig cfg;
  EXPECT_NE(cfg.apply_flags({"--lte-tol", "abc"}).message().find("--lte-tol"),
            std::string::npos);
  EXPECT_NE(cfg.apply_flags({"--jobs", "four"}).message().find("--jobs"),
            std::string::npos);
}

TEST(AnalysisConfigFlags, FlagsEqualApplyingTheirKeys) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--batch", "--random", "2", "--jobs", "3", "--top", "2"},
        R"({"jobs":3,"top_k":2})"},
       {{"x.spef", "--exhaustive", "--fidelity", "1", "--warm-start", "0"},
        R"({"exhaustive":true,"fidelity_ladder":true,"fidelity_max_tier":1,)"
        R"("warm_start":false})"},
       {{"--fidelity-threshold", "20", "--lte-tol", "1e-3",
         "--stale-jacobian-iters", "0", "--max-dt-growth", "8"},
        R"({"fidelity_threshold_ps":20,"lte_tol":1e-3,)"
        R"("stale_jacobian_iters":0,"max_dt_growth":8})"},
       {{"--fidelity", "off"}, R"({"fidelity_ladder":false})"}};
  for (const auto& [args, keys] : cases) {
    SCOPED_TRACE(keys);
    AnalysisConfig from_flags;
    ASSERT_TRUE(from_flags.apply_flags(args).ok());
    AnalysisConfig from_keys;
    ASSERT_TRUE(from_keys.apply(*json::parse(keys)).ok());
    EXPECT_EQ(from_flags.to_json_text(), from_keys.to_json_text());
  }
}

TEST(AnalysisConfigFlags, ConfigFileAppliesFirstAndFlagsWin) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dn_config_flags_test.json")
          .string();
  {
    std::ofstream out(path);
    out << R"({"jobs":5,"top_k":3})";
  }
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply_flags({"--config", path, "--jobs", "2"}).ok());
  EXPECT_EQ(cfg.batch.jobs, 2);
  EXPECT_EQ(cfg.batch.top_k, 3);
  std::remove(path.c_str());
  EXPECT_EQ(cfg.apply_flags({"--config", path}).code(), StatusCode::kNotFound);
}

TEST(AnalysisConfigFlags, ValueFlagsAreKnownToTheArgumentScanner) {
  EXPECT_TRUE(AnalysisConfig::is_value_flag("--jobs"));
  EXPECT_TRUE(AnalysisConfig::is_value_flag("--fidelity"));
  EXPECT_TRUE(AnalysisConfig::is_value_flag("--config"));
  EXPECT_TRUE(AnalysisConfig::is_value_flag("--warm-start"));
  EXPECT_FALSE(AnalysisConfig::is_value_flag("--exhaustive"));
  EXPECT_FALSE(AnalysisConfig::is_value_flag("--random"));
  EXPECT_TRUE(AnalysisConfig::is_flag("--exhaustive"));
  EXPECT_TRUE(AnalysisConfig::is_flag("--fidelity"));
  EXPECT_FALSE(AnalysisConfig::is_flag("--screen-below"));
  const std::string usage = AnalysisConfig::flags_usage();
  EXPECT_NE(usage.find("[--lte-tol V]"), std::string::npos);
  EXPECT_NE(usage.find("[--fidelity off|0|1|2]"), std::string::npos);
}

TEST(AnalysisConfigFlags, StrictNumberParsing) {
  EXPECT_EQ(*parse_flag<double>("--x", "1e-3"), 1e-3);
  EXPECT_EQ(*parse_flag<double>("--x", "-20"), -20.0);
  EXPECT_EQ(*parse_flag<int>("--x", "-7"), -7);
  for (const char* bad : {"", "abc", "1e-3x", " 1", "nan", "inf"})
    EXPECT_FALSE(parse_flag<double>("--x", bad).ok()) << bad;
  for (const char* bad : {"", "four", "2.5", "1e3", "99999999999"})
    EXPECT_FALSE(parse_flag<int>("--x", bad).ok()) << bad;
}

}  // namespace
}  // namespace dn
