// AnalysisConfig: the ONE externally-settable configuration surface.
//
// Every knob a user can turn — batch fan-out, the fidelity ladder, the
// deadline budget, engine time grid, alignment method, Rtr/Newton
// iteration limits — is a named JSON key, declared once in the key table
// in analysis_config.cpp (name, CLI flag, type, unit, range, scheduling
// or not, help, fields). apply, to_json, validate, the result
// fingerprint and the CLI flags all read that table, so every entry
// point shares one validation path and a bad value is always
// kInvalidArgument, never a crash deep in the engine.
//
// Contract:
//   - apply() merges keys; unknown keys and out-of-range values are
//     kInvalidArgument and leave *this intact. A removed key is accepted
//     only at the value old dumps hold for it, so old server snapshots
//     still restore; any other value names what replaced it.
//   - A key sets only fields that share one default, so keys apply in
//     any order with the same result.
//   - to_json() emits EVERY key in a fixed order: from_json(to_json())
//     round-trips, and two configs are equal iff their dumps are.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "clarinet/batch_analyzer.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace dn {

struct AnalysisConfig {
  /// The full engine stack: batch-level knobs plus the embedded
  /// AnalyzerConfig (engine/analysis/table options).
  BatchOptions batch{};

  /// Parses a complete config: defaults overlaid with the object's keys.
  static StatusOr<AnalysisConfig> from_json(const json::Value& v);
  static StatusOr<AnalysisConfig> from_json(std::string_view text);

  /// Merges `v` (a json object) into *this. Strong guarantee: on any
  /// error — unknown key, wrong type, out-of-range value — *this is
  /// unchanged and the Status is kInvalidArgument.
  Status apply(const json::Value& v);

  /// Merges `--config FILE`'s keys, then the config flags in `args` (a
  /// command line without the program name; other arguments are
  /// ignored), with the same guarantee. A malformed flag value is
  /// kInvalidArgument naming the flag; an unreadable file is kNotFound.
  Status apply_flags(const std::vector<std::string>& args);

  /// Every key, fixed order, current values. Round-trips through
  /// from_json.
  json::Value to_json() const;
  std::string to_json_text() const;

  /// Every key but the scheduling ones (jobs, top_k, deadline),
  /// as JSON: results under two configs can differ only if these do.
  std::string result_fingerprint() const;

  /// Range-checks the current values (apply/from_json already call it).
  Status validate() const;

  /// Whether `arg` is a config flag (a switch or one taking a value).
  static bool is_flag(std::string_view arg);
  /// Whether `arg` is a config flag followed by a value.
  static bool is_value_flag(std::string_view arg);

  /// Usage lines: one per config flag, then the keys without a flag.
  static std::string flags_usage();
};

/// A strict command-line number (T = int or double): the whole of `text`
/// must parse, to a finite value. Otherwise kInvalidArgument naming `flag`.
template <class T>
StatusOr<T> parse_flag(std::string_view flag, std::string_view text);

}  // namespace dn
