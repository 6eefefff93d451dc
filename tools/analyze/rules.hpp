/// \file rules.hpp
/// Rule metadata and the analysis entry points for tsce_analyze.
///
/// Eleven rules: the five token rules inherited from the original regex-based
/// tsce_lint (deterministic-rng, invalid-id-sentinel, no-iostream-hot,
/// metric-name-registry, pragma-once), four semantics-aware per-file rules
/// built on the scope parser (nondeterministic-iteration,
/// float-fitness-equality, rng-shared-capture, unused-suppression), and two
/// interprocedural rules written against the project call graph
/// (transitive-hot-alloc, rng-stream-escape — see interp.hpp).  Each rule
/// either prompted a real src/ fix or guards a bug class no other gate
/// covers; DESIGN.md §11 keeps the ledger.  Lock discipline is left to TSan.
///
/// Suppression: `// tsce-lint: allow(<rule>)` on the offending line, or on a
/// comment-only line directly above it.  Every suppression must match a
/// finding — stale ones are themselves findings (unused-suppression).

#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tsce::analyze {

struct Finding {
  std::string file;  ///< repo-relative path
  std::size_t line;  ///< 1-based; 0 = whole-file finding
  std::string rule;
  std::string message;
  /// Stable identity for SARIF baseline diffing: FNV-1a hash (hex) of
  /// rule + file + the trimmed source text of the flagged line, so findings
  /// survive unrelated edits that only shift line numbers.
  std::string fingerprint;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;  ///< one-liner for --help and SARIF shortDescription
};

/// Registry of every rule id the analyzer can emit (drives SARIF
/// tool.driver.rules and the unknown-suppression diagnostic).
[[nodiscard]] const std::array<RuleInfo, 11>& rule_registry() noexcept;

/// One row of the --stats wall-time table: milliseconds attributed to a rule,
/// or to a parenthesized analysis phase ("(lex+parse)", "(callgraph)") that
/// is shared by several rules.
struct RuleStat {
  std::string name;
  double millis = 0.0;
};

/// One translation unit handed to the project pass.
struct FileInput {
  std::string rel;  ///< repo-relative path (selects directory-scoped rules)
  std::string source;
};

struct ProjectResult {
  std::vector<Finding> findings;  ///< sorted by (file, line, rule)
  std::string callgraph_dot;      ///< Graphviz rendering; empty unless requested
  /// Wall-time per rule (plus shared phases), in pipeline order — drives
  /// tsce_analyze --stats.  Always populated; the timers cost microseconds.
  std::vector<RuleStat> stats;
};

/// Whole-program analysis: runs the per-file rules on every input, builds the
/// project call graph over the graph-eligible trees (src/, bench/, tools/),
/// runs the two interprocedural rules, and routes every finding through its
/// file's suppression comments.  \p registered_names is the metric/trace name
/// set of src/obs/names.hpp (see extract_registered_names); pass an empty
/// vector to keep the strict literal ban everywhere.
[[nodiscard]] ProjectResult analyze_project(
    const std::vector<FileInput>& files,
    const std::vector<std::string>& registered_names, bool want_dot = false);

/// Analyzes one translation unit (single-file convenience wrapper over
/// analyze_project; interprocedural rules still run, seeing just this file's
/// definitions).  \p rel_path selects the directory-scoped rules (e.g.
/// no-iostream-hot only fires under src/core|analysis|model) and is stamped
/// into each finding; \p source is the file's full text.
[[nodiscard]] std::vector<Finding> analyze_source(const std::string& rel_path,
                                                  std::string_view source);

/// Same, with the registered metric/trace name set.  Under bench/, tools/,
/// and examples/ a literal metric name is then a metric-name-registry finding
/// only when it is NOT in the set — those trees may name ad-hoc series, but
/// the name must still be declared in the registry so trace_report and the
/// exporter agree on it.  An empty set keeps the strict literal ban
/// everywhere (the two-argument overload above).
[[nodiscard]] std::vector<Finding> analyze_source(
    const std::string& rel_path, std::string_view source,
    const std::vector<std::string>& registered_names);

/// Extracts the registered metric/trace names from the text of
/// src/obs/names.hpp: every plain string literal in the file (the registry
/// holds nothing but `inline constexpr const char* kX = "...";` entries).
[[nodiscard]] std::vector<std::string> extract_registered_names(
    std::string_view names_source);

}  // namespace tsce::analyze
