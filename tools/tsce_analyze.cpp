/// \file tsce_analyze.cpp
/// Determinism and hot-path analyzer for the tsce codebase — the successor
/// to the regex-based tsce_lint.  A real C++ lexer plus a lightweight
/// declaration/scope parser (analyze/lexer.hpp, analyze/scopes.hpp;
/// deliberately no libclang so the tool builds and runs anywhere the code
/// does, in milliseconds) drives eleven rule visitors: the five inherited
/// token rules, four semantics-aware per-file rules, and two interprocedural
/// rules over a project-wide call graph (analyze/callgraph.hpp).  See
/// analyze/rules.cpp for the rule catalog and DESIGN.md §11 for the
/// architecture and the catch ledger that justifies each rule.
///
/// Usage:
///   tsce_analyze [--root <repo-root>] [--sarif <out.sarif>]
///                [--baseline <old.sarif>] [--changed-only [<git-ref>]]
///                [--callgraph-dot <out.dot>] [--stats [--csv]]
///   tsce_analyze --file <path> [--as <repo-relative-path>] [--sarif <out>]
///
/// The default mode walks src/, tools/, bench/, examples/, and tests/
/// (skipping fixtures/ directories) for .cpp/.hpp files and analyzes them as
/// one program: per-file rules first, then the call graph and the
/// interprocedural rules.  --file analyzes a single file — used by the
/// golden-fixture tests — and --as sets the repo-relative path it is analyzed
/// as, which selects the directory-scoped rules.
///
/// --baseline diffs the scan against a committed SARIF document and fails
/// only on NEW findings (matched on rule + file + fingerprint, not line
/// numbers).  --changed-only restricts *reported* findings to files changed
/// against a git ref (default HEAD) plus untracked files; the call graph is
/// still built project-wide so interprocedural findings stay sound.  A failed
/// `git diff` is a hard error (exit 2) — a silent empty scope would let a bad
/// ref pass CI.  --callgraph-dot writes the resolved call graph in Graphviz
/// DOT form.  --stats prints a per-rule finding count and wall-time table to
/// stdout (--csv for a machine-readable form).
///
/// Findings print to stderr in file:line: [rule] message form; with --sarif a
/// SARIF 2.1.0 document is also written.  Exit: 0 clean (or no new findings
/// under --baseline), 1 findings, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/rules.hpp"
#include "analyze/sarif.hpp"

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersion = "1.0.0";

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

int usage(int code) {
  std::printf(
      "usage: tsce_analyze [--root <repo-root>] [--sarif <out.sarif>]\n"
      "                    [--baseline <old.sarif>] [--changed-only [<ref>]]\n"
      "                    [--callgraph-dot <out.dot>] [--stats [--csv]]\n"
      "       tsce_analyze --file <path> [--as <rel-path>] [--names <hpp>]\n"
      "                    [--sarif <out>]\n"
      "\n--names points at a metric-name registry header (default: the\n"
      "repo's src/obs/names.hpp under --root, in both modes); its string\n"
      "literals are the names a bench/tools/examples literal may legally\n"
      "spell out.\n"
      "--baseline exits 1 only on findings absent from the given SARIF\n"
      "document (rule+file+fingerprint match).  --changed-only reports only\n"
      "files changed vs. a git ref (default HEAD) or untracked; a failed git\n"
      "diff is a hard error, not an empty scope.  --stats prints per-rule\n"
      "finding counts and wall times (--csv: rule,findings,millis rows).\n"
      "\nrules:\n");
  for (const tsce::analyze::RuleInfo& r : tsce::analyze::rule_registry()) {
    std::printf("  %-26s %.*s\n", std::string(r.id).c_str(),
                static_cast<int>(r.summary.size()), r.summary.data());
  }
  return code;
}

/// Single-quotes \p s for POSIX sh, escaping embedded quotes, so paths with
/// spaces (or worse) survive the popen shell.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += '\'';
  return out;
}

/// NUL-separated fields of a shell command's stdout (the `git -z` framing:
/// paths are emitted verbatim, never quoted or escaped, so spaces and quotes
/// in filenames round-trip).  ok=false when the command could not be started
/// or exited non-zero.
std::vector<std::string> command_fields(const std::string& cmd, bool& ok) {
  std::vector<std::string> fields;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ok = false;
    return fields;
  }
  std::string current;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    current.append(buf, got);
  }
  ok = pclose(pipe) == 0;
  std::size_t start = 0;
  while (start < current.size()) {
    const std::size_t nul = current.find('\0', start);
    const std::size_t end = nul == std::string::npos ? current.size() : nul;
    if (end > start) fields.push_back(current.substr(start, end - start));
    start = end + 1;
  }
  return fields;
}

/// Files changed against \p ref plus untracked files, repo-relative.
/// ok=false when `git diff` itself failed (bad ref, not a repo) — the caller
/// must treat that as a usage error, NOT as "nothing changed".
std::set<std::string> changed_files(const fs::path& root,
                                    const std::string& ref, bool& ok) {
  std::set<std::string> changed;
  const std::string git = "git -C " + shell_quote(root.string()) + " ";
  bool diff_ok = false;
  for (std::string& field : command_fields(
           git + "diff --name-only -z " + shell_quote(ref) + " 2>/dev/null",
           diff_ok)) {
    changed.insert(std::move(field));
  }
  ok = diff_ok;
  if (!diff_ok) return changed;
  // Untracked files are additive; a failure here (pathological, given the
  // diff just succeeded) only narrows the report and is safe to tolerate.
  bool ls_ok = false;
  for (std::string& field : command_fields(
           git + "ls-files --others --exclude-standard -z 2>/dev/null",
           ls_ok)) {
    changed.insert(std::move(field));
  }
  return changed;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string single_file;
  std::string as_path;
  std::string sarif_path;
  std::string names_path;
  std::string baseline_path;
  std::string dot_path;
  bool want_stats = false;
  bool stats_csv = false;
  bool changed_only = false;
  std::string changed_ref = "HEAD";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--file" && i + 1 < argc) {
      single_file = argv[++i];
    } else if (arg == "--as" && i + 1 < argc) {
      as_path = argv[++i];
    } else if (arg == "--names" && i + 1 < argc) {
      names_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--callgraph-dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--csv") {
      stats_csv = true;
    } else if (arg == "--changed-only") {
      changed_only = true;
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        changed_ref = argv[++i];
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "tsce_analyze: unknown argument '%s'\n", argv[i]);
      return usage(2);
    }
  }
  if (stats_csv && !want_stats) {
    std::fprintf(stderr, "tsce_analyze: --csv requires --stats\n");
    return usage(2);
  }

  // The registered-name set: explicit --names wins; both modes fall back to
  // the repo's own registry (relative to --root) so bench/tools literals are
  // validated against it even when a single file is analyzed.
  std::vector<std::string> registered_names;
  if (names_path.empty()) {
    const fs::path default_names =
        fs::absolute(root) / "src" / "obs" / "names.hpp";
    if (fs::exists(default_names)) names_path = default_names.string();
  }
  if (!names_path.empty()) {
    std::string names_source;
    if (!read_file(names_path, names_source)) {
      std::fprintf(stderr, "tsce_analyze: cannot open '%s'\n",
                   names_path.c_str());
      return 2;
    }
    registered_names = tsce::analyze::extract_registered_names(names_source);
  }

  std::vector<tsce::analyze::FileInput> inputs;
  std::vector<tsce::analyze::Finding> io_findings;
  if (!single_file.empty()) {
    std::string source;
    if (!read_file(single_file, source)) {
      std::fprintf(stderr, "tsce_analyze: cannot open '%s'\n",
                   single_file.c_str());
      return 2;
    }
    const std::string rel = as_path.empty() ? single_file : as_path;
    inputs.push_back({rel, std::move(source)});
  } else {
    root = fs::absolute(root);
    // Deterministic scan: collect, sort by repo-relative path, then read.
    std::vector<std::pair<std::string, fs::path>> paths;
    for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        const fs::path ext = entry.path().extension();
        if (ext != ".cpp" && ext != ".hpp") continue;
        const std::string rel =
            fs::relative(entry.path(), root).generic_string();
        // Golden rule fixtures are intentionally-violating inputs, not code.
        if (rel.find("/fixtures/") != std::string::npos) continue;
        paths.emplace_back(rel, entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& [rel, path] : paths) {
      std::string source;
      if (!read_file(path, source)) {
        io_findings.push_back({rel, 0, "io", "cannot open file", {}});
        continue;
      }
      inputs.push_back({rel, std::move(source)});
    }
  }
  const std::size_t files = inputs.size();

  tsce::analyze::ProjectResult result = tsce::analyze::analyze_project(
      inputs, registered_names, !dot_path.empty());
  std::vector<tsce::analyze::Finding> findings = std::move(result.findings);
  findings.insert(findings.end(), io_findings.begin(), io_findings.end());

  std::string scope_note;
  if (changed_only) {
    bool git_ok = false;
    const std::set<std::string> changed =
        changed_files(root, changed_ref, git_ok);
    if (!git_ok) {
      std::fprintf(stderr,
                   "tsce_analyze: 'git diff --name-only %s' failed in '%s'; "
                   "refusing to treat the failure as an empty change set\n",
                   changed_ref.c_str(), root.string().c_str());
      return 2;
    }
    std::erase_if(findings, [&](const tsce::analyze::Finding& f) {
      return changed.count(f.file) == 0;
    });
    scope_note = " in " + std::to_string(changed.size()) +
                 " changed file" + (changed.size() == 1 ? "" : "s");
  }

  for (const tsce::analyze::Finding& f : findings) {
    if (f.line == 0) {
      std::fprintf(stderr, "%s: [%s] %s\n", f.file.c_str(), f.rule.c_str(),
                   f.message.c_str());
    } else {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                   f.rule.c_str(), f.message.c_str());
    }
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tsce_analyze: cannot write '%s'\n",
                   sarif_path.c_str());
      return 2;
    }
    out << tsce::analyze::to_sarif(findings, std::string(kVersion));
  }
  if (!dot_path.empty()) {
    std::ofstream out(dot_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tsce_analyze: cannot write '%s'\n",
                   dot_path.c_str());
      return 2;
    }
    out << result.callgraph_dot;
  }
  if (want_stats) {
    // Finding counts per rule (parenthesized phase rows stay at zero — no
    // finding carries a phase name as its rule).
    std::map<std::string, std::size_t> counts;
    for (const tsce::analyze::Finding& f : findings) ++counts[f.rule];
    double total_ms = 0.0;
    for (const tsce::analyze::RuleStat& s : result.stats) total_ms += s.millis;
    if (stats_csv) {
      std::printf("rule,findings,millis\n");
      for (const tsce::analyze::RuleStat& s : result.stats) {
        std::printf("%s,%zu,%.3f\n", s.name.c_str(), counts[s.name], s.millis);
      }
      std::printf("total,%zu,%.3f\n", findings.size(), total_ms);
    } else {
      std::printf("%-28s %9s %12s\n", "rule", "findings", "millis");
      for (const tsce::analyze::RuleStat& s : result.stats) {
        std::printf("%-28s %9zu %12.3f\n", s.name.c_str(), counts[s.name],
                    s.millis);
      }
      std::printf("%-28s %9zu %12.3f\n", "total", findings.size(), total_ms);
    }
  }

  if (!baseline_path.empty()) {
    std::string baseline_text;
    if (!read_file(baseline_path, baseline_text)) {
      std::fprintf(stderr, "tsce_analyze: cannot open baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    tsce::analyze::BaselineDiff diff;
    try {
      diff = tsce::analyze::diff_against_baseline(
          findings, tsce::analyze::baseline_keys_from_sarif(baseline_text));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tsce_analyze: malformed baseline '%s': %s\n",
                   baseline_path.c_str(), e.what());
      return 2;
    }
    for (const tsce::analyze::Finding& f : diff.new_findings) {
      std::fprintf(stderr, "NEW %s:%zu: [%s]\n", f.file.c_str(), f.line,
                   f.rule.c_str());
    }
    std::printf(
        "tsce_analyze: %zu file%s checked, %zu finding%s%s (%zu new, %zu in "
        "baseline)\n",
        files, files == 1 ? "" : "s", findings.size(),
        findings.size() == 1 ? "" : "s", scope_note.c_str(),
        diff.new_findings.size(), diff.in_baseline);
    return diff.new_findings.empty() ? 0 : 1;
  }

  std::printf("tsce_analyze: %zu file%s checked, %zu finding%s%s\n", files,
              files == 1 ? "" : "s", findings.size(),
              findings.size() == 1 ? "" : "s", scope_note.c_str());
  return findings.empty() ? 0 : 1;
}
