#include "analyze/rules.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>

#include "analyze/callgraph.hpp"
#include "analyze/interp.hpp"
#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace tsce::analyze {

namespace {

using TK = TokenKind;

const std::array<RuleInfo, 11> kRegistry = {{
    {"deterministic-rng",
     "all randomness flows through util::Rng; no std::rand / srand / "
     "random_device / time() seeds outside tests/"},
    {"invalid-id-sentinel",
     "no bare -1 against MachineId/StringId/AppIndex; use model::kInvalidId / "
     "model::kUnassigned"},
    {"no-iostream-hot",
     "no <iostream> in src/core, src/analysis, src/model; use <cstdio>"},
    {"metric-name-registry",
     "metric/trace names come from src/obs/names.hpp; a literal under "
     "bench/tools/examples must match a registered name"},
    {"pragma-once", "headers use #pragma once, not #ifndef guards"},
    {"nondeterministic-iteration",
     "range-for over an unordered container must not feed order-sensitive "
     "writes (results, metrics, traces)"},
    {"float-fitness-equality",
     "==/!= on fitness/slackness doubles; compare std::bit_cast bit patterns "
     "(determinism auditor convention)"},
    {"rng-shared-capture",
     "an Rng captured by reference into a thread-pool lambda must derive "
     "per-item streams via Rng::stream"},
    {"transitive-hot-alloc",
     "no new / make_unique / make_shared / push_back-without-reserve in a "
     "TSCE_HOT frame or any function it reaches through the project call "
     "graph"},
    {"rng-stream-escape",
     "a util::Rng& must not reach ThreadPool-submitted code without a "
     "Rng::stream derivation on the call path"},
    {"unused-suppression",
     "every tsce-lint: allow(...) comment must suppress an actual finding"},
}};

bool in_dir(const std::string& rel, std::string_view prefix) {
  return rel.size() > prefix.size() &&
         rel.compare(0, prefix.size(), prefix) == 0 && rel[prefix.size()] == '/';
}

bool known_rule(std::string_view id) {
  return std::any_of(kRegistry.begin(), kRegistry.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

/// One `tsce-lint: allow(<rule>)` comment and the source lines it covers.
struct Suppression {
  std::string rule;
  std::size_t comment_line = 0;
  std::size_t also_covers = 0;  ///< next code line when the comment stands alone
  bool used = false;
};

/// Collects suppressions from comment tokens.  A comment sharing its line
/// with code covers that line; a comment-only line covers the next code line
/// as well (so long findings can carry the justification above them).
std::vector<Suppression> collect_suppressions(const TokenStream& ts) {
  std::vector<Suppression> out;
  const auto& toks = ts.tokens();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Preprocessor tokens swallow their trailing line comment, so a
    // suppression on an #include / #ifndef line lives inside the directive.
    if (toks[i].kind != TK::kComment && toks[i].kind != TK::kPreproc) continue;
    const std::string& text = toks[i].text;
    std::size_t at = text.find("tsce-lint: allow(");
    while (at != std::string::npos) {
      const std::size_t open = text.find('(', at);
      const std::size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      Suppression s;
      s.rule = text.substr(open + 1, close - open - 1);
      // Rule ids are strictly kebab-case; anything else (e.g. the `<rule>`
      // placeholder in documentation) is prose, not a suppression attempt.
      const bool kebab =
          !s.rule.empty() &&
          s.rule.find_first_not_of("abcdefghijklmnopqrstuvwxyz-") ==
              std::string::npos;
      if (!kebab) {
        at = text.find("tsce-lint: allow(", close);
        continue;
      }
      s.comment_line = toks[i].line;
      // Comment-only line: no code token shares this line.
      bool code_on_line = false;
      for (const Token& t : toks) {
        if (t.line == s.comment_line && t.kind != TK::kComment &&
            t.kind != TK::kEof) {
          code_on_line = true;
          break;
        }
      }
      if (!code_on_line) {
        for (std::size_t k = i + 1; k < toks.size(); ++k) {
          if (toks[k].kind != TK::kComment && toks[k].kind != TK::kEof) {
            s.also_covers = toks[k].line;
            break;
          }
        }
      }
      out.push_back(std::move(s));
      at = text.find("tsce-lint: allow(", close);
    }
  }
  return out;
}

/// Marks the first suppression covering (\p rule, \p line) as used; true
/// when the finding is absorbed.
bool absorb(std::vector<Suppression>& suppressions, std::string_view rule,
            std::size_t line) {
  for (Suppression& s : suppressions) {
    if (s.rule == rule &&
        (s.comment_line == line || (s.also_covers != 0 && s.also_covers == line))) {
      s.used = true;
      return true;
    }
  }
  return false;
}

/// Shared state for one file's analysis pass.
struct FileCheck {
  const std::string& rel;
  const TokenStream& ts;
  const FileStructure& fs;
  std::vector<Suppression>& suppressions;
  std::vector<Finding>& findings;
  /// Registered metric/trace names (src/obs/names.hpp literals); empty when
  /// the caller did not supply a registry.
  const std::vector<std::string>& registered_names;
  bool is_header = false;

  /// Reports unless a matching suppression covers \p line.
  void report(std::size_t line, std::string_view rule, std::string message) {
    if (absorb(suppressions, rule, line)) return;
    findings.push_back({rel, line, std::string(rule), std::move(message), {}});
  }
};

// --- upgraded token rules ---------------------------------------------------

void rule_deterministic_rng(FileCheck& c) {
  if (in_dir(c.rel, "tests")) return;
  const auto& toks = c.ts.tokens();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TK::kIdentifier) continue;
    const std::size_t prev = c.ts.prev_code(i);
    const bool std_qualified =
        prev < toks.size() && toks[prev].punct("::") &&
        c.ts.at(c.ts.prev_code(prev)).ident("std");
    bool bad = false;
    if (t.text == "rand" && std_qualified) bad = true;
    if (t.text == "srand" && c.ts.at(c.ts.next_code(i)).punct("(")) bad = true;
    if (t.text == "random_device") bad = true;
    if (t.text == "time") {
      const std::size_t open = c.ts.next_code(i);
      if (c.ts.at(open).punct("(")) {
        if (std_qualified) {
          bad = true;
        } else {
          const std::size_t arg = c.ts.next_code(open);
          const Token& a = c.ts.at(arg);
          bad = a.ident("nullptr") || a.ident("NULL") ||
                (a.kind == TK::kNumber && a.text == "0");
        }
      }
    }
    if (bad) {
      c.report(t.line, "deterministic-rng",
               "non-deterministic randomness source; derive from util::Rng "
               "(Rng::stream for parallel work)");
    }
  }
}

void rule_invalid_id_sentinel(FileCheck& c) {
  if (!in_dir(c.rel, "src")) return;
  const auto& toks = c.ts.tokens();
  // Per-line: an id-type name plus a unary -1 with no kInvalidId/kUnassigned.
  std::set<std::size_t> id_lines;
  std::set<std::size_t> sentinel_lines;
  std::set<std::size_t> minus_one_lines;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TK::kIdentifier) {
      if (t.text == "MachineId" || t.text == "StringId" || t.text == "AppIndex") {
        id_lines.insert(t.line);
      }
      if (t.text == "kInvalidId" || t.text == "kUnassigned") {
        sentinel_lines.insert(t.line);
      }
    }
    if (t.punct("-") && c.ts.at(i + 1).kind == TK::kNumber &&
        c.ts.at(i + 1).text == "1") {
      const std::size_t prev = c.ts.prev_code(i);
      const Token& p = c.ts.at(prev);
      const bool unary = prev >= toks.size() || p.kind == TK::kPunct;
      const bool binary_minus =
          p.kind == TK::kPunct && (p.text == ")" || p.text == "]");
      if (unary && !binary_minus) minus_one_lines.insert(t.line);
    }
  }
  for (std::size_t line : minus_one_lines) {
    if (id_lines.count(line) != 0 && sentinel_lines.count(line) == 0) {
      c.report(line, "invalid-id-sentinel",
               "bare -1 used with an id type; use model::kInvalidId / "
               "model::kUnassigned");
    }
  }
}

void rule_no_iostream_hot(FileCheck& c) {
  if (!in_dir(c.rel, "src/core") && !in_dir(c.rel, "src/analysis") &&
      !in_dir(c.rel, "src/model")) {
    return;
  }
  for (const Token& t : c.ts.tokens()) {
    if (t.kind == TK::kPreproc && t.text.find("include") != std::string::npos &&
        t.text.find("<iostream>") != std::string::npos) {
      c.report(t.line, "no-iostream-hot",
               "<iostream> in a hot-path module; use <cstdio>");
    }
  }
}

/// Strips the surrounding quotes off a plain string-literal token.  Raw
/// strings and literals with escapes are returned empty (registered metric
/// names are always plain, so such a literal can never match the registry).
std::string literal_value(const Token& t) {
  const std::string& s = t.text;
  if (s.size() < 2 || s.front() != '"' || s.back() != '"') return {};
  if (s.find('\\') != std::string::npos) return {};
  return s.substr(1, s.size() - 2);
}

void rule_metric_name_registry(FileCheck& c) {
  if (in_dir(c.rel, "tests") || c.rel == "src/obs/names.hpp") return;
  const auto& toks = c.ts.tokens();
  // Under bench/, tools/, and examples/ a literal is tolerated when it names
  // a registered entry (the trees that *consume* telemetry may spell a name
  // out, but it must exist in src/obs/names.hpp so producers and consumers
  // agree).  With no registry supplied the strict literal ban applies
  // everywhere.
  const bool registry_scoped =
      !c.registered_names.empty() &&
      (in_dir(c.rel, "bench") || in_dir(c.rel, "tools") ||
       in_dir(c.rel, "examples"));
  auto registered = [&](const Token& t) {
    const std::string value = literal_value(t);
    return !value.empty() &&
           std::find(c.registered_names.begin(), c.registered_names.end(),
                     value) != c.registered_names.end();
  };
  auto check_literal = [&](std::size_t open_idx, std::size_t report_line,
                           std::string_view what) {
    const Token& arg = c.ts.at(c.ts.next_code(open_idx));
    if (arg.kind != TK::kString) return;
    if (!registry_scoped) {
      c.report(report_line, "metric-name-registry",
               std::string(what) +
                   " name passed as a string literal; add a constant "
                   "to src/obs/names.hpp and reference it");
    } else if (!registered(arg)) {
      c.report(report_line, "metric-name-registry",
               "unregistered " + std::string(what) + " name " + arg.text +
                   "; declare it in src/obs/names.hpp");
    }
  };
  for (const Call& call : c.fs.calls) {
    const bool metric_call = call.name == "counter" || call.name == "gauge" ||
                             call.name == "histogram" ||
                             call.name == "trace_event" || call.name == "Span";
    if (metric_call) {
      check_literal(call.open_idx, toks[call.name_idx].line, "metric/trace");
    }
  }
  // `obs::Span span("literal")` declares a variable: the call shape above
  // sees the variable name, so check Span declarations directly.
  for (const Decl& d : c.fs.decls) {
    if (d.type_last != "Span") continue;
    const std::size_t open = d.name_idx + 1;
    if (c.ts.at(open).punct("(")) {
      check_literal(open, toks[d.name_idx].line, "span");
    }
  }
}

void rule_pragma_once(FileCheck& c) {
  if (!c.is_header) return;
  bool saw_pragma_once = false;
  std::size_t guard_line = 0;
  for (const Token& t : c.ts.tokens()) {
    if (t.kind != TK::kPreproc) continue;
    if (t.text.find("pragma") != std::string::npos &&
        t.text.find("once") != std::string::npos) {
      saw_pragma_once = true;
    }
    if (guard_line == 0 && t.text.find("ifndef") != std::string::npos) {
      // Classic guard macro: trailing _H / _HPP (underscore-suffixed too).
      // The lexer folds a trailing line comment into the directive, so cut it
      // off before taking the last word.
      std::string s = t.text;
      const std::size_t slashes = s.find("//");
      if (slashes != std::string::npos) s.resize(slashes);
      std::size_t end = s.find_last_not_of(" \t\r");
      end = end == std::string::npos ? s.size() : end + 1;
      std::size_t begin = s.find_last_of(" \t", end - 1);
      begin = begin == std::string::npos ? 0 : begin + 1;
      std::string macro = s.substr(begin, end - begin);
      while (!macro.empty() && macro.back() == '_') macro.pop_back();
      const auto ends_with = [&](std::string_view suf) {
        return macro.size() >= suf.size() &&
               macro.compare(macro.size() - suf.size(), suf.size(), suf) == 0;
      };
      if (ends_with("_H") || ends_with("_HPP")) guard_line = t.line;
    }
  }
  if (guard_line != 0) {
    c.report(guard_line, "pragma-once",
             "classic #ifndef include guard; use #pragma once");
  }
  if (!saw_pragma_once) {
    c.report(0, "pragma-once", "header is missing #pragma once");
  }
}

// --- semantics-aware rules --------------------------------------------------

bool is_unordered_type(const std::string& type_last) {
  return type_last.rfind("unordered_", 0) == 0;
}

void rule_nondeterministic_iteration(FileCheck& c) {
  if (in_dir(c.rel, "tests")) return;
  const auto& toks = c.ts.tokens();
  for (const RangeFor& rf : c.fs.range_fors) {
    // Does the range expression name an unordered container?
    bool unordered = false;
    for (std::size_t k = rf.range_begin; k <= rf.range_end && k < toks.size();
         ++k) {
      if (toks[k].kind != TK::kIdentifier) continue;
      if (is_unordered_type(toks[k].text) ||
          is_unordered_type(c.fs.type_of(toks[k].text, rf.for_idx))) {
        unordered = true;
        break;
      }
    }
    if (!unordered) continue;

    auto declared_in_body = [&](const std::string& name) {
      if (std::find(rf.loop_vars.begin(), rf.loop_vars.end(), name) !=
          rf.loop_vars.end()) {
        return true;
      }
      return std::any_of(c.fs.decls.begin(), c.fs.decls.end(),
                         [&](const Decl& d) {
                           return d.name == name && d.name_idx > rf.body_begin &&
                                  d.name_idx < rf.body_end;
                         });
    };

    // The canonical remediation — collect into a local, sort, iterate the
    // sorted copy — appends in hash order on purpose; a later std::sort /
    // stable_sort over the same container canonicalizes it, so stay quiet.
    auto sorted_afterwards = [&](const std::string& name) {
      return std::any_of(
          c.fs.calls.begin(), c.fs.calls.end(), [&](const Call& call) {
            if (call.name_idx <= rf.body_end ||
                (call.name != "sort" && call.name != "stable_sort")) {
              return false;
            }
            for (std::size_t k = call.open_idx + 1; k < call.close_idx; ++k) {
              if (toks[k].ident(name)) return true;
            }
            return false;
          });
    };

    // Order-sensitive writes inside the body.
    std::string reason;
    for (const Call& call : c.fs.calls) {
      if (call.name_idx <= rf.body_begin || call.name_idx >= rf.body_end) continue;
      const bool appends = call.name == "push_back" ||
                           call.name == "emplace_back" || call.name == "insert" ||
                           call.name == "emplace" || call.name == "append" ||
                           call.name == "push_front";
      if (appends && !call.receiver.empty() &&
          !declared_in_body(call.receiver) && !sorted_afterwards(call.receiver)) {
        reason = "appends to '" + call.receiver + "' declared outside the loop";
        break;
      }
      if (call.name == "counter" || call.name == "gauge" ||
          call.name == "histogram" || call.name == "trace_event") {
        reason = "emits metrics/trace events";
        break;
      }
    }
    if (reason.empty()) {
      // Compound assignment to an outside variable.
      for (std::size_t k = rf.body_begin + 1; k < rf.body_end; ++k) {
        const Token& t = toks[k];
        if (t.kind != TK::kPunct ||
            (t.text != "+=" && t.text != "-=" && t.text != "*=" &&
             t.text != "/=")) {
          continue;
        }
        const std::size_t lhs = c.ts.prev_code(k);
        if (toks[lhs].kind == TK::kIdentifier &&
            !declared_in_body(toks[lhs].text)) {
          reason = "accumulates into '" + toks[lhs].text +
                   "' declared outside the loop";
          break;
        }
      }
    }
    if (!reason.empty()) {
      c.report(toks[rf.for_idx].line, "nondeterministic-iteration",
               "range-for over an unordered container " + reason +
                   "; iteration order is unspecified — iterate a sorted copy "
                   "or use an ordered container");
    }
  }
}

void rule_float_fitness_equality(FileCheck& c) {
  if (in_dir(c.rel, "tests")) return;
  const auto& toks = c.ts.tokens();

  // Is the postfix chain ending at token \p k (an identifier) a fitness
  // double?  Members named *slackness* always are; bare identifiers must be
  // declared double with a fitness/slack-flavored name.
  auto is_fitness_double = [&](std::size_t k) {
    const std::string& name = toks[k].text;
    const auto contains = [&](std::string_view sub) {
      return name.find(sub) != std::string::npos;
    };
    const std::size_t prev = c.ts.prev_code(k);
    const bool member =
        prev < toks.size() &&
        (toks[prev].punct(".") || toks[prev].punct("->"));
    if (member) return contains("slackness");
    return (contains("slack") || contains("fitness")) &&
           c.fs.type_of(name, k) == "double";
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TK::kPunct ||
        (toks[i].text != "==" && toks[i].text != "!=")) {
      continue;
    }
    bool flagged = false;
    // Left operand: terminal token of the postfix chain (a `)` — e.g. a
    // bit_cast call — is never a fitness double).
    const std::size_t lhs = c.ts.prev_code(i);
    if (lhs < toks.size() && toks[lhs].kind == TK::kIdentifier &&
        is_fitness_double(lhs)) {
      flagged = true;
    }
    // Right operand: walk the postfix chain forward to its terminal.
    if (!flagged) {
      std::size_t k = c.ts.next_code(i);
      // Skip a leading std::bit_cast<...>( chain marker.
      bool rhs_bit_cast = false;
      std::size_t probe = k;
      std::size_t guard = 0;
      while (probe < toks.size() && guard++ < 8) {
        if (toks[probe].ident("bit_cast")) {
          rhs_bit_cast = true;
          break;
        }
        if (toks[probe].kind == TK::kIdentifier || toks[probe].punct("::")) {
          probe = c.ts.next_code(probe);
          continue;
        }
        break;
      }
      if (!rhs_bit_cast && k < toks.size() && toks[k].kind == TK::kIdentifier) {
        std::size_t term = k;
        while (true) {
          const std::size_t dot = c.ts.next_code(term);
          if (dot >= toks.size() ||
              !(toks[dot].punct(".") || toks[dot].punct("->"))) {
            break;
          }
          const std::size_t nxt = c.ts.next_code(dot);
          if (nxt >= toks.size() || toks[nxt].kind != TK::kIdentifier) break;
          term = nxt;
        }
        if (is_fitness_double(term)) flagged = true;
      }
    }
    if (flagged) {
      c.report(toks[i].line, "float-fitness-equality",
               "floating-point ==/!= on a fitness/slackness double; compare "
               "std::bit_cast<std::uint64_t> bit patterns (the determinism "
               "auditor convention)");
    }
  }
}

void rule_rng_shared_capture(FileCheck& c) {
  const auto& toks = c.ts.tokens();
  auto is_rng_type = [](const std::string& type_last) {
    return type_last == "Rng";
  };
  for (const Call& call : c.fs.calls) {
    const bool pool_call = call.name == "submit" ||
                           call.name == "for_each_index" ||
                           call.name == "for_each";
    if (!pool_call) continue;
    for (const Lambda& lam : c.fs.lambdas) {
      if (lam.intro_idx <= call.open_idx || lam.intro_idx >= call.close_idx) {
        continue;
      }
      // Which Rng does the lambda see by reference?
      std::string shared_rng;
      bool default_ref = false;
      for (const Capture& cap : lam.captures) {
        if (cap.is_default && cap.by_ref) default_ref = true;
        if (cap.by_ref && !cap.name.empty() &&
            is_rng_type(c.fs.type_of(cap.name, lam.intro_idx))) {
          shared_rng = cap.name;
        }
      }
      if (shared_rng.empty() && default_ref) {
        for (std::size_t k = lam.body_begin + 1; k < lam.body_end; ++k) {
          if (toks[k].kind == TK::kIdentifier &&
              is_rng_type(c.fs.type_of(toks[k].text, lam.intro_idx))) {
            shared_rng = toks[k].text;
            break;
          }
        }
      }
      if (shared_rng.empty()) continue;
      // The lambda is fine when it derives per-item streams.
      bool derives_stream = false;
      for (std::size_t k = lam.body_begin + 1; k < lam.body_end; ++k) {
        if (toks[k].ident("stream")) {
          derives_stream = true;
          break;
        }
      }
      if (!derives_stream) {
        c.report(toks[lam.intro_idx].line, "rng-shared-capture",
                 "lambda handed to '" + call.name + "' captures Rng '" +
                     shared_rng +
                     "' by reference without deriving a per-item "
                     "util::Rng::stream(seed, index); results depend on the "
                     "thread schedule");
      }
    }
  }
}

/// The per-file rule table, in registry order — table-driven so the project
/// pass can attribute wall-time to each rule for --stats.
struct FileRule {
  std::string_view name;
  void (*run)(FileCheck&);
};

constexpr std::array<FileRule, 8> kFileRules = {{
    {"deterministic-rng", rule_deterministic_rng},
    {"invalid-id-sentinel", rule_invalid_id_sentinel},
    {"no-iostream-hot", rule_no_iostream_hot},
    {"metric-name-registry", rule_metric_name_registry},
    {"pragma-once", rule_pragma_once},
    {"nondeterministic-iteration", rule_nondeterministic_iteration},
    {"float-fitness-equality", rule_float_fitness_equality},
    {"rng-shared-capture", rule_rng_shared_capture},
}};

double millis_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs every per-file rule on one parsed unit (the interprocedural rules and
/// the unused-suppression finalization happen at project level), accumulating
/// per-rule wall-time into \p timings.
void run_file_rules(const std::string& rel, const TokenStream& ts,
                    const FileStructure& fs,
                    std::vector<Suppression>& suppressions,
                    const std::vector<std::string>& registered_names,
                    std::vector<Finding>& findings,
                    std::map<std::string_view, double>& timings) {
  FileCheck check{rel, ts, fs, suppressions, findings, registered_names,
                  rel.size() > 4 && rel.compare(rel.size() - 4, 4, ".hpp") == 0};
  for (const FileRule& rule : kFileRules) {
    const auto t0 = std::chrono::steady_clock::now();
    rule.run(check);
    timings[rule.name] += millis_since(t0);
  }
}

/// unused-suppression runs last: every allow() that did not absorb a finding
/// is itself a finding (suppressible at its own line, for the rare
/// intentionally-ahead-of-its-time suppression).
void finalize_suppressions(const std::string& rel,
                           std::vector<Suppression>& suppressions,
                           std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < suppressions.size(); ++i) {
    Suppression& s = suppressions[i];
    if (s.used || s.rule == "unused-suppression") continue;
    const std::string message =
        known_rule(s.rule)
            ? "stale suppression: allow(" + s.rule + ") matches no finding"
            : "unknown rule in suppression: allow(" + s.rule + ")";
    // Suppressible by allow(unused-suppression) on the same line.
    bool absorbed = false;
    for (Suppression& meta : suppressions) {
      if (meta.rule == "unused-suppression" &&
          (meta.comment_line == s.comment_line ||
           meta.also_covers == s.comment_line)) {
        meta.used = true;
        absorbed = true;
        break;
      }
    }
    if (!absorbed) {
      findings.push_back(
          {rel, s.comment_line, "unused-suppression", message, {}});
    }
  }
  for (const Suppression& s : suppressions) {
    if (s.rule == "unused-suppression" && !s.used) {
      findings.push_back({rel, s.comment_line, "unused-suppression",
                          "stale suppression: allow(unused-suppression) "
                          "matches no finding",
                          {}});
    }
  }
}

/// Trimmed text of 1-based \p line of \p source; empty when out of range.
std::string_view trimmed_line(std::string_view source, std::size_t line) {
  std::size_t start = 0;
  for (std::size_t n = 1; n < line; ++n) {
    start = source.find('\n', start);
    if (start == std::string_view::npos) return {};
    ++start;
  }
  const std::size_t end = source.find('\n', start);
  std::string_view text = source.substr(
      start, end == std::string_view::npos ? end : end - start);
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// FNV-1a (64-bit, hex) over rule|file|trimmed-line-text.  Hashing the line's
/// *text* rather than its number keeps the fingerprint stable across edits
/// elsewhere in the file, which is what makes SARIF baseline diffing honest.
std::string fingerprint_of(const Finding& f, std::string_view source) {
  std::string key = f.rule + "|" + f.file + "|";
  if (f.line == 0) {
    key += "whole-file";
  } else {
    key += trimmed_line(source, f.line);
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : key) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  std::string hex(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    hex[i] = "0123456789abcdef"[(h >> (60 - 4 * i)) & 0xF];
  }
  return hex;
}

}  // namespace

const std::array<RuleInfo, 11>& rule_registry() noexcept { return kRegistry; }

ProjectResult analyze_project(const std::vector<FileInput>& files,
                              const std::vector<std::string>& registered_names,
                              bool want_dot) {
  ProjectResult result;
  std::vector<FileUnit> units;
  std::vector<std::vector<Suppression>> suppressions;
  units.reserve(files.size());
  suppressions.reserve(files.size());
  auto t0 = std::chrono::steady_clock::now();
  for (const FileInput& f : files) {
    TokenStream ts{lex(f.source)};
    FileStructure structure = parse_structure(ts);
    suppressions.push_back(collect_suppressions(ts));
    const bool in_graph = in_dir(f.rel, "src") || in_dir(f.rel, "bench") ||
                          in_dir(f.rel, "tools");
    units.push_back({f.rel, std::move(ts), std::move(structure), in_graph});
  }
  result.stats.push_back({"(lex+parse)", millis_since(t0)});

  std::map<std::string_view, double> file_rule_millis;
  for (std::size_t i = 0; i < units.size(); ++i) {
    run_file_rules(units[i].rel, units[i].ts, units[i].structure,
                   suppressions[i], registered_names, result.findings,
                   file_rule_millis);
  }
  for (const FileRule& rule : kFileRules) {
    result.stats.push_back(
        {std::string(rule.name), file_rule_millis[rule.name]});
  }

  t0 = std::chrono::steady_clock::now();
  const CallGraph graph = build_call_graph(units);
  result.stats.push_back({"(callgraph)", millis_since(t0)});
  std::map<std::string, std::size_t> by_rel;
  for (std::size_t i = 0; i < units.size(); ++i) {
    by_rel.emplace(units[i].rel, i);
  }
  // Interprocedural findings flow through the same per-file suppression
  // lists as the local rules.
  for (Finding& f : run_interprocedural_rules(units, graph, &result.stats)) {
    const auto it = by_rel.find(f.file);
    if (it != by_rel.end() &&
        absorb(suppressions[it->second], f.rule, f.line)) {
      continue;
    }
    result.findings.push_back(std::move(f));
  }

  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < units.size(); ++i) {
    finalize_suppressions(units[i].rel, suppressions[i], result.findings);
  }
  result.stats.push_back({"unused-suppression", millis_since(t0)});

  for (Finding& f : result.findings) {
    const auto it = by_rel.find(f.file);
    f.fingerprint = fingerprint_of(
        f, it == by_rel.end() ? std::string_view{}
                              : std::string_view(files[it->second].source));
  }
  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.file, a.line, a.rule) <
                            std::tie(b.file, b.line, b.rule);
                   });

  if (want_dot) result.callgraph_dot = graph.to_dot();
  return result;
}

std::vector<Finding> analyze_source(const std::string& rel_path,
                                    std::string_view source) {
  static const std::vector<std::string> kNoNames;
  return analyze_source(rel_path, source, kNoNames);
}

std::vector<std::string> extract_registered_names(
    std::string_view names_source) {
  std::vector<std::string> names;
  for (const Token& t : lex(names_source)) {
    if (t.kind != TK::kString) continue;
    const std::string& s = t.text;
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
      names.push_back(s.substr(1, s.size() - 2));
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<Finding> analyze_source(
    const std::string& rel_path, std::string_view source,
    const std::vector<std::string>& registered_names) {
  std::vector<FileInput> files;
  files.push_back({rel_path, std::string(source)});
  return analyze_project(files, registered_names).findings;
}

}  // namespace tsce::analyze
