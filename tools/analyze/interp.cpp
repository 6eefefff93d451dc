#include "analyze/interp.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>

namespace tsce::analyze {

namespace {

using TK = TokenKind;

constexpr std::size_t npos = CallGraph::npos;

bool is_pool_call(const std::string& name) {
  return name == "submit" || name == "for_each_index" || name == "for_each";
}

/// Does any token in [begin, end] spell \p ident (comments excluded)?
bool range_has_ident(const TokenStream& ts, std::size_t begin, std::size_t end,
                     std::string_view ident) {
  const auto& toks = ts.tokens();
  for (std::size_t k = begin; k <= end && k < toks.size(); ++k) {
    if (toks[k].kind == TK::kIdentifier && toks[k].text == ident) return true;
  }
  return false;
}

/// Any definition body of \p node contains a Rng::stream / .stream(...)
/// derivation — the function seeds its own per-item streams.
bool derives_stream(const std::vector<FileUnit>& units,
                    const CallGraph::Node& node) {
  return std::any_of(
      node.defs.begin(), node.defs.end(), [&](const FunctionDef& def) {
        return range_has_ident(units[def.file].ts, def.body_begin + 1,
                               def.body_end - 1, "stream");
      });
}

/// Does a definition's parameter list take a util::Rng by reference or
/// pointer?  Signature tokens run from the '(' after the name to its match.
bool takes_rng_ref(const FileUnit& unit, const FunctionDef& def) {
  const TokenStream& ts = unit.ts;
  const std::size_t open = def.name_idx + 1;
  if (!ts.at(open).punct("(")) return false;
  const std::size_t close = ts.match_forward(open);
  for (std::size_t k = open + 1; k < close && k < ts.size(); ++k) {
    if (!ts.at(k).ident("Rng")) continue;
    const std::size_t after = ts.next_code(k);
    if (after < ts.size() &&
        (ts.at(after).punct("&") || ts.at(after).punct("*"))) {
      return true;
    }
  }
  return false;
}

// --- transitive-hot-alloc ---------------------------------------------------

void rule_transitive_hot_alloc(const std::vector<FileUnit>& units,
                               const CallGraph& g,
                               std::vector<Finding>& out) {
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    if (g.nodes()[i].hot) roots.push_back(i);
  }
  if (roots.empty()) return;
  const std::vector<std::size_t> parent = g.reach_from(roots);

  for (std::size_t node = 0; node < g.nodes().size(); ++node) {
    if (parent[node] == npos) continue;
    const CallGraph::Node& nd = g.nodes()[node];
    // The annotated frame itself is checked like everything it reaches;
    // lambdas defined in its body are not graph nodes, so they count as it.
    const std::string suffix =
        nd.hot ? "' is a TSCE_HOT frame; the whole hot path must stay "
                 "allocation-free"
               : "' is reachable from a TSCE_HOT frame (" +
                     g.path_to(parent, node) +
                     "); the whole hot path must stay allocation-free";

    for (const FunctionDef& def : nd.defs) {
      const FileUnit& unit = units[def.file];
      const TokenStream& ts = unit.ts;
      const auto& toks = ts.tokens();
      for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
        // Skip allocation sites that belong to a nested definition (a local
        // struct's methods reach this rule through their own node).
        if (toks[i].kind != TK::kIdentifier) continue;
        if (toks[i].text == "new") {
          if (ts.at(ts.prev_code(i)).ident("operator")) continue;
          if (g.enclosing(def.file, i) != node) continue;
          out.push_back({unit.rel, toks[i].line, "transitive-hot-alloc",
                         "new-expression: '" + nd.qualified + suffix,
                         {}});
        } else if (toks[i].text == "make_unique" ||
                   toks[i].text == "make_shared") {
          std::size_t k = ts.next_code(i);
          if (k < toks.size() && ts.at(k).punct("<")) {
            k = ts.next_code(ts.match_forward(k));
          }
          if (k < toks.size() && ts.at(k).punct("(") &&
              g.enclosing(def.file, i) == node) {
            out.push_back({unit.rel, toks[i].line, "transitive-hot-alloc",
                           "'" + toks[i].text + "': '" + nd.qualified + suffix,
                           {}});
          }
        }
      }
      for (const Call& call : unit.structure.calls) {
        if (call.name_idx <= def.body_begin || call.name_idx >= def.body_end) {
          continue;
        }
        if ((call.name != "push_back" && call.name != "emplace_back") ||
            call.receiver.empty()) {
          continue;
        }
        const bool reserved = std::any_of(
            unit.structure.calls.begin(), unit.structure.calls.end(),
            [&](const Call& c) {
              return c.name == "reserve" && c.receiver == call.receiver;
            });
        if (!reserved && g.enclosing(def.file, call.name_idx) == node) {
          out.push_back({unit.rel, toks[call.name_idx].line,
                         "transitive-hot-alloc",
                         "'" + call.receiver + "." + call.name +
                             "' without a same-file reserve(): '" +
                             nd.qualified + suffix,
                         {}});
        }
      }
    }
  }
}

// --- rng-stream-escape ------------------------------------------------------

void rule_rng_stream_escape(const std::vector<FileUnit>& units,
                            const CallGraph& g, std::vector<Finding>& out) {
  // Roots: functions called from inside a lambda handed to a ThreadPool
  // entry point, when the lambda body does not derive per-item streams.
  std::vector<std::size_t> roots;
  std::map<std::size_t, std::string> root_site;
  for (std::size_t f = 0; f < units.size(); ++f) {
    if (!units[f].in_graph) continue;
    const FileUnit& unit = units[f];
    for (const Call& call : unit.structure.calls) {
      if (!is_pool_call(call.name)) continue;
      const std::size_t caller = g.enclosing(f, call.name_idx);
      if (caller == npos) continue;
      for (const Lambda& lam : unit.structure.lambdas) {
        if (lam.intro_idx <= call.open_idx || lam.intro_idx >= call.close_idx) {
          continue;
        }
        if (range_has_ident(unit.ts, lam.body_begin + 1, lam.body_end - 1,
                            "stream")) {
          continue;  // the submission site derives per-item streams
        }
        for (const CallEdge& e : g.nodes()[caller].edges) {
          if (e.file != f || e.tok_idx <= lam.body_begin ||
              e.tok_idx >= lam.body_end) {
            continue;
          }
          if (root_site.find(e.callee) == root_site.end()) {
            roots.push_back(e.callee);
            root_site[e.callee] =
                unit.rel + ":" + std::to_string(e.line);
          }
        }
      }
    }
  }
  if (roots.empty()) return;

  // BFS, stopping at functions that derive their own streams: what they pass
  // further down is per-item by construction.
  std::vector<std::size_t> parent(g.nodes().size(), npos);
  std::vector<std::size_t> queue;
  for (std::size_t r : roots) {
    if (parent[r] == npos && !derives_stream(units, g.nodes()[r])) {
      parent[r] = r;
      queue.push_back(r);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    for (const CallEdge& e : g.nodes()[u].edges) {
      if (parent[e.callee] != npos) continue;
      if (derives_stream(units, g.nodes()[e.callee])) continue;
      parent[e.callee] = u;
      queue.push_back(e.callee);
    }
  }

  for (std::size_t node = 0; node < g.nodes().size(); ++node) {
    if (parent[node] == npos) continue;
    const CallGraph::Node& nd = g.nodes()[node];
    for (const FunctionDef& def : nd.defs) {
      if (!takes_rng_ref(units[def.file], def)) continue;
      std::size_t root = node;
      while (parent[root] != root) root = parent[root];
      out.push_back(
          {units[def.file].rel, def.line, "rng-stream-escape",
           "'" + nd.qualified +
               "' takes a util::Rng by reference and is reached from a "
               "ThreadPool submission site at " +
               root_site[root] + " (" + g.path_to(parent, node) +
               ") with no Rng::stream derivation on the path; results depend "
               "on the thread schedule",
           {}});
      break;  // one finding per function, not per overload definition
    }
  }
}

}  // namespace

std::vector<Finding> run_interprocedural_rules(
    const std::vector<FileUnit>& units, const CallGraph& graph,
    std::vector<RuleStat>* stats) {
  std::vector<Finding> out;
  const auto timed = [&](const char* name, auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(units, graph, out);
    if (stats != nullptr) {
      stats->push_back({name, std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count()});
    }
  };
  timed("transitive-hot-alloc", rule_transitive_hot_alloc);
  timed("rng-stream-escape", rule_rng_stream_escape);
  return out;
}

}  // namespace tsce::analyze
