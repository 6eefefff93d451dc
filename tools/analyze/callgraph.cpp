#include "analyze/callgraph.hpp"

#include <algorithm>
#include <array>
#include <set>

namespace tsce::analyze {

namespace {

using TK = TokenKind;

/// Keywords that look like `name(...)` but never head a function definition.
constexpr std::array<std::string_view, 16> kNotFunctionNames = {
    "if",       "for",      "while",    "switch",        "catch",
    "return",   "sizeof",   "alignof",  "alignas",       "decltype",
    "noexcept", "requires", "constexpr", "static_assert", "throw",
    "new"};

bool is_not_function_name(const std::string& s) {
  return std::find(kNotFunctionNames.begin(), kNotFunctionNames.end(), s) !=
         kNotFunctionNames.end();
}

/// Specifiers that may sit between a definition's `)` and its body `{`.
bool is_post_signature_specifier(const std::string& s) {
  return s == "const" || s == "noexcept" || s == "override" || s == "final" ||
         s == "mutable" || s == "volatile" || s == "&" || s == "&&" ||
         s == "throw" || s == "try";
}

/// One class/struct body on the context stack.
struct ClassContext {
  std::string name;
  std::size_t body_end;
};

/// Scans backward from a definition's name over its leading tokens (return
/// type, attributes, qualifier chain) looking for the TSCE_HOT marker.  Stops
/// at a statement boundary; bounded so a pathological file cannot
/// quadratic-scan.
bool has_hot_marker(const TokenStream& ts, std::size_t name_idx) {
  std::size_t k = ts.prev_code(name_idx);
  std::size_t guard = 0;
  const std::size_t n = ts.size();
  while (k < n && guard++ < 48) {
    const Token& t = ts.at(k);
    if (t.kind == TK::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    if (t.ident("TSCE_HOT")) return true;
    if (t.punct(">")) {
      // Jump template argument lists in the return type as one step.
      const std::size_t open = ts.match_backward(k);
      if (open >= n) break;
      k = ts.prev_code(open);
      continue;
    }
    k = ts.prev_code(k);
  }
  return false;
}

/// Walks the tokens after a candidate signature's closing `)` and decides
/// whether a body follows.  Returns the token index of the body `{`, or npos
/// for declarations / non-definitions.
std::size_t find_body(const TokenStream& ts, std::size_t close_paren) {
  const std::size_t n = ts.size();
  std::size_t k = ts.next_code(close_paren);
  std::size_t guard = 0;
  while (k < n && guard++ < 64) {
    const Token& t = ts.at(k);
    if (t.punct("{")) return k;
    if (t.punct(";") || t.punct("=") || t.punct(",") || t.punct(")")) {
      return CallGraph::npos;  // declaration, defaulted, or an expression
    }
    if (t.punct(":")) {
      // Constructor initializer list: identifier chains with `(...)` / `{...}`
      // initializers separated by commas; the first `{` after a complete
      // initializer (or a `...` pack expansion) is the body.
      std::size_t c = ts.next_code(k);
      std::size_t init_guard = 0;
      while (c < n && init_guard++ < 256) {
        const Token& it = ts.at(c);
        if (it.kind == TK::kIdentifier || it.punct("::") || it.punct("...")) {
          c = ts.next_code(c);
          continue;
        }
        if (it.punct("<")) {
          const std::size_t close = ts.match_forward(c);
          if (close >= n) return CallGraph::npos;
          c = ts.next_code(close);
          continue;
        }
        if (it.punct("(") || it.punct("{")) {
          const std::size_t close = ts.match_forward(c);
          if (close >= n) return CallGraph::npos;
          c = ts.next_code(close);
          if (c < n && ts.at(c).punct(",")) {
            c = ts.next_code(c);
            continue;
          }
          if (c < n && ts.at(c).punct("{")) return c;
          return CallGraph::npos;
        }
        return CallGraph::npos;
      }
      return CallGraph::npos;
    }
    if (is_post_signature_specifier(t.text) && t.kind == TK::kIdentifier) {
      k = ts.next_code(k);
      continue;
    }
    if (t.punct("&") || t.punct("&&")) {
      k = ts.next_code(k);
      continue;
    }
    if (t.punct("(") || t.punct("<") || t.punct("[")) {
      // noexcept(...), attribute [[...]], template args in a trailing type.
      const std::size_t close = ts.match_forward(k);
      if (close >= n) return CallGraph::npos;
      k = ts.next_code(close);
      continue;
    }
    if (t.punct("->")) {
      // Trailing return type: consume type tokens up to `{` or `;`.
      k = ts.next_code(k);
      continue;
    }
    if (t.kind == TK::kIdentifier || t.punct("::") || t.punct("*")) {
      k = ts.next_code(k);  // trailing-return type spelling
      continue;
    }
    return CallGraph::npos;
  }
  return CallGraph::npos;
}

}  // namespace

std::size_t CallGraph::find(const std::string& qualified) const {
  const auto it = by_name_.find(qualified);
  return it == by_name_.end() ? npos : it->second;
}

std::size_t CallGraph::enclosing(std::size_t file, std::size_t tok_idx) const {
  std::size_t best = npos;
  std::size_t best_span = static_cast<std::size_t>(-1);
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    for (const FunctionDef& def : nodes_[node].defs) {
      if (def.file != file || tok_idx <= def.body_begin ||
          tok_idx >= def.body_end) {
        continue;
      }
      const std::size_t span = def.body_end - def.body_begin;
      if (span < best_span) {
        best_span = span;
        best = node;
      }
    }
  }
  return best;
}

std::vector<std::size_t> CallGraph::reach_from(
    const std::vector<std::size_t>& roots) const {
  std::vector<std::size_t> parent(nodes_.size(), npos);
  std::vector<std::size_t> queue;
  for (std::size_t r : roots) {
    if (r < nodes_.size() && parent[r] == npos) {
      parent[r] = r;
      queue.push_back(r);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    for (const CallEdge& e : nodes_[u].edges) {
      if (parent[e.callee] == npos) {
        parent[e.callee] = u;
        queue.push_back(e.callee);
      }
    }
  }
  return parent;
}

std::string CallGraph::path_to(const std::vector<std::size_t>& parents,
                               std::size_t node) const {
  std::vector<std::size_t> chain;
  std::size_t cur = node;
  while (cur < nodes_.size() && parents[cur] != npos && parents[cur] != cur &&
         chain.size() < 32) {
    chain.push_back(cur);
    cur = parents[cur];
  }
  chain.push_back(cur);
  std::string out;
  for (std::size_t k = chain.size(); k-- > 0;) {
    if (!out.empty()) out += " -> ";
    out += nodes_[chain[k]].qualified;
  }
  return out;
}

std::string CallGraph::to_dot() const {
  std::string dot = "digraph tsce_callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  std::vector<std::size_t> hot_roots;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].hot) hot_roots.push_back(i);
  }
  const std::vector<std::size_t> hot_parent = reach_from(hot_roots);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    dot += "  n" + std::to_string(i) + " [label=\"" + node.qualified;
    if (!node.defs.empty()) {
      dot += "\\n" + std::to_string(node.defs.size()) + " def(s)";
    }
    dot += "\"";
    if (node.hot) {
      dot += ", style=filled, fillcolor=\"#ff8a65\"";
    } else if (hot_parent[i] != npos) {
      dot += ", style=filled, fillcolor=\"#ffe0b2\"";
    }
    dot += "];\n";
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::set<std::size_t> seen;
    for (const CallEdge& e : nodes_[i].edges) {
      if (!seen.insert(e.callee).second) continue;
      dot += "  n" + std::to_string(i) + " -> n" + std::to_string(e.callee) +
             ";\n";
    }
  }
  dot += "}\n";
  return dot;
}

CallGraph build_call_graph(const std::vector<FileUnit>& units) {
  CallGraph g;

  // class -> direct bases.
  std::map<std::string, std::vector<std::string>> bases;

  auto node_for = [&](const FunctionDef& def) -> std::size_t {
    const std::string key = def.qualified();
    const auto it = g.by_name_.find(key);
    if (it != g.by_name_.end()) return it->second;
    g.nodes_.push_back({key, {}, {}, false});
    g.by_name_.emplace(key, g.nodes_.size() - 1);
    return g.nodes_.size() - 1;
  };

  // --- pass 1: index definitions -------------------------------------------
  for (std::size_t f = 0; f < units.size(); ++f) {
    if (!units[f].in_graph) continue;
    const TokenStream& ts = units[f].ts;
    const auto& toks = ts.tokens();
    const std::size_t n = toks.size();
    std::vector<ClassContext> class_stack;

    for (std::size_t i = 0; i < n; ++i) {
      while (!class_stack.empty() && i > class_stack.back().body_end) {
        class_stack.pop_back();
      }
      const Token& t = toks[i];

      // Class/struct context (skipping `enum class`).
      if ((t.ident("class") || t.ident("struct")) &&
          !ts.at(ts.prev_code(i)).ident("enum")) {
        std::string cls;
        std::size_t k = ts.next_code(i);
        std::size_t base_colon = n;
        while (k < n) {
          const Token& ct = ts.at(k);
          if (ct.kind == TK::kIdentifier) {
            cls = ct.text;  // last component of a qualified name wins
            k = ts.next_code(k);
            continue;
          }
          if (ct.punct("::") || ct.ident("final")) {
            k = ts.next_code(k);
            continue;
          }
          if (ct.punct("<")) {
            const std::size_t close = ts.match_forward(k);
            if (close >= n) break;
            k = ts.next_code(close);
            continue;
          }
          if (ct.punct(":")) {
            base_colon = k;
            k = ts.next_code(k);
            continue;
          }
          break;
        }
        if (k < n && ts.at(k).punct("{") && !cls.empty()) {
          const std::size_t body_close = ts.match_forward(k);
          if (body_close < n) {
            class_stack.push_back({cls, body_close});
            if (base_colon < n) {
              for (std::size_t b = base_colon; b < k; ++b) {
                if (toks[b].kind == TK::kIdentifier &&
                    toks[b].text != "public" && toks[b].text != "protected" &&
                    toks[b].text != "private" && toks[b].text != "virtual") {
                  bases[cls].push_back(toks[b].text);
                }
              }
            }
          }
        }
        continue;
      }

      // Candidate: identifier directly followed by '('.
      if (t.kind != TK::kIdentifier || is_not_function_name(t.text)) continue;
      if (i + 1 >= n || !toks[i + 1].punct("(")) continue;
      const std::size_t close = ts.match_forward(i + 1);
      if (close >= n) continue;
      const std::size_t body = find_body(ts, close);

      // Explicit qualifier (`Class::name`) wins over the context stack.
      std::string cls;
      const std::size_t prev = ts.prev_code(i);
      if (prev < n && toks[prev].punct("::")) {
        const std::size_t q = ts.prev_code(prev);
        if (q < n && toks[q].kind == TK::kIdentifier) cls = toks[q].text;
      } else if (!class_stack.empty()) {
        cls = class_stack.back().name;
      }

      if (body >= n) continue;  // declaration only
      const std::size_t body_close = ts.match_forward(body);
      if (body_close >= n) continue;

      FunctionDef def;
      def.name = t.text;
      def.class_name = cls;
      def.file = f;
      def.name_idx = i;
      def.body_begin = body;
      def.body_end = body_close;
      def.line = t.line;
      def.hot = has_hot_marker(ts, i);
      const std::size_t node = node_for(def);
      g.nodes_[node].defs.push_back(def);
      g.nodes_[node].hot = g.nodes_[node].hot || def.hot;
    }
  }

  // Bare-name index for the unique-definition fallback.
  std::map<std::string, std::vector<std::size_t>> by_bare_name;
  for (std::size_t node = 0; node < g.nodes_.size(); ++node) {
    by_bare_name[g.nodes_[node].defs.front().name].push_back(node);
  }

  // Exact lookup walking the (single-inheritance chain of the) base classes.
  auto lookup_method = [&](const std::string& cls,
                           const std::string& name) -> std::size_t {
    std::string cur = cls;
    for (std::size_t depth = 0; depth < 8 && !cur.empty(); ++depth) {
      const std::size_t hit = g.find(cur + "::" + name);
      if (hit != CallGraph::npos) return hit;
      const auto it = bases.find(cur);
      if (it == bases.end() || it->second.empty()) break;
      cur = it->second.front();
    }
    return CallGraph::npos;
  };

  // --- pass 2: resolve calls into edges ------------------------------------
  for (std::size_t f = 0; f < units.size(); ++f) {
    if (!units[f].in_graph) continue;
    const FileUnit& unit = units[f];
    // Definition signatures are recorded as calls by the scope parser; their
    // name tokens must not resolve into self-edges.
    std::set<std::size_t> def_name_idx;
    for (const auto& node : g.nodes_) {
      for (const FunctionDef& def : node.defs) {
        if (def.file == f) def_name_idx.insert(def.name_idx);
      }
    }
    for (const Call& call : unit.structure.calls) {
      if (def_name_idx.count(call.name_idx) != 0) continue;
      const std::size_t caller = g.enclosing(f, call.name_idx);
      if (caller == CallGraph::npos) continue;

      std::size_t callee = CallGraph::npos;
      if (!call.receiver.empty() && call.qualified) {
        callee = lookup_method(call.receiver, call.name);
      } else if (call.receiver == "this") {
        // `this->method()` dispatches on the caller's own class.
        const std::string& caller_cls =
            g.nodes_[caller].defs.front().class_name;
        if (!caller_cls.empty()) callee = lookup_method(caller_cls, call.name);
      } else if (!call.receiver.empty()) {
        const std::string rtype =
            unit.structure.type_of(call.receiver, call.name_idx);
        if (!rtype.empty()) callee = lookup_method(rtype, call.name);
      } else {
        // A method call chained onto a call result (`a().b()`) has no
        // receiver identifier, so resolving `b` against the caller's own
        // class would fabricate edges.  One idiom is recoverable: the
        // singleton accessor `Class::fn().b()` almost always returns Class&,
        // so try `Class::b`; anything else stays dangling.
        const std::size_t before = unit.ts.prev_code(call.name_idx);
        if (before < unit.ts.size() && (unit.ts.at(before).punct(".") ||
                                        unit.ts.at(before).punct("->"))) {
          const std::size_t rparen = unit.ts.prev_code(before);
          if (rparen < unit.ts.size() && unit.ts.at(rparen).punct(")")) {
            const std::size_t lparen = unit.ts.match_backward(rparen);
            const std::size_t fn = unit.ts.prev_code(lparen);
            const std::size_t colons = unit.ts.prev_code(fn);
            if (fn < unit.ts.size() &&
                unit.ts.at(fn).kind == TK::kIdentifier &&
                colons < unit.ts.size() && unit.ts.at(colons).punct("::")) {
              const std::size_t cls_idx = unit.ts.prev_code(colons);
              if (cls_idx < unit.ts.size() &&
                  unit.ts.at(cls_idx).kind == TK::kIdentifier) {
                callee =
                    lookup_method(unit.ts.at(cls_idx).text, call.name);
              }
            }
          }
          if (callee == CallGraph::npos) continue;
        }
        // A bare name declared as a callable variable (a lambda via `auto`
        // or a std::function) calls through the variable, not a project
        // function.  Other recorded declarations (an in-class method
        // definition is one) still resolve normally.
        const std::string bare_type =
            unit.structure.type_of(call.name, call.name_idx);
        if (callee == CallGraph::npos && bare_type != "auto" &&
            bare_type != "function") {
          const std::string& caller_cls =
              g.nodes_[caller].defs.front().class_name;
          if (!caller_cls.empty()) {
            callee = lookup_method(caller_cls, call.name);
          }
          if (callee == CallGraph::npos) callee = g.find(call.name);
          if (callee == CallGraph::npos) {
            const auto it = by_bare_name.find(call.name);
            if (it != by_bare_name.end() && it->second.size() == 1) {
              callee = it->second.front();
            }
          }
        }
      }
      if (callee == CallGraph::npos) continue;

      const std::size_t line = unit.ts.at(call.name_idx).line;
      auto& edges = g.nodes_[caller].edges;
      const bool dup = std::any_of(
          edges.begin(), edges.end(), [&](const CallEdge& e) {
            return e.callee == callee && e.file == f && e.line == line;
          });
      if (!dup) edges.push_back({callee, f, call.name_idx, line});
    }
  }

  return g;
}

}  // namespace tsce::analyze
