#include "analyze/scopes.hpp"

#include <algorithm>
#include <array>

namespace tsce::analyze {

namespace {

using TK = TokenKind;

/// Keywords that end a backward type scan — `return foo;` must not read
/// "return" as foo's type.
constexpr std::array<std::string_view, 19> kNotTypeHeads = {
    "return",      "new",      "delete",           "throw",
    "case",        "goto",     "else",             "do",
    "while",       "if",       "switch",           "co_return",
    "co_await",    "sizeof",   "static_cast",      "dynamic_cast",
    "reinterpret_cast", "const_cast", "decltype"};

bool is_not_type_head(const std::string& s) {
  return std::find(kNotTypeHeads.begin(), kNotTypeHeads.end(), s) !=
         kNotTypeHeads.end();
}

bool is_type_modifier(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" || s == "inline" ||
         s == "mutable" || s == "volatile" || s == "typename" || s == "auto" ||
         s == "thread_local";
}

}  // namespace

std::string FileStructure::type_of(const std::string& name,
                                   std::size_t at) const {
  const Decl* best = nullptr;
  for (const Decl& d : decls) {
    if (d.name != name || d.name_idx > at || d.scope_end < at) continue;
    // Innermost scope = latest declaration point among those covering `at`.
    if (best == nullptr || d.name_idx > best->name_idx) best = &d;
  }
  return best != nullptr ? best->type_last : std::string();
}

FileStructure parse_structure(const TokenStream& ts) {
  FileStructure out;
  const auto& toks = ts.tokens();
  const std::size_t n = toks.size();

  // --- brace scope stack: maps each declaration to its enclosing '}' -------
  // One entry per open '{': indices of the declarations it encloses.
  std::vector<std::vector<std::size_t>> scope_stack;

  auto close_scope = [&](std::size_t close_idx) {
    if (scope_stack.empty()) return;
    for (std::size_t di : scope_stack.back()) {
      out.decls[di].scope_end = close_idx;
    }
    scope_stack.pop_back();
  };

  // --- declaration scan: `Type<...> name` followed by = ; { ( or , ---------
  // Walks backward from a candidate name over the type spelling; records the
  // decl when a plausible type remains and the scan hit a statement boundary.
  auto try_decl = [&](std::size_t name_at) -> bool {
    const Token& name_tok = toks[name_at];
    if (name_tok.kind != TK::kIdentifier || is_not_type_head(name_tok.text)) {
      return false;
    }
    std::string type_last;
    std::vector<std::string> type_parts;
    std::size_t k = ts.prev_code(name_at);
    bool expect_type_id = true;  // next backward token may name the type
    while (k < n) {
      const Token& t = toks[k];
      if (t.kind == TK::kPunct &&
          (t.text == "&" || t.text == "&&" || t.text == "*")) {
        k = ts.prev_code(k);
        continue;
      }
      if (t.kind == TK::kPunct && t.text == ">") {
        const std::size_t open = ts.match_backward(k);
        if (open >= n) return false;
        k = ts.prev_code(open);
        expect_type_id = true;
        continue;
      }
      if (t.kind == TK::kPunct && t.text == "::") {
        k = ts.prev_code(k);
        expect_type_id = true;
        continue;
      }
      if (t.kind == TK::kIdentifier) {
        if (is_not_type_head(t.text)) return false;
        if (!expect_type_id && !is_type_modifier(t.text)) break;
        if (type_last.empty() && !is_type_modifier(t.text)) type_last = t.text;
        type_parts.push_back(t.text);
        expect_type_id = is_type_modifier(t.text);
        k = ts.prev_code(k);
        continue;
      }
      break;  // statement boundary or something that is not a type
    }
    if (type_last.empty()) {
      // `auto x = ...` has no concrete type spelling but is still a
      // declaration — the call-graph resolver must know the name is a local
      // (e.g. a lambda variable), not a free function.
      if (std::find(type_parts.begin(), type_parts.end(), "auto") ==
          type_parts.end()) {
        return false;
      }
      type_last = "auto";
    }
    // The token before the type must be a boundary, not an expression.
    if (k < n) {
      const Token& b = toks[k];
      const bool boundary =
          b.kind == TK::kPunct &&
          (b.text == ";" || b.text == "{" || b.text == "}" || b.text == "(" ||
           b.text == "," || b.text == ":" || b.text == ">");
      if (!boundary) return false;
    }
    std::string type;
    for (auto it = type_parts.rbegin(); it != type_parts.rend(); ++it) {
      if (!type.empty()) type += ' ';
      type += *it;
    }
    out.decls.push_back({name_tok.text, type, type_last, name_at, n - 1});
    if (!scope_stack.empty()) {
      scope_stack.back().push_back(out.decls.size() - 1);
    }
    return true;
  };

  // --- single forward pass --------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind == TK::kPunct && t.text == "{") {
      scope_stack.push_back({});
      continue;
    }
    if (t.kind == TK::kPunct && t.text == "}") {
      close_scope(i);
      continue;
    }

    // Range-for: for ( decl : range ) body
    if (t.ident("for")) {
      const std::size_t open = ts.next_code(i);
      if (open >= n || !toks[open].punct("(")) continue;
      const std::size_t close = ts.match_forward(open);
      if (close >= n) continue;
      // Top-level ':' inside the parens.
      std::size_t colon = n;
      int depth = 0;
      for (std::size_t k = open + 1; k < close; ++k) {
        const Token& p = toks[k];
        if (p.kind != TK::kPunct) continue;
        if (p.text == "(" || p.text == "[" || p.text == "{") ++depth;
        else if (p.text == ")" || p.text == "]" || p.text == "}") --depth;
        else if (p.text == ":" && depth == 0) {
          colon = k;
          break;
        }
      }
      if (colon >= n) continue;
      RangeFor rf;
      rf.for_idx = i;
      rf.range_begin = ts.next_code(colon);
      rf.range_end = ts.prev_code(close);
      // Loop variables: identifiers of the structured binding / decl, i.e.
      // every identifier between '(' and ':' that is not a type keyword.
      std::vector<std::string> ids;
      for (std::size_t k = open + 1; k < colon; ++k) {
        if (toks[k].kind == TK::kIdentifier && !is_type_modifier(toks[k].text)) {
          ids.push_back(toks[k].text);
        }
      }
      // `auto& [key, value]` keeps both; `const Foo& f` keeps only the last.
      const bool structured =
          ts.next_code(open) < colon &&
          std::any_of(toks.begin() + static_cast<std::ptrdiff_t>(open),
                      toks.begin() + static_cast<std::ptrdiff_t>(colon),
                      [](const Token& x) { return x.punct("["); });
      if (structured) {
        rf.loop_vars = ids;
      } else if (!ids.empty()) {
        rf.loop_vars.push_back(ids.back());
      }
      const std::size_t after = ts.next_code(close);
      if (after < n && toks[after].punct("{")) {
        rf.body_begin = after;
        rf.body_end = ts.match_forward(after);
      } else {
        rf.body_begin = after;
        std::size_t k = after;
        int d2 = 0;
        while (k < n) {
          const Token& p = toks[k];
          if (p.kind == TK::kPunct) {
            if (p.text == "(" || p.text == "{" || p.text == "[") ++d2;
            if (p.text == ")" || p.text == "}" || p.text == "]") --d2;
            if (p.text == ";" && d2 == 0) break;
          }
          ++k;
        }
        rf.body_end = k;
      }
      if (rf.body_end < n) out.range_fors.push_back(rf);
      continue;
    }

    // Lambda introducer: '[' not preceded by a value expression.
    if (t.punct("[")) {
      const std::size_t prev = ts.prev_code(i > 0 ? i : 0);
      bool subscript = false;
      if (prev < n && i > 0) {
        const Token& p = toks[prev];
        subscript = (p.kind == TK::kIdentifier && !is_not_type_head(p.text) &&
                     p.text != "auto") ||
                    p.kind == TK::kNumber || p.kind == TK::kString ||
                    (p.kind == TK::kPunct &&
                     (p.text == "]" || p.text == ")" || p.text == ">"));
      }
      if (subscript) continue;
      const std::size_t intro_close = ts.match_forward(i);
      if (intro_close >= n) continue;
      // Find the body '{': allow (params), specifiers, -> ret between.
      std::size_t k = ts.next_code(intro_close);
      if (k < n && toks[k].punct("(")) k = ts.next_code(ts.match_forward(k));
      std::size_t guard = 0;
      while (k < n && !toks[k].punct("{") && !toks[k].punct(";") &&
             guard++ < 16) {
        k = ts.next_code(k);
      }
      if (k >= n || !toks[k].punct("{")) continue;
      Lambda lam;
      lam.intro_idx = i;
      lam.body_begin = k;
      lam.body_end = ts.match_forward(k);
      if (lam.body_end >= n) continue;
      // Parse the capture list.
      std::size_t c = ts.next_code(i);
      while (c < intro_close) {
        Capture cap;
        if (toks[c].punct("&")) {
          cap.by_ref = true;
          c = ts.next_code(c);
        } else if (toks[c].punct("=")) {
          cap.is_default = true;
          c = ts.next_code(c);
        }
        if (c < intro_close && toks[c].kind == TK::kIdentifier) {
          cap.name = toks[c].text;
          c = ts.next_code(c);
        } else if (cap.by_ref) {
          cap.is_default = true;
        }
        // Skip init-capture expressions and anything else to the ','.
        int d2 = 0;
        while (c < intro_close &&
               !(d2 == 0 && toks[c].punct(","))) {
          if (toks[c].punct("(") || toks[c].punct("[") || toks[c].punct("{")) ++d2;
          if (toks[c].punct(")") || toks[c].punct("]") || toks[c].punct("}")) --d2;
          c = ts.next_code(c);
        }
        if (c < intro_close) c = ts.next_code(c);  // past ','
        if (cap.by_ref || cap.is_default || !cap.name.empty()) {
          lam.captures.push_back(cap);
        }
      }
      out.lambdas.push_back(std::move(lam));
      // fall through: the '[' token needs no further handling
      continue;
    }

    // Call expression: identifier directly followed by '('.
    if (t.kind == TK::kIdentifier && !is_not_type_head(t.text)) {
      const std::size_t open = i + 1 < n ? i + 1 : i;
      if (toks[open].punct("(")) {
        const std::size_t close = ts.match_forward(open);
        if (close < n) {
          Call call;
          call.name = t.text;
          call.name_idx = i;
          call.open_idx = open;
          call.close_idx = close;
          const std::size_t prev = ts.prev_code(i);
          if (prev < n && toks[prev].kind == TK::kPunct) {
            if (toks[prev].text == "." || toks[prev].text == "->") {
              const std::size_t recv = ts.prev_code(prev);
              if (recv < n && toks[recv].kind == TK::kIdentifier) {
                call.receiver = toks[recv].text;
              }
            } else if (toks[prev].text == "::") {
              call.qualified = true;
              const std::size_t q = ts.prev_code(prev);
              if (q < n && toks[q].kind == TK::kIdentifier) {
                call.receiver = toks[q].text;
              }
            }
          }
          out.calls.push_back(std::move(call));
        }
      }
      // Also try this identifier as a declared name.  ')' covers the last
      // function parameter (`void f(util::Rng& rng)`).
      const std::size_t after = ts.next_code(i);
      if (after < n && toks[after].kind == TK::kPunct) {
        const std::string& a = toks[after].text;
        if (a == "=" || a == ";" || a == "{" || a == "(" || a == "," ||
            a == ")") {
          try_decl(i);
        }
      }
    }
  }

  while (!scope_stack.empty()) close_scope(n - 1);
  return out;
}

}  // namespace tsce::analyze
