/// \file scopes.hpp
/// Lightweight declaration & scope parser over the tsce_analyze token stream.
///
/// This is deliberately not a C++ parser: it recovers just the structure the
/// determinism rules need — variable declarations with their (textual) types
/// and enclosing-scope extents, range-for statements, lambda expressions with
/// parsed capture lists, and call expressions with their receiver chain.
/// Heuristic by design: it must degrade to "no structure found" (never a
/// crash or a spurious parse) on code it does not understand, because the
/// analyzer runs over every TU in the repo.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"

namespace tsce::analyze {

/// A declared name: `std::unordered_map<K, V> seen;` records
/// {name "seen", type "std::unordered_map<K,V>", type_last "unordered_map"}.
struct Decl {
  std::string name;
  std::string type;       ///< joined spelling of the type tokens
  std::string type_last;  ///< last type identifier — the rule discriminator
  std::size_t name_idx = 0;   ///< token index of the declared name
  std::size_t scope_end = 0;  ///< token index of the enclosing '}' (or EOF)
};

/// `for (auto& kv : table) { ... }` — body token range is [body_begin,
/// body_end] inclusive of the braces (or the single statement).
struct RangeFor {
  std::size_t for_idx = 0;
  std::size_t range_begin = 0;  ///< first token of the range expression
  std::size_t range_end = 0;    ///< last token of the range expression
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<std::string> loop_vars;  ///< declared loop variable(s)
};

struct Capture {
  std::string name;     ///< empty for a default capture
  bool by_ref = false;  ///< & or &name (init-captures keep the name)
  bool is_default = false;
};

struct Lambda {
  std::size_t intro_idx = 0;  ///< token index of the '['
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<Capture> captures;
};

/// `obj->method(arg...)` records {name "method", receiver "obj"}.
struct Call {
  std::string name;
  std::string receiver;  ///< empty for a free call; last id before . / ->
  bool qualified = false;  ///< preceded by :: (e.g. ThreadPool::submit)
  std::size_t name_idx = 0;
  std::size_t open_idx = 0;   ///< '('
  std::size_t close_idx = 0;  ///< matching ')'
};

struct FileStructure {
  std::vector<Decl> decls;
  std::vector<RangeFor> range_fors;
  std::vector<Lambda> lambdas;
  std::vector<Call> calls;

  /// Declared type discriminator for \p name, searching declarations whose
  /// scope covers token \p at (innermost wins); empty when unknown.
  [[nodiscard]] std::string type_of(const std::string& name,
                                    std::size_t at) const;
};

[[nodiscard]] FileStructure parse_structure(const TokenStream& ts);

}  // namespace tsce::analyze
