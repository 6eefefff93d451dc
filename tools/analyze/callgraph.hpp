/// \file callgraph.hpp
/// Project-wide call graph for tsce_analyze's interprocedural rules.
///
/// The builder indexes every function and method *definition* across the
/// graph-eligible trees (src/, bench/, tools/ — tests and examples stay
/// per-file only), then resolves each call expression recorded by the scope
/// parser to a definition:
///
///   - `obj.method(...)` / `ptr->method(...)` resolve through the scope
///     parser's receiver-type inference (FileStructure::type_of) to
///     `Type::method`;
///   - `Class::fn(...)` resolves on the explicit qualifier;
///   - an unqualified `fn(...)` inside a method of class C prefers `C::fn`,
///     then a free function `fn`, then — only when the name has exactly one
///     definition project-wide — that unique definition.  Ambiguous bare
///     names stay unresolved: a dangling edge is a false negative, a guessed
///     edge is a false positive, and interprocedural findings must be
///     trustworthy enough to gate CI.
///
/// On top of the edge list the graph exposes the forward-reachability and
/// witness-path helpers the two interprocedural rules (interp.cpp) are
/// written against.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace tsce::analyze {

/// One analyzed translation unit, owned by the project pass and shared by
/// every interprocedural rule.
struct FileUnit {
  std::string rel;        ///< repo-relative path
  TokenStream ts;         ///< lexed token stream
  FileStructure structure;  ///< scope-parser output
  bool in_graph = false;  ///< definitions indexed into the call graph?
};

/// A function or method definition: one node contribution.  Overloads (and
/// re-definitions across .hpp/.cpp splits the indexer cannot tell apart)
/// share a graph node keyed on the qualified name; the node keeps every
/// definition's body extent.
struct FunctionDef {
  std::string name;        ///< unqualified spelling
  std::string class_name;  ///< enclosing class/struct or explicit qualifier
  std::size_t file = 0;    ///< index into the FileUnit vector
  std::size_t name_idx = 0;   ///< token index of the name
  std::size_t body_begin = 0; ///< token index of the body '{'
  std::size_t body_end = 0;   ///< matching '}'
  std::size_t line = 0;
  bool hot = false;        ///< TSCE_HOT annotation on this definition

  [[nodiscard]] std::string qualified() const {
    return class_name.empty() ? name : class_name + "::" + name;
  }
};

/// A resolved call edge, with the site it was resolved from (for path
/// reconstruction in finding messages).
struct CallEdge {
  std::size_t callee = 0;    ///< node index
  std::size_t file = 0;      ///< site: FileUnit index
  std::size_t tok_idx = 0;   ///< site: token index of the callee name
  std::size_t line = 0;      ///< site: 1-based line
};

class CallGraph {
 public:
  struct Node {
    std::string qualified;
    std::vector<FunctionDef> defs;
    std::vector<CallEdge> edges;  ///< outgoing, deduplicated per (callee, line)
    bool hot = false;             ///< any definition annotated TSCE_HOT
  };

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Node index for a qualified name; npos when not defined in the project.
  [[nodiscard]] std::size_t find(const std::string& qualified) const;

  /// Node containing token \p tok_idx of file \p file in a definition body
  /// (innermost definition wins for nested/lambda-local code); npos if the
  /// token lies outside every indexed body.
  [[nodiscard]] std::size_t enclosing(std::size_t file, std::size_t tok_idx) const;

  /// Forward BFS over call edges from the given roots; returns one parent
  /// node index per node (npos = unreached, self = root) so rules can
  /// reconstruct a witness path with path_to().
  [[nodiscard]] std::vector<std::size_t> reach_from(
      const std::vector<std::size_t>& roots) const;

  /// Witness call chain "a -> b -> c" from a root to \p node given the
  /// parent array of reach_from.
  [[nodiscard]] std::string path_to(const std::vector<std::size_t>& parents,
                                    std::size_t node) const;

  /// Graphviz DOT rendering: one node per function, hot nodes and
  /// hot-reachable nodes filled.
  [[nodiscard]] std::string to_dot() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  friend CallGraph build_call_graph(const std::vector<FileUnit>& units);

  std::vector<Node> nodes_;
  std::map<std::string, std::size_t> by_name_;
};

/// Indexes every definition in the graph-eligible units and resolves calls
/// into edges.  Deterministic: files are processed in vector order and all
/// tie-breaks are lexicographic.
[[nodiscard]] CallGraph build_call_graph(const std::vector<FileUnit>& units);

}  // namespace tsce::analyze
