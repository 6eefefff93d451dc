/// \file analyze_scopes_test.cpp
/// Unit tests for lexer, scope-parser and call-graph corner cases, compiled
/// directly against the analyzer translation units: the golden fixtures drive
/// the binary end-to-end, but these cases are about exact token and extent
/// recovery — user-defined literals, operator<=>, and calls through
/// `this->`.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/callgraph.hpp"
#include "analyze/lexer.hpp"
#include "analyze/scopes.hpp"

namespace {

using tsce::analyze::build_call_graph;
using tsce::analyze::CallGraph;
using tsce::analyze::FileStructure;
using tsce::analyze::FileUnit;
using tsce::analyze::lex;
using tsce::analyze::parse_structure;
using tsce::analyze::Token;
using tsce::analyze::TokenKind;
using tsce::analyze::TokenStream;

/// Lex + parse one source into a single graph-eligible unit.
std::vector<FileUnit> one_unit(const std::string& src) {
  TokenStream ts{lex(src)};
  FileStructure structure = parse_structure(ts);
  std::vector<FileUnit> units;
  units.push_back({"src/core/unit.cpp", std::move(ts), std::move(structure),
                   /*in_graph=*/true});
  return units;
}

const Token* find_ident(const std::vector<Token>& toks,
                        const std::string& text) {
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier && t.text == text) return &t;
  }
  return nullptr;
}

TEST(AnalyzeScopes, NumericUserDefinedLiteralIsOneToken) {
  // `10ms` is a single pp-number: the suffix must not split into an
  // identifier the scope parser would mistake for a declared name.
  const std::vector<Token> toks = lex("auto t = 10ms; auto w = 2.5s;");
  bool saw_10ms = false;
  bool saw_2_5s = false;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kNumber && t.text == "10ms") saw_10ms = true;
    if (t.kind == TokenKind::kNumber && t.text == "2.5s") saw_2_5s = true;
  }
  EXPECT_TRUE(saw_10ms);
  EXPECT_TRUE(saw_2_5s);
  EXPECT_EQ(find_ident(toks, "ms"), nullptr);
  EXPECT_EQ(find_ident(toks, "s"), nullptr);
}

TEST(AnalyzeScopes, UdlDeclarationStillRecordsTheName) {
  // The decl walker must see `timeout` as a declared name even though its
  // initializer is a UDL (the backward type walk lands on `auto`).
  TokenStream ts{lex("void f() { auto timeout = 10ms; (void)timeout; }")};
  const FileStructure fs = parse_structure(ts);
  bool found = false;
  for (const auto& d : fs.decls) {
    if (d.name == "timeout") {
      found = true;
      EXPECT_EQ(d.type_last, "auto");
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeScopes, SpaceshipOperatorLexesAsOnePunct) {
  const std::vector<Token> toks = lex("bool b = (a <=> c) < 0;");
  bool saw_spaceship = false;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kPunct && t.text == "<=>") saw_spaceship = true;
    // Greedy mis-lexing would leave a stray `<=` directly before a `>`.
    EXPECT_NE(t.text, "=>");
  }
  EXPECT_TRUE(saw_spaceship);
}

TEST(AnalyzeScopes, DefaultedSpaceshipDoesNotBreakMethodIndexing) {
  // `operator<=>` inside a class must not derail the definition indexer:
  // the method after it still becomes a call-graph node of the class.
  const std::vector<FileUnit> units = one_unit(
      "#include <compare>\n"
      "class Version {\n"
      " public:\n"
      "  auto operator<=>(const Version&) const = default;\n"
      "  int major() const { return major_; }\n"
      " private:\n"
      "  int major_ = 0;\n"
      "};\n");
  const CallGraph graph = build_call_graph(units);
  EXPECT_NE(graph.find("Version::major"), CallGraph::npos);
}

TEST(AnalyzeScopes, ThisArrowCallResolvesToTheCallersClass) {
  // `this->helper()` must produce a call edge to the caller's own class
  // method, exactly like a bare `helper()` call would.
  const std::vector<FileUnit> units = one_unit(
      "class Engine {\n"
      " public:\n"
      "  void run() { this->helper(); }\n"
      " private:\n"
      "  void helper() {}\n"
      "};\n");
  const CallGraph graph = build_call_graph(units);
  const std::size_t run = graph.find("Engine::run");
  const std::size_t helper = graph.find("Engine::helper");
  ASSERT_NE(run, CallGraph::npos);
  ASSERT_NE(helper, CallGraph::npos);
  bool edge = false;
  for (const auto& e : graph.nodes()[run].edges) {
    if (e.callee == helper) edge = true;
  }
  EXPECT_TRUE(edge);
}

}  // namespace
