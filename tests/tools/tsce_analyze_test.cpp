/// \file tsce_analyze_test.cpp
/// Golden-fixture regression tests for the tsce_analyze static analyzer: runs
/// the real binary (path injected as TSCE_ANALYZE_BIN) against the per-rule
/// fixture triples under fixtures/analyze/<rule>/ — one violating, one
/// suppressed, one clean file each — plus a SARIF 2.1.0 output smoke test
/// parsed with util::Json.
///
/// Fixtures are analyzed via `--file <path> --as <repo-relative-path>` so the
/// directory-scoped rules (src-only, hot-path-only, headers-only) fire as they
/// would in the repo walk, without the fixtures living inside src/.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

struct RunResult {
  std::string output;  // stdout and stderr interleaved
  int exit_code = -1;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(TSCE_ANALYZE_BIN) + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return result;
  }
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// One rule's fixture directory and the repo-relative path its files are
/// analyzed as (picked so the rule's directory scope applies).
struct RuleFixture {
  const char* rule;
  const char* as_rel;  // without extension
  const char* ext;
};

constexpr RuleFixture kRules[] = {
    {"deterministic-rng", "src/core/fixture", ".cpp"},
    {"invalid-id-sentinel", "src/model/fixture", ".cpp"},
    {"no-iostream-hot", "src/analysis/fixture", ".cpp"},
    {"metric-name-registry", "src/obs/fixture", ".cpp"},
    {"pragma-once", "src/model/fixture", ".hpp"},
    {"nondeterministic-iteration", "src/workload/fixture", ".cpp"},
    {"float-fitness-equality", "src/core/fixture", ".cpp"},
    {"rng-shared-capture", "src/core/fixture", ".cpp"},
    {"transitive-hot-alloc", "src/core/fixture", ".cpp"},
    {"rng-stream-escape", "src/core/fixture", ".cpp"},
    {"unused-suppression", "src/core/fixture", ".cpp"},
};

std::string fixture_args(const RuleFixture& rf, const char* kind) {
  return std::string("--file ") + TSCE_ANALYZE_FIXTURE_DIR + "/" + rf.rule +
         "/" + kind + rf.ext + " --as " + rf.as_rel + rf.ext;
}

TEST(TsceAnalyze, ViolationFixturesFireTheirRule) {
  for (const RuleFixture& rf : kRules) {
    const RunResult r = run(fixture_args(rf, "violation"));
    EXPECT_EQ(r.exit_code, 1) << rf.rule << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("[") + rf.rule + "]"),
              std::string::npos)
        << rf.rule << ": " << r.output;
  }
}

TEST(TsceAnalyze, SuppressedFixturesAreClean) {
  for (const RuleFixture& rf : kRules) {
    const RunResult r = run(fixture_args(rf, "suppressed"));
    EXPECT_EQ(r.exit_code, 0) << rf.rule << ": " << r.output;
    EXPECT_NE(r.output.find("0 findings"), std::string::npos)
        << rf.rule << ": " << r.output;
  }
}

TEST(TsceAnalyze, CleanFixturesAreClean) {
  for (const RuleFixture& rf : kRules) {
    const RunResult r = run(fixture_args(rf, "clean"));
    EXPECT_EQ(r.exit_code, 0) << rf.rule << ": " << r.output;
  }
}

TEST(TsceAnalyze, BenchLiteralCheckedAgainstRegisteredNames) {
  // With --names, a bench/ literal that matches a registered name passes and
  // an unregistered one is a finding naming the rogue literal.
  const std::string fixture = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                              "/metric-name-registry/bench_names.cpp";
  const std::string names = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                            "/metric-name-registry/names_registry.hpp";
  const RunResult r = run("--file " + fixture + " --as bench/fixture.cpp" +
                          " --names " + names);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unregistered metric/trace name "
                          "\"decode.rogue_series\""),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("\"decode.calls\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
}

TEST(TsceAnalyze, BenchLiteralWithoutRegistryKeepsStrictBan) {
  // No --names: the strict literal ban applies even under bench/, so both
  // literals in the fixture are findings.
  const std::string fixture = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                              "/metric-name-registry/bench_names.cpp";
  const RunResult r = run("--file " + fixture + " --as bench/fixture.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("2 findings"), std::string::npos) << r.output;
}

TEST(TsceAnalyze, SrcLiteralIsAFindingEvenWhenRegistered) {
  // Registration never licenses a literal under src/ — producers must go
  // through the names.hpp constant.
  const std::string fixture = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                              "/metric-name-registry/violation.cpp";
  const std::string names = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                            "/metric-name-registry/names_registry.hpp";
  const RunResult r = run("--file " + fixture + " --as src/obs/fixture.cpp" +
                          " --names " + names);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[metric-name-registry]"), std::string::npos)
      << r.output;
}

TEST(TsceAnalyze, SuppressionCommentAboveCoversTheNextCodeLine) {
  // An allow() on a comment-only line covers the next code line, so long
  // findings can carry their justification above them; the finding must be
  // absorbed and the suppression must not read as stale.
  const std::string path = testing::TempDir() + "tsce_analyze_above.cpp";
  {
    std::ofstream out(path);
    out << "#include <cstdlib>\n"
           "// tsce-lint: allow(deterministic-rng)\n"
           "int noisy() { return std::rand(); }\n";
  }
  const RunResult r = run("--file " + path + " --as src/core/fixture.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unused-suppression"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(TsceAnalyze, SarifOutputIsValidAndCarriesTheFinding) {
  const std::string sarif_path = testing::TempDir() + "tsce_analyze_smoke.sarif";
  const RunResult r =
      run(fixture_args(kRules[0], "violation") + " --sarif " + sarif_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;

  std::ifstream in(sarif_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing " << sarif_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const tsce::util::Json doc = tsce::util::Json::parse(buf.str());

  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  EXPECT_NE(doc.at("$schema").as_string().find("sarif-schema-2.1.0"),
            std::string::npos);
  const auto& runs = doc.at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  const auto& driver = runs[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "tsce_analyze");
  EXPECT_EQ(driver.at("rules").as_array().size(), 11u);

  const auto& results = runs[0].at("results").as_array();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("ruleId").as_string(), "deterministic-rng");
  EXPECT_EQ(results[0].at("level").as_string(), "error");
  // Every result carries a stable fingerprint for baseline diffing.
  const std::string fp = results[0]
                             .at("partialFingerprints")
                             .at("tsceFingerprint/v1")
                             .as_string();
  EXPECT_EQ(fp.size(), 16u) << fp;
  const auto& loc = results[0].at("locations").as_array().at(0);
  const auto& physical = loc.at("physicalLocation");
  EXPECT_EQ(physical.at("artifactLocation").at("uri").as_string(),
            "src/core/fixture.cpp");
  EXPECT_EQ(physical.at("artifactLocation").at("uriBaseId").as_string(),
            "SRCROOT");
  EXPECT_GT(physical.at("region").at("startLine").as_number(), 0.0);
  std::remove(sarif_path.c_str());
}

TEST(TsceAnalyze, SarifOutputOnCleanInputHasEmptyResults) {
  const std::string sarif_path = testing::TempDir() + "tsce_analyze_clean.sarif";
  const RunResult r =
      run(fixture_args(kRules[0], "clean") + " --sarif " + sarif_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(sarif_path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buf;
  buf << in.rdbuf();
  const tsce::util::Json doc = tsce::util::Json::parse(buf.str());
  EXPECT_TRUE(doc.at("runs").as_array().at(0).at("results").as_array().empty());
  std::remove(sarif_path.c_str());
}

TEST(TsceAnalyze, CommittedBaselineListsTheRuleRegistryInOrder) {
  // The committed analyze-baseline.sarif must be regenerated whenever a rule
  // is added or removed: its tool.driver.rules ids must equal the registry
  // the binary writes into every SARIF document, in registry order.
  const auto rule_ids = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const tsce::util::Json doc = tsce::util::Json::parse(buf.str());
    std::vector<std::string> ids;
    for (const auto& rule : doc.at("runs")
                                .as_array()
                                .at(0)
                                .at("tool")
                                .at("driver")
                                .at("rules")
                                .as_array()) {
      ids.push_back(rule.at("id").as_string());
    }
    return ids;
  };
  const std::string sarif_path =
      testing::TempDir() + "tsce_analyze_registry.sarif";
  const RunResult r =
      run(fixture_args(kRules[0], "clean") + " --sarif " + sarif_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::vector<std::string> registry = rule_ids(sarif_path);
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(rule_ids(TSCE_ANALYZE_BASELINE), registry)
      << "regenerate with: tsce_analyze --root . --sarif "
         "analyze-baseline.sarif";
  std::remove(sarif_path.c_str());
}

TEST(TsceAnalyze, CallgraphDotIsWritten) {
  const std::string dot_path = testing::TempDir() + "tsce_analyze_graph.dot";
  const RunResult r = run(
      std::string("--file ") + TSCE_ANALYZE_FIXTURE_DIR +
      "/transitive-hot-alloc/violation.cpp --as src/core/fixture.cpp" +
      " --callgraph-dot " + dot_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(dot_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing " << dot_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("digraph tsce_callgraph"), std::string::npos);
  EXPECT_NE(buf.str().find("widen"), std::string::npos) << buf.str();
  std::remove(dot_path.c_str());
}

TEST(TsceAnalyze, BaselineMatchesOnFingerprintNotLineNumber) {
  // A committed baseline absorbs known findings even after the file shifts
  // (fingerprints hash rule + file + trimmed line text, not line numbers);
  // a genuinely new finding still fails the gate.
  const std::string dir = testing::TempDir();
  const std::string v1 = dir + "tsce_baseline_v1.cpp";
  const std::string v2 = dir + "tsce_baseline_v2.cpp";
  const std::string v3 = dir + "tsce_baseline_v3.cpp";
  const std::string baseline = dir + "tsce_baseline.sarif";
  {
    std::ofstream out(v1);
    out << "#include <cstdlib>\n"
           "int noisy() { return std::rand(); }\n";
  }
  {
    // Same finding, shifted two lines down.
    std::ofstream out(v2);
    out << "#include <cstdlib>\n"
           "\n"
           "// a comment pushing the finding down\n"
           "int noisy() { return std::rand(); }\n";
  }
  {
    // Old finding plus a new one on a line the baseline has never seen.
    std::ofstream out(v3);
    out << "#include <cstdlib>\n"
           "int noisy() { return std::rand(); }\n"
           "int louder() { return std::rand() * 2; }\n";
  }

  const std::string as = " --as src/core/fixture.cpp";
  const RunResult seed = run("--file " + v1 + as + " --sarif " + baseline);
  EXPECT_EQ(seed.exit_code, 1) << seed.output;

  const RunResult shifted =
      run("--file " + v2 + as + " --baseline " + baseline);
  EXPECT_EQ(shifted.exit_code, 0) << shifted.output;
  EXPECT_NE(shifted.output.find("(0 new, 1 in baseline)"), std::string::npos)
      << shifted.output;

  const RunResult grown = run("--file " + v3 + as + " --baseline " + baseline);
  EXPECT_EQ(grown.exit_code, 1) << grown.output;
  EXPECT_NE(grown.output.find("NEW src/core/fixture.cpp:3"), std::string::npos)
      << grown.output;
  EXPECT_NE(grown.output.find("(1 new, 1 in baseline)"), std::string::npos)
      << grown.output;

  for (const std::string& p : {v1, v2, v3, baseline}) std::remove(p.c_str());
}

TEST(TsceAnalyze, MalformedBaselineIsAnError) {
  const std::string path = testing::TempDir() + "tsce_baseline_broken.sarif";
  {
    std::ofstream out(path);
    out << "this is not json";
  }
  const RunResult r = run(
      std::string("--file ") + TSCE_ANALYZE_FIXTURE_DIR +
      "/deterministic-rng/clean.cpp --as src/core/fixture.cpp --baseline " +
      path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("malformed baseline"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(TsceAnalyze, SingleFileModeAutoLoadsNamesRegistryFromRoot) {
  // Regression: --file mode must pick up <root>/src/obs/names.hpp exactly
  // like the repo walk does, so bench fixtures validate against the same
  // registry without an explicit --names.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "tsce_names_root";
  fs::create_directories(root / "src" / "obs");
  {
    std::ofstream out(root / "src" / "obs" / "names.hpp");
    out << "#pragma once\n"
           "inline constexpr const char* kDecodeCalls = \"decode.calls\";\n";
  }
  const std::string fixture = std::string(TSCE_ANALYZE_FIXTURE_DIR) +
                              "/metric-name-registry/bench_names.cpp";
  const RunResult r = run("--file " + fixture + " --as bench/fixture.cpp" +
                          " --root " + root.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"decode.rogue_series\""), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("\"decode.calls\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
  fs::remove_all(root);
}

TEST(TsceAnalyze, ChangedOnlyReportsOnlyChangedFiles) {
  if (std::system("git --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "git not available";
  }
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "tsce_changed_repo";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  {
    std::ofstream out(root / "src" / "core" / "committed.cpp");
    out << "#include <cstdlib>\n"
           "int noisy() { return std::rand(); }\n";
  }
  const std::string setup =
      "cd '" + root.string() +
      "' && git init -q && git add -A && "
      "git -c user.email=t@t -c user.name=t commit -q -m seed";
  ASSERT_EQ(std::system(("sh -c \"" + setup + "\" > /dev/null 2>&1").c_str()),
            0);

  // The committed file violates deterministic-rng, but it is unchanged vs.
  // HEAD, so --changed-only filters the finding out.
  const RunResult quiet =
      run("--root " + root.string() + " --changed-only");
  EXPECT_EQ(quiet.exit_code, 0) << quiet.output;
  EXPECT_NE(quiet.output.find("0 findings"), std::string::npos) << quiet.output;

  // An untracked file with the same violation is "changed" and reported.
  {
    std::ofstream out(root / "src" / "core" / "fresh.cpp");
    out << "#include <cstdlib>\n"
           "int fresh_noise() { return std::rand(); }\n";
  }
  const RunResult loud = run("--root " + root.string() + " --changed-only");
  EXPECT_EQ(loud.exit_code, 1) << loud.output;
  EXPECT_NE(loud.output.find("src/core/fresh.cpp"), std::string::npos)
      << loud.output;
  EXPECT_EQ(loud.output.find("committed.cpp:"), std::string::npos)
      << loud.output;
  fs::remove_all(root);
}

TEST(TsceAnalyze, ChangedOnlyBadRefIsAHardError) {
  // Regression: a failed `git diff` (unknown ref) used to degrade into an
  // empty change set — a clean exit that would let a bad CI ref pass the
  // gate.  It must be a usage error instead.
  if (std::system("git --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "git not available";
  }
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "tsce_badref_repo";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  {
    std::ofstream out(root / "src" / "core" / "quiet.cpp");
    out << "int quiet() { return 0; }\n";
  }
  const std::string setup =
      "cd '" + root.string() +
      "' && git init -q && git add -A && "
      "git -c user.email=t@t -c user.name=t commit -q -m seed";
  ASSERT_EQ(std::system(("sh -c \"" + setup + "\" > /dev/null 2>&1").c_str()),
            0);

  const RunResult r = run("--root " + root.string() +
                          " --changed-only no-such-ref-xyz");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("refusing to treat the failure"), std::string::npos)
      << r.output;
  fs::remove_all(root);
}

TEST(TsceAnalyze, ChangedOnlyHandlesPathsWithSpaces) {
  // Regression: newline-splitting of unquoted git output mangled paths with
  // spaces; the -z framing must round-trip them so their findings report.
  if (std::system("git --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "git not available";
  }
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "tsce spaced repo";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core dir");
  {
    std::ofstream out(root / "src" / "core dir" / "with space.cpp");
    out << "int quiet() { return 0; }\n";
  }
  const std::string setup =
      "cd '" + root.string() +
      "' && git init -q && git add -A && "
      "git -c user.email=t@t -c user.name=t commit -q -m seed";
  ASSERT_EQ(std::system(("sh -c \"" + setup + "\" > /dev/null 2>&1").c_str()),
            0);
  {
    // Tracked file changed after the commit: only `git diff` reports it.
    std::ofstream out(root / "src" / "core dir" / "with space.cpp");
    out << "#include <cstdlib>\n"
           "int noisy() { return std::rand(); }\n";
  }
  const RunResult r =
      run("--root '" + root.string() + "' --changed-only");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/core dir/with space.cpp:2"), std::string::npos)
      << r.output;
  fs::remove_all(root);
}

TEST(TsceAnalyze, StatsPrintsPerRuleCountsAndWallTime) {
  const RunResult r = run(fixture_args(kRules[0], "violation") + " --stats");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Table header, the firing rule with its count, a quiet rule at zero, and
  // the shared-phase rows.
  EXPECT_NE(r.output.find("rule"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("millis"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("deterministic-rng"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("rng-stream-escape"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(lex+parse)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(callgraph)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("total"), std::string::npos) << r.output;
}

TEST(TsceAnalyze, StatsCsvEmitsOneRowPerRule) {
  const RunResult r =
      run(fixture_args(kRules[0], "violation") + " --stats --csv");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("rule,findings,millis"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("deterministic-rng,1,"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unused-suppression,0,"), std::string::npos)
      << r.output;
}

TEST(TsceAnalyze, CsvWithoutStatsIsAUsageError) {
  const RunResult r = run(fixture_args(kRules[0], "clean") + " --csv");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--csv requires --stats"), std::string::npos)
      << r.output;
}

TEST(TsceAnalyze, MissingFileFails) {
  const RunResult r = run("--file /nonexistent/code.cpp");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(TsceAnalyze, UnknownArgumentIsAUsageError) {
  const RunResult r = run("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown argument"), std::string::npos) << r.output;
}

}  // namespace
