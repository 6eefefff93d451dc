/// \file trace_report_test.cpp
/// End-to-end regression tests for the trace_report CLI: runs the real binary
/// (path injected as TSCE_TRACE_REPORT_BIN) against the golden JSONL fixture
/// and asserts on its combined output and exit code.  The fixture contains
/// spans for two phases, improvement events (including a same-worth/better-
/// slackness tie-break), two malformed lines, and one foreign event type.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "obs/names.hpp"
#include "obs/run_info.hpp"
#include "obs/trace.hpp"

namespace {

struct RunResult {
  std::string output;  // stdout and stderr interleaved
  int exit_code = -1;
};

RunResult run(const std::string& args) {
  const std::string cmd =
      std::string(TSCE_TRACE_REPORT_BIN) + " " + args + " 2>&1";
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

std::string fixture() {
  return std::string(TSCE_TOOLS_FIXTURE_DIR) + "/golden_trace.jsonl";
}

TEST(TraceReport, RendersPerPhaseTablesFromGoldenTrace) {
  const RunResult r = run(fixture());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Header provenance line from the run_info record.
  EXPECT_NE(r.output.find("run: git abc123def456, Release build, seed 42, 2 threads"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("scenario=highly_loaded"), std::string::npos);
  // Span groups keyed "name [phase]", in first-seen order.
  EXPECT_NE(r.output.find("Per-phase span time:"), std::string::npos);
  const std::size_t trial_at = r.output.find("search.trial [PSG]");
  const std::size_t restart_at = r.output.find("search.restart [HillClimb]");
  EXPECT_NE(trial_at, std::string::npos);
  EXPECT_NE(restart_at, std::string::npos);
  EXPECT_LT(trial_at, restart_at);
  // Convergence folds search.improve events per phase; the third PSG event
  // has equal worth but higher slackness, so it must win the tie-break.
  EXPECT_NE(r.output.find("Fitness convergence"), std::string::npos);
  EXPECT_NE(r.output.find("150"), std::string::npos);
  EXPECT_NE(r.output.find("0.5000"), std::string::npos);
  // Exactly the two broken lines are counted; the foreign event type is not.
  EXPECT_NE(r.output.find("skipped 2 malformed lines"), std::string::npos);
}

TEST(TraceReport, CsvModeEmitsMachineReadableRows) {
  const RunResult r = run(fixture() + " --csv");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("phase,spans,total s,mean ms,max ms"), std::string::npos)
      << r.output;
  // 0.120 + 0.080 over two spans: total 0.200 s, mean 100 ms, max 120 ms.
  EXPECT_NE(r.output.find("search.trial [PSG],2,0.200,100.000,120.000"),
            std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("phase,improvements,first worth,best worth,best slack,"
                    "t(first) s,t(best) s"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("PSG,3,120,150,0.5000,0.015,0.130"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("HillClimb,1,90,90,0.1250,0.050,0.050"),
            std::string::npos)
      << r.output;
  // CSV mode must not emit the human table headings.
  EXPECT_EQ(r.output.find("Per-phase span time:"), std::string::npos);
}

TEST(TraceReport, FullModeListsEveryImprovementEvent) {
  const RunResult r = run(fixture() + " --full");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Improvement events:"), std::string::npos) << r.output;
  // Four improvement rows, in file order: iteration 40 appears only there.
  EXPECT_NE(r.output.find("40"), std::string::npos);
}

TEST(TraceReport, AllMalformedInputFailsWithDiagnostic) {
  const std::string path = testing::TempDir() + "tsce_trace_garbage.jsonl";
  {
    std::ofstream out(path);
    out << "not json at all\n{\"t\":\"header\"}\n\n";
  }
  const RunResult r = run(path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no span or improvement records"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(TraceReport, MissingFileFails) {
  const RunResult r = run("/nonexistent/trace.jsonl");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(TraceReport, RejectsWrongArgumentCount) {
  const RunResult no_args = run("");
  EXPECT_EQ(no_args.exit_code, 1);
  EXPECT_NE(no_args.output.find("expected exactly one trace file"),
            std::string::npos)
      << no_args.output;
}

TEST(TraceReport, ConvergenceModeEmitsCurveRows) {
  const RunResult r = run("--convergence " + fixture());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("git_sha,scenario,phase,t_s,worth,slackness"),
            std::string::npos)
      << r.output;
  // One row per improvement event, keyed by the header's commit + scenario.
  EXPECT_NE(
      r.output.find("abc123def456,highly_loaded,PSG,0.015000,120,0.250000"),
      std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("abc123def456,highly_loaded,PSG,0.130000,150,0.500000"),
      std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find("abc123def456,highly_loaded,HillClimb,0.050000,90,0.125000"),
      std::string::npos)
      << r.output;
  // Span records and foreign events contribute no rows; the human table
  // headings never appear.
  EXPECT_EQ(r.output.find("Per-phase span time:"), std::string::npos);
  EXPECT_NE(r.output.find("skipped 2 malformed lines"), std::string::npos);
}

TEST(TraceReport, ConvergenceModeFoldsMultipleScenarioFiles) {
  const std::string scenario2 =
      std::string(TSCE_TOOLS_FIXTURE_DIR) + "/golden_trace_scenario2.jsonl";
  const RunResult r = run("--convergence " + fixture() + " " + scenario2);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("highly_loaded,PSG"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(
                "abc123def456,qos_limited,Annealing,0.070000,110,0.750000"),
            std::string::npos)
      << r.output;
}

TEST(TraceReport, ConvergenceModeRequiresAtLeastOneFile) {
  const RunResult r = run("--convergence");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("at least one trace file"), std::string::npos)
      << r.output;
}

// --- convergence-diff ------------------------------------------------------

std::string write_csv(const std::string& name, const std::string& rows) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << "git_sha,scenario,phase,t_s,worth,slackness\n" << rows;
  return path;
}

TEST(TraceReport, ConvergenceDiffIdenticalCurvesIsClean) {
  const std::string rows =
      "abc,highly_loaded,PSG,0.010000,100,0.100000\n"
      "abc,highly_loaded,PSG,0.050000,140,0.200000\n";
  const std::string old_csv = write_csv("diff_same_old.csv", rows);
  const std::string new_csv = write_csv("diff_same_new.csv", rows);
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no convergence regressions"), std::string::npos)
      << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffFlagsWorthAtTimeRegression) {
  // The candidate reaches the same final worth but later: at t=0.05 the
  // baseline had 140 while the candidate still sits at 100.
  const std::string old_csv = write_csv(
      "diff_reg_old.csv",
      "abc,highly_loaded,PSG,0.010000,100,0.100000\n"
      "abc,highly_loaded,PSG,0.050000,140,0.200000\n");
  const std::string new_csv = write_csv(
      "diff_reg_new.csv",
      "def,highly_loaded,PSG,0.010000,100,0.100000\n"
      "def,highly_loaded,PSG,0.090000,140,0.200000\n");
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("scenario,phase,t_s,old_worth,new_worth,delta"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("highly_loaded,PSG,0.050000,140,100,40.000000"),
            std::string::npos)
      << r.output;
  // At t=0.09 both have 140 — no row for that time point.
  EXPECT_EQ(r.output.find("0.090000"), std::string::npos) << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffToleranceAbsorbsSmallDips) {
  const std::string old_csv = write_csv(
      "diff_tol_old.csv", "abc,qos_limited,Annealing,0.020000,110,0.500000\n");
  const std::string new_csv = write_csv(
      "diff_tol_new.csv", "def,qos_limited,Annealing,0.020000,105,0.500000\n");
  const RunResult strict =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(strict.exit_code, 1) << strict.output;
  EXPECT_NE(strict.output.find("qos_limited,Annealing,0.020000,110,105,5.000000"),
            std::string::npos)
      << strict.output;
  const RunResult tolerant = run("--convergence-diff " + old_csv + " " +
                                 new_csv + " --tolerance 5");
  EXPECT_EQ(tolerant.exit_code, 0) << tolerant.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffIgnoresStartTimeJitter) {
  // The candidate's first improvement lands later on the wall clock (run-to-
  // run launch jitter); before it, its step function reads 0.  The diff must
  // compare from the later of the two starts instead of flagging the
  // baseline's head start as a full-worth regression.
  const std::string old_csv = write_csv(
      "diff_jitter_old.csv",
      "abc,highly_loaded,PSG,0.010000,100,0.100000\n"
      "abc,highly_loaded,PSG,0.050000,140,0.200000\n");
  const std::string new_csv = write_csv(
      "diff_jitter_new.csv",
      "def,highly_loaded,PSG,0.030000,100,0.100000\n"
      "def,highly_loaded,PSG,0.050000,140,0.200000\n");
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no convergence regressions"), std::string::npos)
      << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffMissingCurveIsARegression) {
  const std::string old_csv = write_csv(
      "diff_miss_old.csv",
      "abc,highly_loaded,PSG,0.010000,100,0.100000\n"
      "abc,qos_limited,PSG,0.020000,90,0.300000\n");
  const std::string new_csv = write_csv(
      "diff_miss_new.csv", "def,highly_loaded,PSG,0.010000,100,0.100000\n");
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("qos_limited,PSG,0.020000,90,0,90.000000"),
            std::string::npos)
      << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffNewExtraCurveIsFine) {
  const std::string old_csv = write_csv(
      "diff_extra_old.csv", "abc,highly_loaded,PSG,0.010000,100,0.100000\n");
  const std::string new_csv = write_csv(
      "diff_extra_new.csv",
      "def,highly_loaded,PSG,0.010000,100,0.100000\n"
      "def,lightly_loaded,PSG,0.010000,80,0.900000\n");
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, ConvergenceDiffRequiresExactlyTwoFiles) {
  const RunResult r = run("--convergence-diff one.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("exactly two"), std::string::npos) << r.output;
}

TEST(TraceReport, ConvergenceDiffMalformedCsvFails) {
  const std::string old_csv =
      write_csv("diff_bad_old.csv", "not,enough,columns\n");
  const std::string new_csv = write_csv("diff_bad_new.csv", "");
  const RunResult r =
      run("--convergence-diff " + old_csv + " " + new_csv);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("malformed row"), std::string::npos) << r.output;
  std::remove(old_csv.c_str());
  std::remove(new_csv.c_str());
}

TEST(TraceReport, MetricsSeriesModeFoldsThroughputAndTails) {
  const std::string series =
      std::string(TSCE_TOOLS_FIXTURE_DIR) + "/golden_metrics_series.jsonl";
  const RunResult r = run("--metrics-series " + series);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // RunInfo provenance from the exporter header.
  EXPECT_NE(r.output.find("git abc123def456"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("3 samples over 2.000 s"), std::string::npos)
      << r.output;
  // decode.calls went 1000 -> 5000 over 2 s: delta 4000, 2000/s.
  EXPECT_NE(r.output.find("Counter throughput"), std::string::npos);
  EXPECT_NE(r.output.find("decode.calls"), std::string::npos);
  EXPECT_NE(r.output.find("4000"), std::string::npos);
  EXPECT_NE(r.output.find("2000.0"), std::string::npos);
  // Tail table reports the last sample's HDR quantiles.
  EXPECT_NE(r.output.find("Histogram tails"), std::string::npos);
  EXPECT_NE(r.output.find("decode.latency_ns"), std::string::npos);
  EXPECT_NE(r.output.find("93000"), std::string::npos);  // p999
}

TEST(TraceReport, MetricsSeriesCsvModeEmitsMachineReadableRows) {
  const std::string series =
      std::string(TSCE_TOOLS_FIXTURE_DIR) + "/golden_metrics_series.jsonl";
  const RunResult r = run("--metrics-series --csv " + series);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("counter,first,last,delta,rate/s"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("decode.calls,1000,5000,4000,2000.0"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("histogram,count,mean,p50,p90,p99,p999,max"),
            std::string::npos)
      << r.output;
}

TEST(TraceReport, MetricsSeriesWithNoSamplesFails) {
  const std::string path = testing::TempDir() + "tsce_series_empty.jsonl";
  {
    std::ofstream out(path);
    out << "{\"t\":\"header\",\"version\":1,\"exporter\":\"metrics\"}\n";
  }
  const RunResult r = run("--metrics-series " + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no samples"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(TraceReport, FlightRecorderDumpRendersEventsTable) {
  // A trace holding only recorder ring events (fr.*): the default mode folds
  // them into the generic Events table with provenance.
  const std::string dump =
      std::string(TSCE_TOOLS_FIXTURE_DIR) + "/golden_fr_dump.jsonl";
  const RunResult r = run(dump);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("git abc123def456"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Events:"), std::string::npos) << r.output;
  const std::size_t decode_at = r.output.find("fr.decode");
  const std::size_t reject_at = r.output.find("fr.commit.reject");
  const std::size_t anomaly_at = r.output.find("fr.anomaly");
  EXPECT_NE(decode_at, std::string::npos) << r.output;
  EXPECT_NE(reject_at, std::string::npos) << r.output;
  EXPECT_NE(anomaly_at, std::string::npos) << r.output;
  EXPECT_LT(decode_at, reject_at);  // first-seen order preserved
}

TEST(TraceReport, NonFiniteFieldsAreNotMalformed) {
  // The recorder writes NaN and infinities as null and huge values in full;
  // every such line parses and reads as an absent field.
  const std::string path = testing::TempDir() + "tsce_trace_nonfinite.jsonl";
  ASSERT_TRUE(tsce::obs::trace_open(path, tsce::obs::RunInfo::current()));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    tsce::obs::Span span(tsce::obs::names::kBenchAlloc, {{"phase", "PSG"}});
    span.add("metric", nan);
    span.add("evaluations", 1e300);
  }
  tsce::obs::trace_event(tsce::obs::names::kSearchImprove,
                         {{"phase", "PSG"}, {"worth", 120}, {"slackness", inf}});
  tsce::obs::trace_event(tsce::obs::names::kSearchImprove,
                         {{"phase", "PSG"}, {"worth", 130}, {"slackness", -inf}});
  tsce::obs::trace_event(tsce::obs::names::kBenchMicroEvent, {{"k", nan}});
  tsce::obs::trace_close();

  const RunResult r = run(path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("malformed"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bench.alloc [PSG]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(tsce::obs::names::kBenchMicroEvent), std::string::npos)
      << r.output;
  const RunResult conv = run("--convergence " + path);
  EXPECT_EQ(conv.exit_code, 0) << conv.output;
  EXPECT_EQ(conv.output.find("malformed"), std::string::npos) << conv.output;
  std::remove(path.c_str());
}

}  // namespace
