#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace tsce::util {
namespace {

/// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Flags, ParsesEqualsForm) {
  std::int64_t runs = 10;
  Flags flags("test");
  flags.add("runs", &runs, "number of runs");
  Argv argv({"prog", "--runs=25"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(runs, 25);
}

TEST(Flags, ParsesSpaceForm) {
  double scale = 1.0;
  Flags flags("test");
  flags.add("scale", &scale, "scale factor");
  Argv argv({"prog", "--scale", "0.25"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_DOUBLE_EQ(scale, 0.25);
}

TEST(Flags, BoolWithoutValueSetsTrue) {
  bool full = false;
  Flags flags("test");
  flags.add("full", &full, "paper-scale parameters");
  Argv argv({"prog", "--full"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(full);
}

TEST(Flags, NoPrefixNegatesBool) {
  bool csv = true;
  Flags flags("test");
  flags.add("csv", &csv, "emit CSV");
  Argv argv({"prog", "--no-csv"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_FALSE(csv);
}

TEST(Flags, BoolExplicitValues) {
  bool a = false, b = true;
  Flags flags("test");
  flags.add("a", &a, "");
  flags.add("b", &b, "");
  Argv argv({"prog", "--a=true", "--b=false"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(Flags, StringFlag) {
  std::string out = "table";
  Flags flags("test");
  flags.add("format", &out, "output format");
  Argv argv({"prog", "--format=csv"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(out, "csv");
}

TEST(Flags, TelemetrySinkFlagsParse) {
  // The harness telemetry flags (--trace / --metrics / --json) are plain
  // string sinks; empty string means "off" and must survive a parse that
  // does not mention them.
  std::string trace_path, metrics_path, json_path;
  Flags flags("test");
  flags.add("trace", &trace_path, "write span/event JSONL trace to this path");
  flags.add("metrics", &metrics_path, "write a metrics snapshot JSON to this path");
  flags.add("json", &json_path, "write the result series JSON to this path");
  Argv argv({"prog", "--trace=/tmp/run.jsonl", "--metrics", "/tmp/metrics.json"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(trace_path, "/tmp/run.jsonl");
  EXPECT_EQ(metrics_path, "/tmp/metrics.json");
  EXPECT_TRUE(json_path.empty());
}

TEST(Flags, TraceFlagMissingValueFails) {
  std::string trace_path;
  Flags flags("test");
  flags.add("trace", &trace_path, "");
  Argv argv({"prog", "--trace"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, UnknownFlagFails) {
  Flags flags("test");
  Argv argv({"prog", "--bogus=1"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, BadIntValueFails) {
  std::int64_t runs = 0;
  Flags flags("test");
  flags.add("runs", &runs, "");
  Argv argv({"prog", "--runs=abc"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, MissingValueFails) {
  std::int64_t runs = 0;
  Flags flags("test");
  flags.add("runs", &runs, "");
  Argv argv({"prog", "--runs"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags("test");
  Argv argv({"prog", "--help"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, PositionalArgumentsCollected) {
  std::int64_t n = 0;
  Flags flags("test");
  flags.add("n", &n, "");
  Argv argv({"prog", "input.txt", "--n=3", "output.txt"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(n, 3);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(Flags, DefaultsSurviveWhenNotMentioned) {
  std::int64_t runs = 10;
  double scale = 0.5;
  Flags flags("test");
  flags.add("runs", &runs, "");
  flags.add("scale", &scale, "");
  Argv argv({"prog", "--runs=3"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(runs, 3);
  EXPECT_DOUBLE_EQ(scale, 0.5);
}

TEST(Flags, AtLeastRejectsValuesBelowTheMinimum) {
  testing::internal::CaptureStderr();
  EXPECT_TRUE(flag_at_least("machines", 1, 1));
  EXPECT_TRUE(flag_at_least("threads", 0, 0));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flag_at_least("runs", -1, 1));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: --runs must be >= 1\n");
}

}  // namespace
}  // namespace tsce::util
