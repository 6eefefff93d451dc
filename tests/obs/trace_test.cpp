#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_info.hpp"
#include "util/json.hpp"

namespace tsce::obs {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

std::vector<util::Json> read_records(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<util::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(util::Json::parse(line));
  }
  return records;
}

const util::Json* find_record(const std::vector<util::Json>& records,
                              const std::string& type, const std::string& name) {
  for (const auto& r : records) {
    if (r.at("t").as_string() == type && r.contains("name") &&
        r.at("name").as_string() == name) {
      return &r;
    }
  }
  return nullptr;
}

TEST(Trace, InactiveByDefault) {
  EXPECT_FALSE(tracing_active());
  // Inert without an open trace: must not crash or write anywhere.
  trace_event("test.trace.event", {{"k", 1}});
  Span span("test.trace.span", {{"k", 2}});
  span.add("extra", 3.0);
}

TEST(Trace, RoundTripHeaderSpanEvent) {
  const std::string path = temp_path("tsce_trace_roundtrip.jsonl");
  std::remove(path.c_str());

  RunInfo info = RunInfo::current();
  info.seed = 42;
  info.set_param("scenario", "unit_test");
  ASSERT_TRUE(trace_open(path, info));
  EXPECT_TRUE(tracing_active());

  trace_event("test.trace.event",
              {{"iteration", 3}, {"worth", 1.5}, {"phase", "PSG"}});
  {
    Span span("test.trace.span", {{"phase", "PSG"}, {"trial", std::uint64_t{7}}});
    span.add("evaluations", 128.0);
    span.add("note", "done");
  }
  trace_close();
  EXPECT_FALSE(tracing_active());

  const auto records = read_records(path);
  ASSERT_GE(records.size(), 3u);
  const util::Json& header = records.front();
  EXPECT_EQ(header.at("t").as_string(), "header");
  EXPECT_EQ(header.at("version").as_number(), 1.0);
  EXPECT_EQ(header.at("run_info").at("seed").as_number(), 42.0);
  EXPECT_EQ(header.at("run_info").at("params").at("scenario").as_string(),
            "unit_test");

  const util::Json* event = find_record(records, "event", "test.trace.event");
  ASSERT_NE(event, nullptr);
  EXPECT_GE(event->at("ts").as_number(), 0.0);
  EXPECT_EQ(event->at("f").at("iteration").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(event->at("f").at("worth").as_number(), 1.5);
  EXPECT_EQ(event->at("f").at("phase").as_string(), "PSG");

  const util::Json* span = find_record(records, "span", "test.trace.span");
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->at("dur").as_number(), 0.0);
  EXPECT_EQ(span->at("f").at("phase").as_string(), "PSG");
  EXPECT_EQ(span->at("f").at("trial").as_number(), 7.0);
  EXPECT_EQ(span->at("f").at("evaluations").as_number(), 128.0);
  EXPECT_EQ(span->at("f").at("note").as_string(), "done");
}

TEST(Trace, NestedSpansBothRecorded) {
  const std::string path = temp_path("tsce_trace_nested.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  {
    Span outer("test.trace.outer");
    {
      Span inner("test.trace.inner");
    }
  }
  trace_close();
  const auto records = read_records(path);
  EXPECT_NE(find_record(records, "span", "test.trace.outer"), nullptr);
  EXPECT_NE(find_record(records, "span", "test.trace.inner"), nullptr);
}

TEST(Trace, WorkerThreadRecordsSurviveClose) {
  const std::string path = temp_path("tsce_trace_worker.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  std::thread worker([] {
    Span span("test.trace.worker", {{"phase", "worker"}});
  });
  worker.join();  // harness contract: workers joined before trace_close
  trace_close();
  const auto records = read_records(path);
  const util::Json* span = find_record(records, "span", "test.trace.worker");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("f").at("phase").as_string(), "worker");
}

TEST(Trace, StringFieldsAreEscaped) {
  const std::string path = temp_path("tsce_trace_escape.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  const std::string tricky = "a\"b\\c\nd\te";
  trace_event("test.trace.escape", {{"s", std::string_view(tricky)}});
  trace_close();
  const auto records = read_records(path);
  const util::Json* event = find_record(records, "event", "test.trace.escape");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->at("f").at("s").as_string(), tricky);
}

TEST(Trace, SecondOpenFailsWhileActive) {
  const std::string path = temp_path("tsce_trace_double.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  EXPECT_FALSE(trace_open(temp_path("tsce_trace_double2.jsonl"), RunInfo::current()));
  EXPECT_TRUE(tracing_active());  // the first trace is unaffected
  trace_close();
}

TEST(Trace, ReopenAfterCloseStartsFreshTrace) {
  const std::string first = temp_path("tsce_trace_reopen1.jsonl");
  const std::string second = temp_path("tsce_trace_reopen2.jsonl");
  std::remove(first.c_str());
  std::remove(second.c_str());

  ASSERT_TRUE(trace_open(first, RunInfo::current()));
  trace_event("test.trace.first", {});
  trace_close();

  ASSERT_TRUE(trace_open(second, RunInfo::current()));
  trace_event("test.trace.second", {});
  trace_close();

  const auto records = read_records(second);
  EXPECT_EQ(records.front().at("t").as_string(), "header");
  EXPECT_NE(find_record(records, "event", "test.trace.second"), nullptr);
  EXPECT_EQ(find_record(records, "event", "test.trace.first"), nullptr);
}

TEST(Trace, RecordsAfterCloseAreDropped) {
  const std::string path = temp_path("tsce_trace_after_close.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  trace_close();
  trace_event("test.trace.late", {{"k", 1}});
  {
    Span span("test.trace.late_span");
  }
  const auto records = read_records(path);
  EXPECT_EQ(find_record(records, "event", "test.trace.late"), nullptr);
  EXPECT_EQ(find_record(records, "span", "test.trace.late_span"), nullptr);
}

TEST(Trace, OpenFailsOnUnwritablePath) {
  EXPECT_FALSE(trace_open("/nonexistent-dir/trace.jsonl", RunInfo::current()));
  EXPECT_FALSE(tracing_active());
}

}  // namespace
}  // namespace tsce::obs
