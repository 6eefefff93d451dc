/// \file trace_test.cpp
/// Event recorder suite.  Trace.*: the JSONL span/event records, their
/// escaping and number format, and the open/close lifecycle.
/// FlightRecorderTest.*: the per-thread rings of fr.* events and the rule for
/// writing them into the trace — ring wrap-around, the one-shot slow-decode
/// write, the SIGUSR1 trigger + poll path, each event at most once and none
/// from before trace_open, a retiring thread writing its own ring, and one
/// tid and clock shared with the spans.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/run_info.hpp"
#include "util/json.hpp"

namespace tsce::obs {
namespace {

/// Per-process temp file: ctest runs each case and the whole binary at the
/// same time, and two processes must not write one trace file.
std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + leaf;
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

TEST(Trace, NonFiniteNumbersAreWrittenAsNull) {
  const std::string path = temp_path("tsce_trace_nonfinite.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  const double inf = std::numeric_limits<double>::infinity();
  trace_event("test.trace.nonfinite",
              {{"nan", std::numeric_limits<double>::quiet_NaN()},
               {"inf", inf},
               {"ninf", -inf},
               {"huge", 1e300},
               {"past_int64", 9.3e18}});
  {
    Span span("test.trace.nonfinite_span",
              {{"nan", std::numeric_limits<double>::quiet_NaN()}});
    span.add("inf", inf);
  }
  trace_close();
  const auto records = read_records(path);  // every line must parse
  const util::Json* event = find_record(records, "event", "test.trace.nonfinite");
  ASSERT_NE(event, nullptr);
  const util::Json& f = event->at("f");
  EXPECT_TRUE(f.at("nan").is_null());
  EXPECT_TRUE(f.at("inf").is_null());
  EXPECT_TRUE(f.at("ninf").is_null());
  EXPECT_EQ(f.at("huge").as_number(), 1e300);
  EXPECT_EQ(f.at("past_int64").as_number(), 9.3e18);
  const util::Json* span = find_record(records, "span", "test.trace.nonfinite_span");
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->at("f").at("nan").is_null());
  EXPECT_TRUE(span->at("f").at("inf").is_null());
}

std::vector<const util::Json*> named(const std::vector<util::Json>& records,
                                     std::string_view name) {
  std::vector<const util::Json*> out;
  for (const util::Json& r : records) {
    if (r.at("t").as_string() == "event" && r.at("name").as_string() == name) {
      out.push_back(&r);
    }
  }
  return out;
}

/// The a0 payloads of the fr.mark events tagged with a1 == \p tag, in file
/// order.
std::vector<std::uint64_t> marks(const std::vector<util::Json>& records,
                                 double tag) {
  std::vector<std::uint64_t> out;
  for (const util::Json* e : named(records, "fr.mark")) {
    if (e->at("f").at("a1").as_number() == tag) {
      out.push_back(static_cast<std::uint64_t>(e->at("f").at("a0").as_number()));
    }
  }
  return out;
}

std::int64_t to_ns(const util::Json& seconds) {
  return std::llround(seconds.as_number() * 1e9);
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace_close();
    fr_set_decode_watermark_ns(0);
  }
};

TEST_F(FlightRecorderTest, RingKeepsTheLastCapacityEvents) {
  const std::string path = temp_path("fr_wrap.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  constexpr std::uint64_t kOverwritten = 136;
  std::thread writer([] {
    for (std::uint64_t i = 0; i < kRingCapacity + kOverwritten; ++i) {
      fr_record(FrKind::kMark, i, 7, 0);
    }
  });
  writer.join();
  trace_close();

  // The ring retained the newest kRingCapacity marks, written in order.
  const auto kept = marks(read_records(path), 7);
  ASSERT_EQ(kept.size(), kRingCapacity);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], kOverwritten + i);
  }
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, SlowDecodeAnomalyTriggersOneDumpWithContext) {
  const std::string path = temp_path("fr_anomaly.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  fr_set_decode_watermark_ns(1'000);

  for (std::uint64_t i = 0; i < 10; ++i) {
    fr_note_decode(100 + i, 3, 5);  // healthy decodes
  }
  fr_note_decode(50'000, 0, 5);  // the anomaly writes and flushes the window
  const auto window = read_records(path);
  EXPECT_EQ(named(window, "fr.decode").size(), 11u);
  const auto anomalies = named(window, "fr.anomaly");
  ASSERT_EQ(anomalies.size(), 1u);
  const util::Json& f = anomalies.front()->at("f");
  EXPECT_EQ(f.at("code").as_number(), static_cast<double>(kFrSlowDecode));
  EXPECT_EQ(f.at("value").as_number(), 50'000.0);
  EXPECT_EQ(f.at("watermark").as_number(), 1'000.0);

  // The write is one-shot per trace: a second slow decode records an anomaly
  // event but writes nothing until trace_close.
  fr_note_decode(60'000, 0, 5);
  EXPECT_EQ(read_records(path).size(), window.size());
  trace_close();
  const auto all = read_records(path);
  EXPECT_EQ(named(all, "fr.decode").size(), 12u);
  EXPECT_EQ(named(all, "fr.anomaly").size(), 2u);
  std::remove(path.c_str());
}

#ifdef SIGUSR1
TEST_F(FlightRecorderTest, SignalTriggerDumpsAtTheNextPoll) {
  const std::string path = temp_path("fr_signal.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  trace_install_signal_trigger();

  fr_record(FrKind::kMark, 42, 11, 0);
  trace_poll();  // nothing pending: nothing written
  EXPECT_TRUE(marks(read_records(path), 11).empty());

  std::raise(SIGUSR1);
  trace_poll();
  EXPECT_EQ(marks(read_records(path), 11), std::vector<std::uint64_t>{42});
  trace_close();
  EXPECT_EQ(marks(read_records(path), 11), std::vector<std::uint64_t>{42});
  std::remove(path.c_str());
}
#endif

TEST_F(FlightRecorderTest, RetiredThreadsLoseNoEvents) {
  const std::string path = temp_path("fr_churn.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  // Heavy thread churn: 8 waves of short-lived workers, each recording well
  // under its ring capacity and then exiting, which writes its ring.
  constexpr std::uint64_t kWaves = 8;
  constexpr std::uint64_t kThreadsPerWave = 2;
  constexpr std::uint64_t kEventsPerThread = 50;
  for (std::uint64_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (std::uint64_t t = 0; t < kThreadsPerWave; ++t) {
      workers.emplace_back([wave, t] {
        for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
          fr_record(FrKind::kMark, i, 13, wave * 10 + t);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  trace_close();

  constexpr std::uint64_t kTotal = kWaves * kThreadsPerWave * kEventsPerThread;
  EXPECT_EQ(marks(read_records(path), 13).size(), kTotal)
      << "events lost across thread retirement";
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, KindNamesAreRegistered) {
  EXPECT_EQ(fr_kind_name(FrKind::kDecode), "fr.decode");
  EXPECT_EQ(fr_kind_name(FrKind::kCommitReject), "fr.commit.reject");
  EXPECT_EQ(fr_kind_name(FrKind::kRemap), "fr.remap");
  EXPECT_EQ(fr_kind_name(FrKind::kAnomaly), "fr.anomaly");
  EXPECT_EQ(fr_kind_name(FrKind::kMark), "fr.mark");
}

TEST_F(FlightRecorderTest, RingEventInsideSpanSharesItsTidAndTime) {
  const std::string path = temp_path("fr_span.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  {
    Span span("test.fr.main_span");
    fr_record(FrKind::kMark, 0, 21, 0);
  }
  std::thread worker([] {
    Span span("test.fr.worker_span");
    fr_record(FrKind::kMark, 1, 21, 0);
  });
  worker.join();
  trace_close();

  const auto records = read_records(path);
  const auto events = named(records, "fr.mark");
  const char* spans[] = {"test.fr.main_span", "test.fr.worker_span"};
  std::vector<double> tids;
  for (std::uint64_t which = 0; which < 2; ++which) {
    const util::Json* span = find_record(records, "span", spans[which]);
    ASSERT_NE(span, nullptr);
    const util::Json* mark = nullptr;
    for (const util::Json* e : events) {
      if (e->at("f").at("a1").as_number() == 21 &&
          e->at("f").at("a0").as_number() == static_cast<double>(which)) {
        mark = e;
      }
    }
    ASSERT_NE(mark, nullptr);
    EXPECT_EQ(mark->at("tid").as_number(), span->at("tid").as_number());
    tids.push_back(span->at("tid").as_number());
    const std::int64_t start = to_ns(span->at("ts"));
    EXPECT_GE(to_ns(mark->at("ts")), start);
    EXPECT_LE(to_ns(mark->at("ts")), start + to_ns(span->at("dur")));
  }
  EXPECT_NE(tids[0], tids[1]);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, RingEventsWrittenAtMostOnceAndOnlySinceOpen) {
  for (std::uint64_t i = 0; i < 5; ++i) fr_record(FrKind::kMark, i, 31, 0);
  const std::string path = temp_path("fr_once.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  fr_set_decode_watermark_ns(1'000);
  for (std::uint64_t i = 5; i < 10; ++i) fr_record(FrKind::kMark, i, 31, 0);
  fr_note_decode(5'000, 0, 0);  // writes 5..9
  for (std::uint64_t i = 10; i < 15; ++i) fr_record(FrKind::kMark, i, 31, 0);
  trace_close();  // writes 10..14

  const std::vector<std::uint64_t> expected = {5, 6, 7, 8, 9, 10, 11,
                                               12, 13, 14};
  EXPECT_EQ(marks(read_records(path), 31), expected);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ExitingWorkerLeavesItsWholeRingInTheTrace) {
  const std::string path = temp_path("fr_exit.jsonl");
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  std::thread worker([] {
    for (std::uint64_t i = 0; i < kRingCapacity; ++i) {
      fr_record(FrKind::kMark, i, 41, 0);
    }
  });
  worker.join();
  trace_close();

  const auto kept = marks(read_records(path), 41);
  ASSERT_EQ(kept.size(), kRingCapacity);
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(kept[i], i);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsce::obs
