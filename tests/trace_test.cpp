// Tests for the execution-trace exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "workloads/mul2plus5.h"

namespace p2g {
namespace {

TEST(TraceCollector, SpansSerializeAsChromeEvents) {
  TraceCollector trace;
  trace.record(TraceCollector::Span{"mul2", 1'000'000, 5'000, 0, 3, 2});
  trace.record(TraceCollector::Span{"analyze", 1'002'000, 500, -1, 0, 0});
  EXPECT_EQ(trace.span_count(), 2u);

  const std::string json = trace.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\": \"mul2\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": -1"), std::string::npos);
  EXPECT_NE(json.find("\"age\": 3"), std::string::npos);
  // Timestamps are normalized: the earliest span starts at ts 0.
  EXPECT_NE(json.find("\"ts\": 0"), std::string::npos);
}

// Regression (ISSUE 2): span names are escaped, so a kernel named with
// quotes or backslashes cannot corrupt the JSON document.
TEST(TraceCollector, SpanNamesAreJsonEscaped) {
  TraceCollector trace;
  trace.record(
      TraceCollector::Span{"evil\"name\\here", 1'000, 10, 0, 0, 0});
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"name\": \"evil\\\"name\\\\here\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"evil\"name"), std::string::npos);
}

TEST(TraceCollector, CounterSamplesSerializeAsCounterEvents) {
  TraceCollector trace;
  trace.record_counter({"queue_depth", 1'000'000, 3});
  trace.record_counter({"queue_depth", 1'005'000, 7});
  EXPECT_EQ(trace.counter_sample_count(), 2u);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  // Counter timestamps participate in epoch normalization.
  EXPECT_NE(json.find("\"ts\": 0"), std::string::npos);
}

// Every recording thread appends to its own buffer; readers merge them.
// Nothing is lost, and each thread's events keep their recording order.
TEST(TraceCollector, ConcurrentRecordersMergeIntoOneTrace) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 2000;
  TraceCollector trace;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kSpans; ++i) {
        trace.record(TraceCollector::Span{"work", 1'000 + i, 10, t, i, 1});
        trace.record_flow({static_cast<uint64_t>(i), 1'000 + i, t, false});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.span_count(), static_cast<size_t>(kThreads * kSpans));
  EXPECT_EQ(trace.flow_event_count(), static_cast<size_t>(kThreads * kSpans));
  std::map<int64_t, Age> last_age;
  for (const TraceCollector::Span& span : trace.spans_snapshot()) {
    const auto it = last_age.find(span.thread_id);
    if (it != last_age.end()) {
      EXPECT_EQ(span.age, it->second + 1);
    }
    last_age[span.thread_id] = span.age;
  }
  EXPECT_EQ(last_age.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(trace.earliest_ns(), 1'000);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
}

// One thread recording into more collectors than its buffer cache holds
// (a worker delivering stores to peer nodes records into theirs too):
// every span lands in the collector it was recorded into, in order.
TEST(TraceCollector, OneThreadRecordsIntoMoreCollectorsThanItCaches) {
  constexpr int kCollectors = 6;
  constexpr int kRounds = 50;
  std::vector<TraceCollector> traces(kCollectors);
  for (int i = 0; i < kRounds; ++i) {
    for (int c = 0; c < kCollectors; ++c) {
      traces[static_cast<size_t>(c)].record(
          TraceCollector::Span{"work", 1'000 + i, 10, c, i, 1});
    }
  }
  for (int c = 0; c < kCollectors; ++c) {
    const auto spans = traces[static_cast<size_t>(c)].spans_snapshot();
    ASSERT_EQ(spans.size(), static_cast<size_t>(kRounds));
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(spans[static_cast<size_t>(i)].thread_id, c);
      EXPECT_EQ(spans[static_cast<size_t>(i)].age, i);
    }
  }
}

TEST(TraceCollector, RuntimeWritesTraceFile) {
  const std::string path =
      std::string(::testing::TempDir()) + "p2g_trace.json";
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.workers = 2;
  options.max_age = 2;
  options.trace_path = path;
  Runtime runtime(workload.build(), options);
  runtime.run();

  ASSERT_NE(runtime.trace(), nullptr);
  EXPECT_GT(runtime.trace()->span_count(), 10u)
      << "every work item and analyzer batch is a span";

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file written after the run";
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"mul2\""), std::string::npos);
  EXPECT_NE(content.find("\"plus5\""), std::string::npos);
  EXPECT_NE(content.find("\"print\""), std::string::npos);
  EXPECT_NE(content.find("\"analyze\""), std::string::npos);
  // Balanced JSON array.
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content[content.size() - 2], ']');
  std::remove(path.c_str());
}

TEST(TraceCollector, DisabledByDefault) {
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.max_age = 1;
  Runtime runtime(workload.build(), options);
  runtime.run();
  EXPECT_EQ(runtime.trace(), nullptr);
}

}  // namespace
}  // namespace p2g
