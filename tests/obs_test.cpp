// Tests for the telemetry subsystem (src/obs) and its runtime wiring:
// sharded counters/histograms, percentile math, exports, the sampler, and
// the metrics/trace artifacts a Runtime run produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/context.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "workloads/mul2plus5.h"

namespace p2g {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: values < 1 (incl. negatives); bucket b>=1: [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_index(-5), 0u);
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(INT64_MAX), 63u);

  EXPECT_EQ(Histogram::bucket_lower(0), 0);
  EXPECT_EQ(Histogram::bucket_upper(0), 1);
  EXPECT_EQ(Histogram::bucket_lower(1), 1);
  EXPECT_EQ(Histogram::bucket_upper(1), 2);
  EXPECT_EQ(Histogram::bucket_lower(11), 1024);
  EXPECT_EQ(Histogram::bucket_upper(10), 1024);
  EXPECT_EQ(Histogram::bucket_upper(63), INT64_MAX);

  // Every value lands in the bucket whose bounds contain it.
  for (int64_t v : {0, 1, 2, 7, 63, 64, 65, 4095, 4096}) {
    const size_t b = Histogram::bucket_index(v);
    EXPECT_GE(v, Histogram::bucket_lower(b)) << v;
    EXPECT_LT(v, Histogram::bucket_upper(b)) << v;
  }
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.percentile(50), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, SingleSamplePercentilesClampToValue) {
  Histogram h;
  h.record(1000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 1000);
  EXPECT_EQ(snap.max, 1000);
  // min/max clamping pins every percentile of n=1 to the sample itself.
  EXPECT_DOUBLE_EQ(snap.percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(snap.percentile(50), 1000.0);
  EXPECT_DOUBLE_EQ(snap.percentile(100), 1000.0);
}

TEST(Histogram, PercentilesOrderAndBounds) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 1000);
  const double p50 = snap.percentile(50);
  const double p90 = snap.percentile(90);
  const double p99 = snap.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log buckets bound the error by 2x of the true percentile.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 500.5);
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(i % 512);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 511);
}

TEST(HistogramSnapshot, MergeCombines) {
  Histogram a, b;
  a.record(10);
  a.record(20);
  b.record(100000);
  HistogramSnapshot sa = a.snapshot();
  const HistogramSnapshot sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count, 3);
  EXPECT_EQ(sa.sum, 100030);
  EXPECT_EQ(sa.min, 10);
  EXPECT_EQ(sa.max, 100000);

  // Merging an empty snapshot is a no-op; merging into empty copies.
  HistogramSnapshot empty;
  sa.merge(empty);
  EXPECT_EQ(sa.count, 3);
  empty.merge(sa);
  EXPECT_EQ(empty.count, 3);
  EXPECT_EQ(empty.min, 10);
}

TEST(Counter, ConcurrentShardedAdds) {
  obs::Counter c;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(2);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * 10000 * 2);
}

TEST(MetricsRegistry, StableNamedInstances) {
  MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("x");
  obs::Counter& c2 = registry.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.add(5);
  registry.gauge("g").set(-3);
  registry.histogram("h").record(42);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_counter("x"), nullptr);
  EXPECT_EQ(snap.find_counter("x")->value, 5);
  ASSERT_NE(snap.find_gauge("g"), nullptr);
  EXPECT_EQ(snap.find_gauge("g")->value, -3);
  ASSERT_NE(snap.find_histogram("h"), nullptr);
  EXPECT_EQ(snap.find_histogram("h")->count, 1);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
}

TEST(MetricsSnapshot, MergeSumsByName) {
  MetricsRegistry a, b;
  a.counter("shared").add(1);
  a.counter("only_a").add(2);
  b.counter("shared").add(10);
  b.counter("only_b").add(20);
  a.histogram("lat").record(8);
  b.histogram("lat").record(32);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.find_counter("shared")->value, 11);
  EXPECT_EQ(merged.find_counter("only_a")->value, 2);
  EXPECT_EQ(merged.find_counter("only_b")->value, 20);
  EXPECT_EQ(merged.find_histogram("lat")->count, 2);
  EXPECT_EQ(merged.find_histogram("lat")->sum, 40);
}

TEST(MetricsSnapshot, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("events_total").add(7);
  registry.gauge("queue_depth").set(3);
  obs::Histogram& h = registry.histogram("latency_ns");
  h.record(1);
  h.record(3);
  h.record(700);

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE p2g_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("p2g_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE p2g_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE p2g_latency_ns histogram"), std::string::npos);
  // Cumulative le buckets: [1,2) -> le="2" holds 1, le="4" holds 2.
  EXPECT_NE(text.find("p2g_latency_ns_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("p2g_latency_ns_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("p2g_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("p2g_latency_ns_sum 704"), std::string::npos);
  EXPECT_NE(text.find("p2g_latency_ns_count 3"), std::string::npos);
}

TEST(MetricsSnapshot, JsonEscapesNames) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\njunk").add(1);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\njunk"), std::string::npos);
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
  // Percentile keys present for histogram-free snapshots too.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Sampler, CollectsMonotonicSeries) {
  obs::Sampler sampler(std::chrono::milliseconds(1));
  int64_t tick = 0;
  sampler.add_source("ticks", [&tick] { return tick++; });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  std::vector<obs::TimeSeries> series = sampler.take_series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "ticks");
  ASSERT_GE(series[0].samples.size(), 2u);
  for (size_t i = 1; i < series[0].samples.size(); ++i) {
    EXPECT_GE(series[0].samples[i].t_ns, series[0].samples[i - 1].t_ns);
    EXPECT_EQ(series[0].samples[i].value,
              series[0].samples[i - 1].value + 1);
  }
}

TEST(Sampler, SamplesEverySourceEachCycleAndAtStop) {
  obs::Sampler sampler(std::chrono::milliseconds(1));
  sampler.add_source("a", [] { return 1; });
  sampler.add_source("b", [] { return 2; });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();
  std::vector<obs::TimeSeries> series = sampler.take_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "a");
  EXPECT_EQ(series[1].name, "b");
  // Sources are polled together: each cycle (plus the closing sample at
  // stop) contributes one point per source.
  EXPECT_EQ(series[0].samples.size(), series[1].samples.size());
  ASSERT_GE(series[0].samples.size(), 2u);
  EXPECT_EQ(series[0].samples.back().value, 1);
  EXPECT_EQ(series[1].samples.back().value, 2);
}

TEST(Sampler, StopIsIdempotentAndSafeWithoutStart) {
  obs::Sampler sampler(std::chrono::milliseconds(1));
  sampler.add_source("gauge", [] { return 7; });
  // Never started: stop() must not hang or sample.
  sampler.stop();
  sampler.stop();
  std::vector<obs::TimeSeries> series = sampler.take_series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].samples.empty());
  // take_series moves the series out; a second take is empty.
  EXPECT_TRUE(sampler.take_series().empty());
}

TEST(Sampler, StartWithoutSourcesIsANoOp) {
  obs::Sampler sampler(std::chrono::milliseconds(1));
  sampler.start();  // no sources: no thread spun up
  sampler.stop();
  EXPECT_TRUE(sampler.take_series().empty());
}

// ---------------------------------------------------------- runtime wiring

TEST(RuntimeMetrics, RunProducesSnapshotAndSeries) {
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.workers = 2;
  options.max_age = 20;
  options.metrics.enabled = true;
  Runtime runtime(workload.build(), options);
  const RunReport report = runtime.run();

  ASSERT_NE(runtime.metrics(), nullptr);
  const MetricsSnapshot& snap = report.metrics;
  const HistogramSnapshot* dispatch =
      snap.find_histogram("dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GT(dispatch->count, 0);
  EXPECT_GT(dispatch->percentile(99), 0.0);
  ASSERT_NE(snap.find_histogram("kernel_body_ns"), nullptr);
  ASSERT_NE(snap.find_histogram("analyzer_handle_ns"), nullptr);
  EXPECT_GT(snap.find_counter("analyzer_events_total")->value, 0);
  EXPECT_GT(snap.find_counter("store_commit_bytes_total")->value, 0);
  EXPECT_GT(snap.find_counter("worker_busy_ns_total")->value, 0);

  // Sampler series embedded in the snapshot.
  ASSERT_NE(snap.find_series("ready_queue_depth"), nullptr);
  ASSERT_NE(snap.find_series("worker_utilization_pct"), nullptr);
  const obs::TimeSeries* memory = snap.find_series("field_memory_bytes");
  ASSERT_NE(memory, nullptr);
  EXPECT_GE(memory->samples.size(), 2u);

  // Exports contain the dispatch histogram.
  EXPECT_NE(snap.to_prometheus().find("p2g_dispatch_latency_ns_count"),
            std::string::npos);
  EXPECT_NE(snap.to_json().find("\"dispatch_latency_ns\""),
            std::string::npos);
}

TEST(RuntimeMetrics, DisabledByDefault) {
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.max_age = 2;
  Runtime runtime(workload.build(), options);
  const RunReport report = runtime.run();
  EXPECT_EQ(runtime.metrics(), nullptr);
  EXPECT_TRUE(report.metrics.empty());
}

TEST(RuntimeMetrics, TraceGainsCounterTracks) {
  const std::string path =
      std::string(::testing::TempDir()) + "p2g_counter_trace.json";
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.workers = 2;
  options.max_age = 10;
  options.trace_path = path;
  options.metrics.enabled = true;
  Runtime runtime(workload.build(), options);
  runtime.run();

  ASSERT_NE(runtime.trace(), nullptr);
  EXPECT_GT(runtime.trace()->counter_sample_count(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(content.find("\"ready_queue_depth\""), std::string::npos);
  EXPECT_NE(content.find("\"worker_utilization_pct\""), std::string::npos);
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content[content.size() - 2], ']');
  std::remove(path.c_str());
}

// Regression (ISSUE 1): a worker error must not lose the trace/metrics —
// the runtime flushes telemetry before rethrowing.
TEST(RuntimeMetrics, FailedRunStillWritesTraceAndMetrics) {
  const std::string path =
      std::string(::testing::TempDir()) + "p2g_failed_trace.json";
  std::remove(path.c_str());

  ProgramBuilder pb;
  pb.field("out", nd::ElementType::kInt32, 1);
  pb.kernel("boom")
      .run_once()
      .store("v", "out", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext&) {
        throw std::runtime_error("kernel exploded");
      });

  RunOptions options;
  options.workers = 2;
  options.trace_path = path;
  options.metrics.enabled = true;
  Runtime runtime(pb.build(), options);
  EXPECT_THROW(runtime.run(), std::runtime_error);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file must exist after a failed run";
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  // The metrics registry survives too (instances before the failure).
  EXPECT_FALSE(runtime.metrics_snapshot().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2g
