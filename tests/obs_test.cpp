// Tests for the telemetry subsystem (src/obs) and its runtime wiring:
// counters/histograms, percentile math, exports, the per-thread tallies,
// and the metrics/trace artifacts a Runtime run produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "workloads/mul2plus5.h"

namespace p2g {
namespace {

using obs::HistogramSnapshot;
using obs::MetricsSnapshot;

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: values < 1 (incl. negatives); bucket b>=1: [2^(b-1), 2^b).
  EXPECT_EQ(HistogramSnapshot::bucket_index(-5), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(4), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(1023), 10u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(1024), 11u);
  EXPECT_EQ(HistogramSnapshot::bucket_index(INT64_MAX), 63u);

  EXPECT_EQ(HistogramSnapshot::bucket_lower(0), 0);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 1);
  EXPECT_EQ(HistogramSnapshot::bucket_lower(1), 1);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(1), 2);
  EXPECT_EQ(HistogramSnapshot::bucket_lower(11), 1024);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(10), 1024);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(63), INT64_MAX);

  // Every value lands in the bucket whose bounds contain it.
  for (int64_t v : {0, 1, 2, 7, 63, 64, 65, 4095, 4096}) {
    const size_t b = HistogramSnapshot::bucket_index(v);
    EXPECT_GE(v, HistogramSnapshot::bucket_lower(b)) << v;
    EXPECT_LT(v, HistogramSnapshot::bucket_upper(b)) << v;
  }
}

TEST(Histogram, EmptySnapshotIsZero) {
  const HistogramSnapshot snap;
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.percentile(50), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, SingleSamplePercentilesClampToValue) {
  HistogramSnapshot snap;
  snap.record(1000);
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 1000);
  EXPECT_EQ(snap.max, 1000);
  // min/max clamping pins every percentile of n=1 to the sample itself.
  EXPECT_DOUBLE_EQ(snap.percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(snap.percentile(50), 1000.0);
  EXPECT_DOUBLE_EQ(snap.percentile(100), 1000.0);
}

TEST(Histogram, PercentilesOrderAndBounds) {
  HistogramSnapshot snap;
  for (int64_t v = 1; v <= 1000; ++v) snap.record(v);
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
  // Concurrent recorders each keep their own histogram; merging them
  // counts every value.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<HistogramSnapshot> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (HistogramSnapshot& h : per_thread) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(i % 512);
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot snap;
  for (const HistogramSnapshot& h : per_thread) snap.merge(h);
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 511);
}

TEST(HistogramSnapshot, MergeCombines) {
  HistogramSnapshot sa, sb;
  sa.record(10);
  sa.record(20);
  sb.record(100000);
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

TEST(HistogramSnapshot, RecordTracksCountSumMinMaxAndBuckets) {
  HistogramSnapshot h;
  for (const int64_t v : {42, -3, 1000, 42}) h.record(v);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 1081);
  EXPECT_EQ(h.min, -3);
  EXPECT_EQ(h.max, 1000);
  ASSERT_EQ(h.buckets.size(), HistogramSnapshot::kBuckets);
  EXPECT_EQ(h.buckets[0], 1);  // -3
  EXPECT_EQ(h.buckets[HistogramSnapshot::bucket_index(42)], 2);
  EXPECT_EQ(h.buckets[HistogramSnapshot::bucket_index(1000)], 1);
}

/// A snapshot with the given counters and one histogram "lat" holding
/// `lat_values`.
MetricsSnapshot snapshot_of(std::vector<obs::CounterValue> counters,
                            std::initializer_list<int64_t> lat_values) {
  MetricsSnapshot snap;
  snap.counters = std::move(counters);
  HistogramSnapshot lat;
  lat.name = "lat";
  for (const int64_t v : lat_values) lat.record(v);
  snap.histograms.push_back(std::move(lat));
  return snap;
}

TEST(MetricsSnapshot, MergeSumsByName) {
  MetricsSnapshot merged =
      snapshot_of({{"shared", 1}, {"only_a", 2}}, {8});
  merged.merge(snapshot_of({{"shared", 10}, {"only_b", 20}}, {32}));
  EXPECT_EQ(merged.find_counter("shared")->value, 11);
  EXPECT_EQ(merged.find_counter("only_a")->value, 2);
  EXPECT_EQ(merged.find_counter("only_b")->value, 20);
  EXPECT_EQ(merged.find_histogram("lat")->count, 2);
  EXPECT_EQ(merged.find_histogram("lat")->sum, 40);
}

TEST(MetricsSnapshot, PrometheusExposition) {
  MetricsSnapshot snap;
  snap.counters.push_back({"events_total", 7});
  HistogramSnapshot h;
  h.name = "latency_ns";
  h.record(1);
  h.record(3);
  h.record(700);
  snap.histograms.push_back(h);

  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# TYPE p2g_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("p2g_events_total 7"), std::string::npos);
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
  MetricsSnapshot snap;
  snap.counters.push_back({"weird\"name\\with\njunk", 1});
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\njunk"), std::string::npos);
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
  // Percentile keys present for histogram-free snapshots too.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
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

  // Gauge series embedded in the snapshot.
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
  EXPECT_TRUE(runtime.metrics_snapshot().empty());
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
  // The metrics survive too (instances before the failure).
  EXPECT_FALSE(runtime.metrics_snapshot().empty());
  std::remove(path.c_str());
}

// The analyzer samples gauges from its own timestamps; run() adds a first
// and a closing sample, so even a run shorter than the 5 ms period has two
// points per series.
TEST(RuntimeMetrics, ShortRunStillYieldsTwoSamplesPerSeries) {
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.workers = 1;
  options.max_age = 1;
  options.metrics.enabled = true;
  Runtime runtime(workload.build(), options);
  const RunReport report = runtime.run();
  ASSERT_FALSE(report.metrics.series.empty());
  for (const obs::TimeSeries& series : report.metrics.series) {
    EXPECT_GE(series.samples.size(), 2u) << series.name;
  }
}

TEST(RuntimeMetrics, EverySeriesHasTheSameSampleCount) {
  workloads::Mul2Plus5 workload;
  RunOptions options;
  options.workers = 2;
  options.max_age = 40;
  options.metrics.enabled = true;
  Runtime runtime(workload.build(), options);
  const RunReport report = runtime.run();
  const std::vector<obs::TimeSeries>& series = report.metrics.series;
  ASSERT_FALSE(series.empty());
  for (const obs::TimeSeries& one : series) {
    EXPECT_EQ(one.samples.size(), series[0].samples.size()) << one.name;
    for (size_t i = 1; i < one.samples.size(); ++i) {
      EXPECT_GE(one.samples[i].t_ns, one.samples[i - 1].t_ns) << one.name;
    }
  }
}

// The tallies are the one recorder whatever telemetry is on: a metrics run,
// a plain run and a flight-recorded run count the same work.
TEST(RuntimeTally, TelemetryModesCountTheSameWork) {
  const auto run = [](bool metrics, bool flight) {
    workloads::Mul2Plus5 workload;
    Program program = workload.build();
    RunOptions options;
    options.workers = 2;
    options.max_age = 12;
    for (const KernelDef& k : program.kernels()) {
      options.kernel_schedules[k.name].chunk = 1;
    }
    options.metrics.enabled = metrics;
    if (flight) options.flight_dir = ::testing::TempDir();
    Runtime runtime(std::move(program), options);
    return runtime.run().instrumentation;
  };
  const InstrumentationReport metrics_on = run(true, false);
  const InstrumentationReport plain = run(false, false);
  const InstrumentationReport flight = run(false, true);
  ASSERT_EQ(plain.kernels.size(), metrics_on.kernels.size());
  ASSERT_EQ(plain.kernels.size(), flight.kernels.size());
  for (size_t i = 0; i < plain.kernels.size(); ++i) {
    const KernelStats& k = plain.kernels[i];
    EXPECT_GT(k.instances, 0) << k.name;
    EXPECT_EQ(k.instances, k.dispatches) << k.name;  // chunk 1
    EXPECT_EQ(metrics_on.kernels[i].instances, k.instances) << k.name;
    EXPECT_EQ(metrics_on.kernels[i].dispatches, k.dispatches) << k.name;
    EXPECT_EQ(flight.kernels[i].instances, k.instances) << k.name;
    EXPECT_EQ(flight.kernels[i].dispatches, k.dispatches) << k.name;
  }
}

// Views read the slots while their writers record: every snapshot sees
// bounded histograms and a mean body time once one exists, and the final
// totals are exact.
TEST(RuntimeTally, SnapshotsRacingWritersSeeConsistentTallies) {
  constexpr int kWriters = 2;
  constexpr int kItems = 20000;
  Instrumentation instr(/*kernel_count=*/1, kWriters);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      obs::MetricsSnapshot snap;
      instr.add_metrics(snap);
      for (const HistogramSnapshot& h : snap.histograms) {
        ASSERT_LE(h.min, h.max) << h.name;
      }
      if (const auto mean = instr.mean_kernel_ns(0)) {
        ASSERT_GE(*mean, 1.0);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&instr, w] {
      Instrumentation::Slot slot = instr.worker(w);
      for (int i = 1; i <= kItems; ++i) {
        slot.add_item(0, 2, 10, 2 * i);
        slot.record(Instrumentation::kBody, 2 * i);
        slot.add_worker_time(3, 1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();

  obs::MetricsSnapshot snap;
  instr.add_metrics(snap);
  const HistogramSnapshot* body = snap.find_histogram("kernel_body_ns");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->count, kWriters * kItems);
  EXPECT_EQ(body->min, 2);
  EXPECT_EQ(body->max, 2 * kItems);
  EXPECT_EQ(snap.find_counter("worker_busy_ns_total")->value,
            3 * kWriters * kItems);
  EXPECT_EQ(snap.find_counter("worker_idle_ns_total")->value,
            kWriters * kItems);
  EXPECT_EQ(snap.find_counter("analyzer_events_total")->value, 0);
  const auto [busy, idle] = instr.worker_time();
  EXPECT_EQ(busy, 3 * kWriters * kItems);
  EXPECT_EQ(idle, kWriters * kItems);
  EXPECT_DOUBLE_EQ(*instr.mean_kernel_ns(0),
                   static_cast<double>(kItems + 1) / 2.0);
}

}  // namespace
}  // namespace p2g
