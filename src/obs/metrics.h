// Runtime telemetry: a registry of named counters, gauges and log-bucketed
// latency histograms.
//
// This is the quantitative half of the paper's "instrumentation feeds the
// high-level scheduler" loop (§IV): the snapshot types carry the runtime's
// dispatch/kernel latency distributions and sampled data-plane state
// (queue depths, memory footprint), and the dist layer ships whole
// snapshots to the master for cross-node aggregation.
//
// The runtime's hot path does not record here: its workers write
// per-thread tallies (core/instrumentation.h) that become a snapshot when
// one is taken. The registry holds the cold-path metrics of the master and
// the transports, looked up by name under its mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace p2g::obs {

/// Enables telemetry on a run (RunOptions::metrics).
struct MetricsOptions {
  bool enabled = false;
};

/// Monotonic counter (events, bytes, nanoseconds of busy time, ...).
class Counter {
 public:
  void add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-written value (queue depth, bytes resident, ...).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Snapshot of one histogram: power-of-two buckets plus count/sum/min/max.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< 0 when empty
  int64_t max = 0;
  /// buckets[b] counts values in [bucket_lower(b), bucket_upper(b)).
  std::vector<int64_t> buckets;

  double mean() const;
  /// Linear interpolation inside the hit bucket, clamped to [min, max];
  /// `p` in [0, 100]. 0 when empty.
  double percentile(double p) const;
  /// Bucket-wise sum; min/max/count/sum combine (cross-thread and
  /// cross-node reduction).
  void merge(const HistogramSnapshot& other);
};

/// Log-bucketed histogram: bucket 0 holds values < 1 (incl. negatives),
/// bucket b >= 1 holds [2^(b-1), 2^b). 64 buckets cover the full int64
/// range, so nanosecond latencies from 1ns to centuries all land.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void record(int64_t value);

  static size_t bucket_index(int64_t value);
  static int64_t bucket_lower(size_t bucket);
  static int64_t bucket_upper(size_t bucket);

  HistogramSnapshot snapshot() const;  ///< name left empty

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

struct CounterValue {
  std::string name;
  int64_t value = 0;
};

struct TimeSeriesSample {
  int64_t t_ns = 0;  ///< monotonic (common/clock.h epoch)
  int64_t value = 0;
};

/// One sampled gauge over time (the runtime's gauge series).
struct TimeSeries {
  std::string name;
  std::vector<TimeSeriesSample> samples;
};

/// A full point-in-time copy of a registry. Value type: serializable
/// (dist/message), mergeable (master aggregation), exportable.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<CounterValue> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<TimeSeries> series;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }

  const CounterValue* find_counter(std::string_view name) const;
  const CounterValue* find_gauge(std::string_view name) const;
  const HistogramSnapshot* find_histogram(std::string_view name) const;
  const TimeSeries* find_series(std::string_view name) const;

  /// Cross-node reduction: counters and gauges sum by name, histograms
  /// merge by name, unmatched entries are appended. Time series are
  /// node-local and stay untouched (inspect per-node snapshots for them).
  void merge(const MetricsSnapshot& other);

  /// Prometheus text exposition format (counters, gauges, histograms with
  /// cumulative `le` buckets). Metric names get a "p2g_" prefix and
  /// invalid characters are folded to '_'.
  std::string to_prometheus() const;

  /// JSON object with "counters"/"gauges"/"histograms" (incl. p50/p90/p99)
  /// and "series" members.
  std::string to_json() const;
};

/// Named-metric registry. Lookup is mutex-guarded and returns stable
/// references.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Attaches a sampled time series to snapshots.
  void add_series(TimeSeries series);

  MetricsSnapshot snapshot() const;
  std::string to_prometheus() const { return snapshot().to_prometheus(); }
  std::string to_json() const { return snapshot().to_json(); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<TimeSeries> series_;
};

}  // namespace p2g::obs
