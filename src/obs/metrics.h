// Runtime telemetry: named counters, log-bucketed latency histograms and
// sampled time series, as one value type.
//
// This is the quantitative half of the paper's "instrumentation feeds the
// high-level scheduler" loop (§IV): the snapshot carries the runtime's
// dispatch/kernel latency distributions and sampled data-plane state
// (queue depths, memory footprint), and the dist layer ships whole
// snapshots to the master for cross-node aggregation.
//
// Nothing records into a snapshot while a run is hot. Each producer keeps
// its own tallies (the runtime's per-thread slots in core/instrumentation.h,
// the transports' frame counters, the master's FtRunReport) and adds them
// to a snapshot when one is taken.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace p2g::obs {

/// Enables telemetry on a run (RunOptions::metrics).
struct MetricsOptions {
  bool enabled = false;
};

/// One histogram: power-of-two buckets plus count/sum/min/max. Bucket 0
/// holds values < 1 (incl. negatives), bucket b >= 1 holds
/// [2^(b-1), 2^b). 64 buckets cover the full int64 range, so nanosecond
/// latencies from 1ns to centuries all land.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 64;

  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< 0 when empty
  int64_t max = 0;
  /// buckets[b] counts values in [bucket_lower(b), bucket_upper(b)).
  std::vector<int64_t> buckets;

  static size_t bucket_index(int64_t value);
  static int64_t bucket_lower(size_t bucket);
  static int64_t bucket_upper(size_t bucket);

  /// Adds one value (single writer; concurrent recorders keep their own
  /// tallies and build a snapshot when one is taken).
  void record(int64_t value);

  double mean() const;
  /// Linear interpolation inside the hit bucket, clamped to [min, max];
  /// `p` in [0, 100]. 0 when empty.
  double percentile(double p) const;
  /// Bucket-wise sum; min/max/count/sum combine (cross-thread and
  /// cross-node reduction).
  void merge(const HistogramSnapshot& other);
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

/// A point-in-time copy of a producer's metrics. Value type: serializable
/// (dist/message), mergeable (master aggregation), exportable.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<HistogramSnapshot> histograms;
  std::vector<TimeSeries> series;

  bool empty() const {
    return counters.empty() && histograms.empty() && series.empty();
  }

  const CounterValue* find_counter(std::string_view name) const;
  const HistogramSnapshot* find_histogram(std::string_view name) const;
  const TimeSeries* find_series(std::string_view name) const;

  /// Cross-node reduction: counters sum by name, histograms merge by name,
  /// unmatched entries are appended. Time series are node-local and stay
  /// untouched (inspect per-node snapshots for them).
  void merge(const MetricsSnapshot& other);

  /// Prometheus text exposition format (counters, histograms with
  /// cumulative `le` buckets). Metric names get a "p2g_" prefix and
  /// invalid characters are folded to '_'.
  std::string to_prometheus() const;

  /// JSON object with "counters", "histograms" (incl. p50/p90/p99) and
  /// "series" members.
  std::string to_json() const;
};

}  // namespace p2g::obs
