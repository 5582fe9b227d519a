#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace p2g::obs {

// ---------------------------------------------------------------- Histogram

size_t Histogram::bucket_index(int64_t value) {
  if (value < 1) return 0;
  const size_t width =
      static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  return std::min(width, kBuckets - 1);
}

int64_t Histogram::bucket_lower(size_t bucket) {
  if (bucket == 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int64_t Histogram::bucket_upper(size_t bucket) {
  if (bucket >= 63) return std::numeric_limits<int64_t>::max();
  return int64_t{1} << bucket;
}

void Histogram::record(int64_t value) {
  // min/max first: a reader that sees the count sees a bounded range.
  int64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count_.load(std::memory_order_acquire);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.buckets.assign(kBuckets, 0);
  for (size_t b = 0; b < kBuckets; ++b) {
    out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  out.min = out.count > 0 ? min_.load(std::memory_order_relaxed) : 0;
  out.max = out.count > 0 ? max_.load(std::memory_order_relaxed) : 0;
  return out;
}

double HistogramSnapshot::mean() const {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double HistogramSnapshot::percentile(double p) const {
  if (count <= 0 || buckets.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const int64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= target) {
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[b]);
      const double lower =
          static_cast<double>(Histogram::bucket_lower(b));
      const double upper =
          static_cast<double>(Histogram::bucket_upper(b));
      const double value = lower + fraction * (upper - lower);
      return std::clamp(value, static_cast<double>(min),
                        static_cast<double>(max));
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  min = count > 0 ? std::min(min, other.min) : other.min;
  max = count > 0 ? std::max(max, other.max) : other.max;
  count += other.count;
  sum += other.sum;
}

// ----------------------------------------------------------- MetricsSnapshot

namespace {

const CounterValue* find_value(const std::vector<CounterValue>& values,
                               std::string_view name) {
  for (const CounterValue& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

void merge_values(std::vector<CounterValue>& into,
                  const std::vector<CounterValue>& from) {
  for (const CounterValue& v : from) {
    bool found = false;
    for (CounterValue& mine : into) {
      if (mine.name == v.name) {
        mine.value += v.value;
        found = true;
        break;
      }
    }
    if (!found) into.push_back(v);
  }
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(std::string_view name) {
  std::string out = "p2g_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void json_series(std::ostringstream& os, const TimeSeries& ts) {
  os << "\"" << json_escape(ts.name) << "\": [";
  for (size_t i = 0; i < ts.samples.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << ts.samples[i].t_ns << ", " << ts.samples[i].value << "]";
  }
  os << "]";
}

}  // namespace

const CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_value(counters, name);
}

const CounterValue* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_value(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const TimeSeries* MetricsSnapshot::find_series(std::string_view name) const {
  for (const TimeSeries& ts : series) {
    if (ts.name == name) return &ts;
  }
  return nullptr;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_values(counters, other.counters);
  merge_values(gauges, other.gauges);
  for (const HistogramSnapshot& h : other.histograms) {
    bool found = false;
    for (HistogramSnapshot& mine : histograms) {
      if (mine.name == h.name) {
        mine.merge(h);
        found = true;
        break;
      }
    }
    if (!found) histograms.push_back(h);
  }
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterValue& c : counters) {
    const std::string name = prom_name(c.name);
    os << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const CounterValue& g : gauges) {
    const std::string name = prom_name(g.name);
    os << "# TYPE " << name << " gauge\n"
       << name << " " << g.value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = prom_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      os << name << "_bucket{le=\"" << Histogram::bucket_upper(b) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
       << name << "_sum " << h.sum << "\n"
       << name << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << json_escape(counters[i].name)
       << "\": " << counters[i].value;
  }
  os << "},\n  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << json_escape(gauges[i].name) << "\": " << gauges[i].value;
  }
  os << "},\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) os << ",";
    os << "\n    \"" << json_escape(h.name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << h.sum << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"mean\": " << h.mean()
       << ", \"p50\": " << h.percentile(50) << ", \"p90\": "
       << h.percentile(90) << ", \"p99\": " << h.percentile(99) << "}";
  }
  os << "\n  },\n  \"series\": {";
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    ";
    json_series(os, series[i]);
  }
  os << "\n  }\n}\n";
  return os.str();
}

// ----------------------------------------------------------- MetricsRegistry

Counter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::add_series(TimeSeries series) {
  std::scoped_lock lock(mutex_);
  series_.push_back(std::move(series));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back(CounterValue{name, counter->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back(CounterValue{name, gauge->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->snapshot();
    snap.name = name;
    out.histograms.push_back(std::move(snap));
  }
  out.series = series_;
  return out;
}

}  // namespace p2g::obs
