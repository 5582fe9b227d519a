#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace p2g::obs {

// --------------------------------------------------------- HistogramSnapshot

size_t HistogramSnapshot::bucket_index(int64_t value) {
  if (value < 1) return 0;
  const size_t width =
      static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  return std::min(width, kBuckets - 1);
}

int64_t HistogramSnapshot::bucket_lower(size_t bucket) {
  if (bucket == 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int64_t HistogramSnapshot::bucket_upper(size_t bucket) {
  if (bucket >= 63) return std::numeric_limits<int64_t>::max();
  return int64_t{1} << bucket;
}

void HistogramSnapshot::record(int64_t value) {
  if (buckets.empty()) buckets.assign(kBuckets, 0);
  ++buckets[bucket_index(value)];
  min = count > 0 ? std::min(min, value) : value;
  max = count > 0 ? std::max(max, value) : value;
  ++count;
  sum += value;
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
      const double lower = static_cast<double>(bucket_lower(b));
      const double upper = static_cast<double>(bucket_upper(b));
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

/// The entry called `name`, or nullptr (const-ness follows `items`).
template <typename Items>
auto* find_named(Items& items, std::string_view name) {
  const auto it = std::find_if(items.begin(), items.end(),
                               [&](const auto& i) { return i.name == name; });
  return it == items.end() ? nullptr : &*it;
}

}  // namespace

const CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_named(counters, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_named(histograms, name);
}

const TimeSeries* MetricsSnapshot::find_series(std::string_view name) const {
  return find_named(series, name);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterValue& c : other.counters) {
    if (CounterValue* mine = find_named(counters, c.name)) {
      mine->value += c.value;
    } else {
      counters.push_back(c);
    }
  }
  for (const HistogramSnapshot& h : other.histograms) {
    if (HistogramSnapshot* mine = find_named(histograms, h.name)) {
      mine->merge(h);
    } else {
      histograms.push_back(h);
    }
  }
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterValue& c : counters) {
    const std::string name = prom_name(c.name);
    os << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = prom_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      os << name << "_bucket{le=\"" << h.bucket_upper(b) << "\"} "
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

}  // namespace p2g::obs
