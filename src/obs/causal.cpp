#include "obs/causal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace p2g::obs {

namespace {

/// Walk guard: a causal chain longer than this is a cycle artifact.
constexpr size_t kMaxChain = 4096;

Bucket bucket_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorker: return Bucket::kExec;
    case SpanKind::kAnalyzer: return Bucket::kQueue;
    case SpanKind::kWire: return Bucket::kWire;
    case SpanKind::kRemoteStore: return Bucket::kStore;
    case SpanKind::kRecovery: return Bucket::kRecovery;
    case SpanKind::kOther: return Bucket::kOther;
  }
  return Bucket::kOther;
}

std::string fmt_ms(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

/// Overlap of [lo, hi) with the recovery spans of `node`.
int64_t recovery_overlap(
    const std::vector<SpanRecord>& spans,
    const std::vector<size_t>& recovery_spans, const std::string& node,
    int64_t lo, int64_t hi) {
  int64_t overlap = 0;
  for (const size_t r : recovery_spans) {
    const SpanRecord& rec = spans[r];
    if (rec.node != node) continue;
    const int64_t begin = std::max(lo, rec.start_ns);
    const int64_t end = std::min(hi, rec.end_ns());
    if (end > begin) overlap += end - begin;
  }
  return overlap;
}

}  // namespace

const char* to_string(Bucket bucket) {
  switch (bucket) {
    case Bucket::kQueue: return "queue";
    case Bucket::kExec: return "exec";
    case Bucket::kWire: return "wire";
    case Bucket::kStore: return "store";
    case Bucket::kRecovery: return "recovery";
    case Bucket::kOther: return "other";
  }
  return "other";
}

CriticalPathReport analyze_critical_paths(
    const std::vector<SpanRecord>& spans) {
  CriticalPathReport report;

  // span id → index, recovery intervals, and per-frame terminal span (the
  // frame completes when its last span finishes).
  std::unordered_map<uint64_t, size_t> by_id;
  std::vector<size_t> recovery_spans;
  std::unordered_map<uint64_t, size_t> terminal;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.span_id != 0) by_id.emplace(span.span_id, i);
    if (span.kind == SpanKind::kRecovery) recovery_spans.push_back(i);
    if (span.trace_id == 0) continue;
    const auto [it, fresh] = terminal.emplace(span.trace_id, i);
    if (!fresh && span.end_ns() > spans[it->second].end_ns()) {
      it->second = i;
    }
  }

  report.bucket_latency.resize(kBucketCount);
  for (size_t b = 0; b < kBucketCount; ++b) {
    report.bucket_latency[b].name =
        std::string("critpath_") + to_string(static_cast<Bucket>(b)) + "_ns";
  }
  report.total_latency.name = "critpath_total_ns";

  for (const auto& [trace_id, last] : terminal) {
    CriticalPath path;
    path.trace_id = trace_id;

    // Walk the parent chain from the terminal span to the root.
    std::unordered_set<uint64_t> visited;
    size_t at = last;
    while (path.chain.size() < kMaxChain) {
      path.chain.push_back(at);
      const SpanRecord& span = spans[at];
      if (span.parent_span == 0) break;
      if (!visited.insert(span.span_id).second) break;  // cycle guard
      const auto it = by_id.find(span.parent_span);
      if (it == by_id.end()) break;  // parent not captured (e.g. crashed)
      at = it->second;
    }
    std::reverse(path.chain.begin(), path.chain.end());

    const SpanRecord& root = spans[path.chain.front()];
    const SpanRecord& term = spans[path.chain.back()];
    path.root_name = root.name;
    path.terminal_name = term.name;
    path.root_age = root.age;
    path.total_ns = std::max<int64_t>(0, term.end_ns() - root.start_ns);

    // Attribute: span durations by kind, inter-span gaps by locality
    // (same node = queueing, cross node = wire), with gap time that
    // overlaps a recovery span on the child's node re-attributed to
    // recovery.
    for (size_t c = 0; c < path.chain.size(); ++c) {
      const SpanRecord& span = spans[path.chain[c]];
      path.bucket_ns[static_cast<size_t>(bucket_of(span.kind))] +=
          span.duration_ns;
      if (c == 0) continue;
      const SpanRecord& parent = spans[path.chain[c - 1]];
      const int64_t lo = parent.end_ns();
      const int64_t hi = span.start_ns;
      if (hi <= lo) continue;  // nested or back-to-back: no gap
      int64_t gap = hi - lo;
      const int64_t rec =
          recovery_overlap(spans, recovery_spans, span.node, lo, hi);
      path.bucket_ns[static_cast<size_t>(Bucket::kRecovery)] += rec;
      gap -= rec;
      const Bucket kind =
          span.node == parent.node ? Bucket::kQueue : Bucket::kWire;
      path.bucket_ns[static_cast<size_t>(kind)] += gap;
    }

    for (size_t b = 0; b < kBucketCount; ++b) {
      report.bucket_latency[b].record(path.bucket_ns[b]);
    }
    report.total_latency.record(path.total_ns);
    report.paths.push_back(std::move(path));
  }

  std::sort(report.paths.begin(), report.paths.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.trace_id < b.trace_id;  // deterministic order
            });
  return report;
}

std::string CriticalPathReport::to_string(
    const std::vector<SpanRecord>& spans, size_t top_k) const {
  std::string out;
  char buf[256];

  std::snprintf(buf, sizeof(buf), "critical paths: %zu frame(s)\n",
                paths.size());
  out += buf;
  if (paths.empty()) return out;

  out += "per-frame latency by bucket (ms):\n";
  std::snprintf(buf, sizeof(buf), "  %-10s %10s %10s %10s\n", "bucket",
                "p50", "p99", "max");
  out += buf;
  for (const HistogramSnapshot& h : bucket_latency) {
    // Strip the "critpath_" prefix and "_ns" suffix for display.
    std::string label = h.name;
    if (label.size() > 12) label = label.substr(9, label.size() - 12);
    std::snprintf(buf, sizeof(buf), "  %-10s %10.3f %10.3f %10.3f\n",
                  label.c_str(), h.percentile(50) / 1e6,
                  h.percentile(99) / 1e6,
                  static_cast<double>(h.max) / 1e6);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-10s %10.3f %10.3f %10.3f\n",
                "total", total_latency.percentile(50) / 1e6,
                total_latency.percentile(99) / 1e6,
                static_cast<double>(total_latency.max) / 1e6);
  out += buf;

  const size_t shown = std::min(top_k, paths.size());
  std::snprintf(buf, sizeof(buf), "top %zu critical path(s):\n", shown);
  out += buf;
  for (size_t p = 0; p < shown; ++p) {
    const CriticalPath& path = paths[p];
    std::snprintf(buf, sizeof(buf),
                  "#%zu frame 0x%llx age %lld: %s ms (%s -> %s)\n", p + 1,
                  static_cast<unsigned long long>(path.trace_id),
                  static_cast<long long>(path.root_age),
                  fmt_ms(path.total_ns).c_str(), path.root_name.c_str(),
                  path.terminal_name.c_str());
    out += buf;
    out += "   ";
    for (size_t b = 0; b < kBucketCount; ++b) {
      std::snprintf(buf, sizeof(buf), " %s=%s",
                    obs::to_string(static_cast<Bucket>(b)),
                    fmt_ms(path.bucket_ns[b]).c_str());
      out += buf;
    }
    out += "\n   chain:";
    for (const size_t index : path.chain) {
      const SpanRecord& span = spans[index];
      out += " ";
      out += span.name;
      if (!span.node.empty()) {
        out += "@";
        out += span.node;
      }
      if (index != path.chain.back()) out += " ->";
    }
    out += "\n";
  }
  return out;
}

}  // namespace p2g::obs
