#include "core/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace p2g {

namespace {

// Domain-separation salts so frame ids, span ids and flow ids never
// collide even when built from overlapping inputs.
constexpr uint64_t kFrameSalt = 0x70326766726D6531ULL;  // "p2gfrme1"
constexpr uint64_t kFlowSalt = 0x703267666C6F7731ULL;   // "p2gflow1"

uint64_t flow_id_of(const TraceContext& ctx) {
  return mix(kFlowSalt, ctx.trace_id, ctx.span_id);
}

void write_hex(std::ostream& os, uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  os << buf;
}

/// Causal args shared by spans and flight entries: emitted only for traced
/// events to keep untraced documents byte-compatible with the PR 1 format.
void write_causal_args(std::ostream& os, SpanKind kind, uint64_t trace_id,
                       uint64_t span_id, uint64_t parent_span) {
  os << ", \"kind\": \"" << to_string(kind) << "\"";
  os << ", \"trace\": \"";
  write_hex(os, trace_id);
  os << "\", \"span\": \"";
  write_hex(os, span_id);
  os << "\"";
  if (parent_span != 0) {
    os << ", \"parent\": \"";
    write_hex(os, parent_span);
    os << "\"";
  }
}

}  // namespace

uint64_t frame_trace_id(FieldId field, Age age) {
  const uint64_t id = mix(kFrameSalt, static_cast<uint64_t>(field),
                          static_cast<uint64_t>(age));
  return id != 0 ? id : 1;
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorker: return "worker";
    case SpanKind::kAnalyzer: return "analyzer";
    case SpanKind::kWire: return "wire";
    case SpanKind::kRemoteStore: return "remote_store";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kOther: return "other";
  }
  return "other";
}

namespace {

std::atomic<uint64_t> g_next_collector_id{1};

/// Last collector this thread recorded into and its buffer there. Keyed by
/// the never-reused collector id, so a destroyed collector's entry can
/// never be hit again.
struct BufferCache {
  uint64_t collector = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

}  // namespace

TraceCollector::TraceCollector() : id_(g_next_collector_id.fetch_add(1)) {}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  BufferCache& cache = t_buffer_cache;
  if (cache.collector == id_) return *static_cast<ThreadBuffer*>(cache.buffer);
  std::scoped_lock lock(mutex_);
  ThreadBuffer*& buffer = buffer_of_[std::this_thread::get_id()];
  if (buffer == nullptr) {
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
  }
  cache.collector = id_;
  cache.buffer = buffer;
  return *buffer;
}

void TraceCollector::record(Span span) {
  ThreadBuffer& buffer = local_buffer();
  std::scoped_lock lock(buffer.mutex);
  buffer.spans.push_back(std::move(span));
}

void TraceCollector::record_counter(CounterSample sample) {
  std::scoped_lock lock(mutex_);
  counters_.push_back(std::move(sample));
}

void TraceCollector::record_flow(FlowEvent flow) {
  ThreadBuffer& buffer = local_buffer();
  std::scoped_lock lock(buffer.mutex);
  buffer.flows.push_back(flow);
}

void TraceCollector::record_flow_start(const TraceContext& ctx, int64_t t_ns,
                                       int64_t thread_id) {
  record_flow(FlowEvent{flow_id_of(ctx), t_ns, thread_id, false});
}

void TraceCollector::record_flow_finish(const TraceContext& ctx,
                                        int64_t t_ns, int64_t thread_id) {
  record_flow(FlowEvent{flow_id_of(ctx), t_ns, thread_id, true});
}

void TraceCollector::name_thread(int64_t thread_id, std::string name) {
  std::scoped_lock lock(mutex_);
  thread_names_[thread_id] = std::move(name);
}

size_t TraceCollector::span_count() const {
  std::scoped_lock lock(mutex_);
  size_t n = 0;
  for_each_buffer([&n](const ThreadBuffer& b) { n += b.spans.size(); });
  return n;
}

size_t TraceCollector::counter_sample_count() const {
  std::scoped_lock lock(mutex_);
  return counters_.size();
}

size_t TraceCollector::flow_event_count() const {
  std::scoped_lock lock(mutex_);
  size_t n = 0;
  for_each_buffer([&n](const ThreadBuffer& b) { n += b.flows.size(); });
  return n;
}

std::vector<TraceCollector::Span> TraceCollector::spans_snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<Span> out;
  for_each_buffer([&out](const ThreadBuffer& b) {
    out.insert(out.end(), b.spans.begin(), b.spans.end());
  });
  return out;
}

int64_t TraceCollector::earliest_ns() const {
  std::scoped_lock lock(mutex_);
  int64_t epoch = 0;
  const auto take = [&epoch](int64_t t) {
    if (epoch == 0 || t < epoch) epoch = t;
  };
  for_each_buffer([&take](const ThreadBuffer& b) {
    for (const Span& span : b.spans) take(span.start_ns);
    for (const FlowEvent& flow : b.flows) take(flow.t_ns);
  });
  for (const CounterSample& sample : counters_) take(sample.t_ns);
  return epoch;
}

void TraceCollector::emit_events(std::ostream& os, int pid,
                                 const std::string& process_name,
                                 int64_t epoch_ns, bool& first) const {
  std::scoped_lock lock(mutex_);
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: label the process lane and every thread lane so Perfetto
  // shows "node1 / worker 0" instead of bare pid/tid numbers.
  sep();
  os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"" << json_escape(process_name) << "\"}}";
  std::set<int64_t> tids;
  for_each_buffer([&tids](const ThreadBuffer& b) {
    for (const Span& span : b.spans) tids.insert(span.thread_id);
    for (const FlowEvent& flow : b.flows) tids.insert(flow.thread_id);
  });
  for (const int64_t tid : tids) {
    std::string label;
    const auto it = thread_names_.find(tid);
    if (it != thread_names_.end()) {
      label = it->second;
    } else if (tid >= 0) {
      label = "worker " + std::to_string(tid);
    } else if (tid == -1) {
      label = "analyzer";
    } else if (tid == -2) {
      label = "net";
    } else if (tid == -3) {
      label = "retry";
    } else if (tid <= -10) {
      // Analyzer shards >= 1 (shard 0 stays on the classic -1 lane).
      label = "analyzer " + std::to_string(-10 - tid);
    } else {
      label = "thread " + std::to_string(tid);
    }
    sep();
    os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
       << json_escape(label) << "\"}}";
  }

  for_each_buffer([&](const ThreadBuffer& b) {
    for (const Span& span : b.spans) {
      sep();
      // Chrome trace "complete" events: ph=X, ts/dur in microseconds.
      os << "  {\"name\": \"" << json_escape(span.name)
         << "\", \"cat\": \"p2g\", "
         << "\"ph\": \"X\", \"pid\": " << pid
         << ", \"tid\": " << span.thread_id
         << ", \"ts\": " << (span.start_ns - epoch_ns) / 1000.0
         << ", \"dur\": " << span.duration_ns / 1000.0
         << ", \"args\": {\"age\": " << span.age
         << ", \"bodies\": " << span.bodies;
      if (span.trace_id != 0 || span.kind != SpanKind::kWorker) {
        write_causal_args(os, span.kind, span.trace_id, span.span_id,
                          span.parent_span);
      }
      os << "}}";
    }
  });
  for (const CounterSample& sample : counters_) {
    sep();
    // Counter events: ph=C, one track per name, rendered by Perfetto as a
    // filled curve above the span lanes.
    os << "  {\"name\": \"" << json_escape(sample.track)
       << "\", \"cat\": \"p2g\", \"ph\": \"C\", \"pid\": " << pid
       << ", \"ts\": " << (sample.t_ns - epoch_ns) / 1000.0
       << ", \"args\": {\"value\": " << sample.value << "}}";
  }
  for_each_buffer([&](const ThreadBuffer& b) {
    for (const FlowEvent& flow : b.flows) {
      sep();
      // Flow endpoints: ph=s where data leaves a span, ph=f (bp=e: bind to
      // the enclosing slice) where a dependent span picks it up. The id is
      // derived from the carried TraceContext, so the two sides agree on it
      // across nodes and Chrome draws the arrow between lanes.
      os << "  {\"name\": \"dep\", \"cat\": \"p2g.flow\", \"ph\": \""
         << (flow.finish ? "f" : "s") << "\"";
      if (flow.finish) os << ", \"bp\": \"e\"";
      os << ", \"id\": \"";
      write_hex(os, flow.flow_id);
      os << "\", \"pid\": " << pid << ", \"tid\": " << flow.thread_id
         << ", \"ts\": " << (flow.t_ns - epoch_ns) / 1000.0 << "}";
    }
  });
}

std::string TraceCollector::to_chrome_json() const {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  emit_events(os, 1, "p2g", earliest_ns(), first);
  os << "\n]\n";
  return os.str();
}

void TraceCollector::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  }
  // Streamed, not materialized: the document is written event by event so
  // a large trace never builds a second full copy in memory.
  os << "[\n";
  bool first = true;
  emit_events(os, 1, "p2g", earliest_ns(), first);
  os << "\n]\n";
  os.flush();
  if (!os.good()) {
    throw_error(ErrorKind::kIo, "failed writing trace to '" + path + "'");
  }
}

}  // namespace p2g
