// Execution tracing: a timeline of every dispatched work item in Chrome
// trace-event JSON (load in chrome://tracing or Perfetto).
//
// The paper's execution nodes feed instrumentation to the schedulers; the
// aggregate view is Tables II/III, and this is the per-instance view —
// one lane per worker thread plus the analyzer, showing dispatch gaps,
// chunk widths and the serial-analyzer bottleneck of Fig. 10 visually.
//
// Causal layer (ISSUE 6): every span carries a TraceContext — a trace id
// naming the (field, age) "frame" that started the causal chain plus the
// span id of its cause — and contexts are propagated through store events,
// wire messages and remote stores. Producer/consumer hand-offs are emitted
// as Perfetto flow events (ph:"s"/"f") so the UI draws arrows across node
// lanes, and the span DAG feeds the critical-path analyzer (obs/causal.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ids.h"

namespace p2g {

/// Causal identity carried along a dependency edge: which frame the data
/// belongs to and which span produced it. A zero trace id means
/// "untraced" (tracing disabled, or data with no causal parent such as a
/// checkpoint replay).
struct TraceContext {
  uint64_t trace_id = 0;  ///< frame id, derived per source (field, age)
  uint64_t span_id = 0;   ///< producing span (causal parent downstream)

  bool valid() const { return trace_id != 0; }
};

/// Deterministic frame id of a source (field, age): every node derives the
/// same id without coordination, so cross-node chains agree on the frame
/// they belong to. Never returns 0.
uint64_t frame_trace_id(FieldId field, Age age);

/// What a span measured — the critical-path analyzer buckets latency by
/// this kind (obs/causal.h).
enum class SpanKind : uint8_t {
  kWorker = 0,       ///< kernel bodies on a worker thread
  kAnalyzer = 1,     ///< dependency-analyzer batch
  kWire = 2,         ///< serialize + send (and retransmit children)
  kRemoteStore = 3,  ///< decode + apply of a remote store
  kRecovery = 4,     ///< failure detection / reassignment work
  kOther = 5,
};

const char* to_string(SpanKind kind);

/// Thread-safe collector of trace spans, counter samples and flow events.
/// Spans and flows go to a buffer owned by the recording thread (registered
/// on its first record), so workers and the analyzer never contend on one
/// lock or one growing vector; readers merge the buffers.
/// Enabled via RunOptions::trace_path (write a file after the run) or
/// RunOptions::collect_trace (collect only; the distributed master stitches
/// per-node collectors into one merged file). Workers record one span per
/// executed work item and the analyzer one span per processed event batch.
/// With metrics enabled, sampled gauges become Perfetto counter tracks
/// (ph:"C") rendered alongside the span lanes.
class TraceCollector {
 public:
  struct Span {
    std::string name;   ///< kernel name or analyzer phase
    int64_t start_ns;   ///< monotonic
    int64_t duration_ns;
    int64_t thread_id;  ///< worker index; -1 = analyzer, -2 = net, -3 = retry
    Age age;
    int64_t bodies;     ///< kernel bodies covered (chunk width)
    // Causal fields (zero when untraced).
    SpanKind kind = SpanKind::kWorker;
    uint64_t trace_id = 0;     ///< frame this span belongs to
    uint64_t span_id = 0;      ///< this span's identity
    uint64_t parent_span = 0;  ///< causal parent span (0 = root)
  };

  /// One point of a counter track (a sampled gauge).
  struct CounterSample {
    std::string track;  ///< counter-track name, e.g. "ready_queue_depth"
    int64_t t_ns;       ///< monotonic
    int64_t value;
  };

  /// A flow-event endpoint: start (ph:"s") where data leaves a span,
  /// finish (ph:"f") where a causally dependent span picks it up. Chrome
  /// binds endpoints by id and draws an arrow between the enclosing spans.
  struct FlowEvent {
    uint64_t flow_id;
    int64_t t_ns;
    int64_t thread_id;
    bool finish;  ///< false = ph:"s", true = ph:"f"
  };

  TraceCollector();

  void record(Span span);
  void record_counter(CounterSample sample);
  void record_flow(FlowEvent flow);

  /// Flow endpoints for a context hand-off; the flow id is a pure function
  /// of the context, so producer and consumer nodes agree on it.
  void record_flow_start(const TraceContext& ctx, int64_t t_ns,
                         int64_t thread_id);
  void record_flow_finish(const TraceContext& ctx, int64_t t_ns,
                          int64_t thread_id);

  /// Labels a thread lane (ph:"M" thread_name metadata). Unlabeled lanes
  /// get defaults ("worker N" / "analyzer" / "net" / "retry").
  void name_thread(int64_t thread_id, std::string name);

  /// Serializes everything as a Chrome trace-event JSON array document.
  std::string to_chrome_json() const;

  /// Streams the JSON document to a file without materializing it in
  /// memory (throws kIo on failure).
  void write_file(const std::string& path) const;

  /// Streams this collector's events as trace-event objects into an open
  /// document: metadata (ph:"M" process/thread names), spans, counters and
  /// flows, with `pid` as the process lane and timestamps rebased to
  /// `epoch_ns`. `first` tracks comma placement across collectors — the
  /// distributed master calls this once per node to stitch one merged
  /// trace.
  void emit_events(std::ostream& os, int pid,
                   const std::string& process_name, int64_t epoch_ns,
                   bool& first) const;

  /// Earliest event timestamp (monotonic ns); 0 when empty. The merged
  /// trace uses the minimum across collectors as the shared epoch.
  int64_t earliest_ns() const;

  /// Copies out all spans (for critical-path analysis).
  std::vector<Span> spans_snapshot() const;

  size_t span_count() const;
  size_t counter_sample_count() const;
  size_t flow_event_count() const;

 private:
  /// Events of one recording thread. Its lock is only contended while a
  /// reader merges the buffers.
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<Span> spans;
    std::vector<FlowEvent> flows;
  };

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& local_buffer();

  /// Calls fn(buffer) for every thread buffer in registration order, each
  /// under its own lock. The caller holds mutex_.
  template <typename Fn>
  void for_each_buffer(Fn&& fn) const {
    for (const auto& buffer : buffers_) {
      std::scoped_lock lock(buffer->mutex);
      fn(static_cast<const ThreadBuffer&>(*buffer));
    }
  }

  const uint64_t id_;  ///< process-unique, keys the per-thread cache
  mutable std::mutex mutex_;  ///< buffer registry, counters, thread names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::thread::id, ThreadBuffer*> buffer_of_;
  std::vector<CounterSample> counters_;
  std::map<int64_t, std::string> thread_names_;
};

}  // namespace p2g
