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

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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

/// The one span recorder: spans, counter samples and flow events of a run.
///
/// Every recording thread owns a buffer of fixed-size POD records (span
/// names interned up front, see intern()) and publishes each record with a
/// release store: no lock and, once a block exists, no allocation per
/// record. Readers walk the buffers without a lock, so the SIGABRT dump
/// can read them from signal context.
///
/// Capacity 0 keeps every record (RunOptions::trace_path / collect_trace:
/// the full trace; the distributed master stitches per-node collectors
/// into one merged file). A bounded collector is a flight recorder: each
/// thread keeps only its newest `capacity` spans in a ring, flows and
/// counters are dropped, and a crash or fatal error dumps the ring as a
/// "p2g.flight" trace (RunOptions::flight_dir). With metrics enabled,
/// sampled gauges become Perfetto counter tracks (ph:"C").
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

  /// A span as it is stored: Span with its name replaced by an id from
  /// intern(). Recording one takes no lock and allocates nothing.
  struct Record {
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
    int64_t thread_id = 0;
    Age age = 0;
    int64_t bodies = 0;
    SpanKind kind = SpanKind::kWorker;
    uint32_t name = 0;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span = 0;
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

  /// Spans per thread a flight recorder keeps, and the tail a flight dump
  /// writes from any collector.
  static constexpr size_t kFlightCapacity = 256;

  /// `capacity` 0 = unbounded; otherwise the per-thread ring size (rounded
  /// up to a power of two).
  explicit TraceCollector(size_t capacity = 0);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Id of `name` for Record::name; the same name always yields the same
  /// id. Takes a lock: call it once per name, off the hot path.
  uint32_t intern(std::string_view name);

  void record(const Record& record);
  /// Interns span.name, then records it (for cold paths).
  void record(const Span& span);
  void record_counter(CounterSample sample);
  void record_flow(FlowEvent flow);

  /// Flow endpoints for a context hand-off; the flow id is a pure function
  /// of the context, so producer and consumer nodes agree on it.
  void record_flow_start(const TraceContext& ctx, int64_t t_ns,
                         int64_t thread_id);
  void record_flow_finish(const TraceContext& ctx, int64_t t_ns,
                          int64_t thread_id);

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

  /// Like emit_events, but only each thread's newest kFlightCapacity
  /// spans, as "cat":"p2g.flight" events: a crashed node's last moments.
  void emit_flight_events(std::ostream& os, int pid,
                          const std::string& process_name, int64_t epoch_ns,
                          bool& first) const;

  /// Writes the flight tail as a standalone trace file (best effort: logs
  /// and returns false on I/O failure instead of throwing — dump paths run
  /// during crash handling).
  bool dump_flight(const std::string& path,
                   const std::string& process_name) const;

  /// Installs a process-wide SIGABRT handler that appends every live
  /// collector's flight tail to `path` (JSON lines, via write(2) only)
  /// before re-raising. Idempotent; the first path wins.
  static void install_abort_dump(const std::string& path);

  /// Earliest event timestamp (monotonic ns); 0 when empty. The merged
  /// trace uses the minimum across collectors as the shared epoch.
  int64_t earliest_ns() const;

  /// Copies out all spans (for critical-path analysis).
  std::vector<Span> spans_snapshot() const;

  size_t span_count() const;
  size_t counter_sample_count() const;
  size_t flow_event_count() const;

 private:
  struct ThreadBuffer;
  struct Entry;

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& local_buffer();

  /// Calls fn(entry) for every stored entry, oldest first within each
  /// thread's buffer; at most the newest `tail` entries per thread.
  /// Lock-free and allocation-free.
  template <typename Fn>
  void visit(size_t tail, Fn&& fn) const;

  /// Interned name of `id` ("" if unknown). Lock-free.
  const char* name_of(uint32_t id) const;

  void emit(std::ostream& os, int pid, const std::string& process_name,
            int64_t epoch_ns, bool& first, bool flight) const;

  /// SIGABRT handler: walks the registered collectors (no lock, no heap).
  static void abort_handler(int signum);

  static constexpr size_t kMaxNames = 4096;

  const uint64_t id_;  ///< process-unique, keys the per-thread cache
  const size_t capacity_;  ///< 0 = unbounded
  /// Thread buffers as a list readers walk without a lock; pushed to
  /// under mutex_.
  std::atomic<ThreadBuffer*> buffers_{nullptr};
  /// Interned names by id, published with release stores, so ids resolve
  /// without a lock. The strings live in name_ids_' (never moved) keys.
  const std::unique_ptr<std::atomic<const char*>[]> names_;
  mutable std::mutex mutex_;  ///< registration, names, counters
  std::map<std::thread::id, ThreadBuffer*> buffer_of_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<CounterSample> counters_;
};

}  // namespace p2g
