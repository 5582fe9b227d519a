// Runtime: a P2G execution node for multi-core machines (paper §VI-B).
//
// The runtime owns field storage, one dependency analyzer behind a
// combining event queue, an age-ordered ready queue and a pool of worker
// threads. Kernel instances run on workers and emit store events; the
// thread that pushes an event runs the analysis unless another thread is
// (there is no analyzer thread), which discovers newly runnable instances
// and dispatches each exactly once (write-once semantics make this sound).
// The run terminates at quiescence: no pending events, no ready or running
// instances.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/combining_queue.h"
#include "common/rng.h"
#include "core/events.h"
#include "core/field.h"
#include "core/instrumentation.h"
#include "core/program.h"
#include "core/ready_queue.h"
#include "core/timer.h"
#include "core/trace.h"
#include "obs/metrics.h"

namespace p2g {

class DependencyAnalyzer;
class KernelContext;

/// Requests fusing a downstream kernel into its upstream producer — the
/// paper's "decrease task parallelism" (Fig. 4, Age=3). Accepted when
/// fusion_verdict (core/program.h) finds the pair legal; the Runtime
/// constructor throws kInvalidArgument with its blocker otherwise.
struct FusionRule {
  std::string upstream;
  std::string downstream;
};

/// Per-kernel low-level-scheduler overrides.
struct KernelSchedule {
  /// Data-granularity override (Fig. 4, Age=2): up to `chunk` instances of
  /// the same kernel and age are dispatched as one work item. Unset, the
  /// runtime sizes chunks itself from measured body times (see
  /// DependencyAnalyzer::flush_chunks); set to 1, every instance is its
  /// own work item.
  std::optional<int64_t> chunk;
  /// Last age at which instances of this kernel may run.
  std::optional<Age> max_age;
};

struct RunOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int workers = 0;
  /// Global cap on instance ages (required for cyclic programs with no
  /// natural termination, e.g. the paper's mul2/plus5 loop).
  std::optional<Age> max_age;
  std::map<std::string, KernelSchedule> kernel_schedules;
  std::vector<FusionRule> fusions;
  /// Aborts the run if quiescence is not reached in time (hang detection).
  std::optional<std::chrono::milliseconds> watchdog;
  /// Checked mode: record writer provenance per (field, age, region) so a
  /// write-once violation reports *both* offending kernel instances and
  /// their slices instead of just the second one. Costs one small record
  /// per store; use for debugging double-write errors, not production
  /// runs. (Unlike P2G_SANITIZE=thread this catches semantic write-once
  /// races even when the two stores never overlap in time.)
  bool checked = false;
  /// Fields whose ages survive the run. The analyzer releases each
  /// (field, age) once every local reader and writer has retired it, so
  /// after run() only retained fields still hold consumed ages. Fields no
  /// kernel fetches are always retained, and so is every field in checked
  /// runs and with idempotent_stores.
  std::set<std::string> retain_fields;

  // --- hooks for distributed operation (src/dist) --------------------------

  /// Kernels this execution node does *not* run (they belong to another
  /// partition). Their stores arrive through Runtime::inject_store.
  std::set<std::string> disabled_kernels;
  /// Keep running at quiescence and wait for injected stores; the run only
  /// ends via Runtime::stop() (or the watchdog).
  bool keep_alive = false;
  /// Called after every committed store (worker thread) — the execution
  /// node uses it to forward stores to remote consumers.
  std::function<void(const StoreEvent&)> store_tap;
  /// Idempotent commits: stores write only not-yet-written elements instead
  /// of throwing kWriteOnceViolation on overlap. Store events and the
  /// store_tap still fire for skipped stores (seal bookkeeping and remote
  /// forwarding must see re-executed work). Required for failover
  /// re-execution, where a re-enabled kernel redoes instances whose results
  /// partially survived locally.
  bool idempotent_stores = false;

  /// When set, every dispatched work item and analyzer batch is recorded
  /// and written as Chrome trace-event JSON to this path after the run
  /// (open in chrome://tracing or Perfetto). Meant for small runs — one
  /// span per work item.
  std::optional<std::string> trace_path;
  /// Collect spans without writing a file: the distributed master reads
  /// each node's collector and stitches one merged trace. Implied by
  /// trace_path.
  bool collect_trace = false;
  /// Process-lane label in traces and span-id salt (the execution node
  /// sets its node name); empty = "p2g".
  std::string trace_label;
  /// Flight recording: each thread's newest spans are kept (the last
  /// TraceCollector::kFlightCapacity; all of them when tracing is on) and
  /// dumped into this directory as flight_<label>.json on the first fatal
  /// error and by ExecutionNode::crash().
  std::optional<std::string> flight_dir;

  /// Telemetry (src/obs): the instrumentation's latency histograms and
  /// counters, plus queue depth / utilization / memory gauges the analyzer
  /// samples into time series. The snapshot lands in RunReport::metrics;
  /// combined with trace_path, sampled gauges also become Perfetto counter
  /// tracks.
  obs::MetricsOptions metrics;
};

struct RunReport {
  double wall_s = 0.0;
  bool timed_out = false;
  InstrumentationReport instrumentation;
  /// Telemetry snapshot (empty unless RunOptions::metrics.enabled).
  obs::MetricsSnapshot metrics;
};

/// A single execution node. Construct, run() once, then inspect field
/// storage and instrumentation.
class Runtime {
 public:
  explicit Runtime(Program program, RunOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes the program to quiescence (blocking). May be called once.
  RunReport run();

  /// Applies a store produced on another execution node: writes the region
  /// payload into local field storage and feeds the analyzer the same
  /// event a local store would have produced. Thread-safe; usable before
  /// and during run().
  ///
  /// With `fill` set the apply is idempotent: only not-yet-written elements
  /// are stored, and a fully duplicate store pushes no event. Returns the
  /// number of freshly written elements (the region's element count in
  /// non-fill mode, where duplicates throw).
  int64_t inject_store(FieldId field, Age age, const nd::Region& region,
                       KernelId producer, size_t store_decl, bool whole,
                       const std::byte* payload, bool fill = false,
                       const TraceContext& ctx = {});

  /// inject_store for payloads already mapped into this process (the
  /// shared-memory data plane): when `view` densely covers the whole
  /// region of an untouched age, field storage *adopts* the view's pages
  /// (zero copies, keepalive pins the mapping); otherwise the bytes are
  /// copied in like a regular non-fill store. Sets *adopted accordingly
  /// when non-null.
  int64_t inject_store_view(FieldId field, Age age, const nd::Region& region,
                            KernelId producer, size_t store_decl, bool whole,
                            const nd::ConstView& view,
                            bool* adopted = nullptr,
                            const TraceContext& ctx = {});

  /// Re-enables a disabled kernel and re-enumerates its instances from
  /// surviving field data (failover: the kernel's previous owner died).
  /// Thread-safe; the rescan is analyzed like any other event.
  void enable_kernel(const std::string& name);

  /// Ends a keep-alive run (or aborts a normal one). Thread-safe.
  void stop() { begin_shutdown(); }

  /// True when run() has created the initial instances and no events,
  /// ready instances or running instances exist. A runtime whose run()
  /// has not bootstrapped yet is not idle: the distributed termination
  /// probe must not mistake a node that has not started for a drained one.
  bool idle() const {
    return bootstrapped_.load() && outstanding_.load() == 0;
  }

  const Program& program() const { return program_; }
  FieldStorage& storage(FieldId field);
  FieldStorage& storage(std::string_view field_name);
  TimerSet& timers() { return timers_; }

  /// Instrumentation snapshot (also embedded in the RunReport).
  InstrumentationReport instrumentation() const;

  /// The dependency analyzer (tests: memory stats, dispatch count).
  DependencyAnalyzer& analyzer() { return *analyzer_; }

  /// The span recorder (nullptr unless RunOptions::trace_path,
  /// collect_trace or flight_dir was set). Unbounded with trace_path or
  /// collect_trace; with flight_dir alone, a flight recorder keeping each
  /// thread's newest TraceCollector::kFlightCapacity spans.
  const TraceCollector* trace() const { return trace_.get(); }

  /// Mutable collector handle for embedding layers (the execution node
  /// records wire/remote-store/recovery spans into the node's timeline).
  TraceCollector* mutable_trace() { return trace_.get(); }

  /// Fresh, node-unique span id (never 0). Cheap: one atomic increment
  /// plus a stateless hash salted with the node label.
  uint64_t next_span_id() {
    const uint64_t id =
        mix(span_salt_, span_seq_.fetch_add(1, std::memory_order_relaxed));
    return id != 0 ? id : 1;
  }

  /// Writes the flight dump (each thread's newest spans) into
  /// RunOptions::flight_dir (no-op without it). Returns the path when
  /// written.
  std::optional<std::string> dump_flight() const;

  /// Telemetry snapshot: the instrumentation's histograms and counters,
  /// plus the gauge series once run() has finished sampling them. Empty
  /// when metrics are disabled.
  obs::MetricsSnapshot metrics_snapshot() const;

 private:
  friend class DependencyAnalyzer;

  /// Resolved fusion of a downstream kernel into its upstream producer.
  struct ResolvedFusion {
    KernelId upstream = kInvalidKernel;
    KernelId downstream = kInvalidKernel;
    size_t upstream_store_decl = 0;
    int64_t age_delta = 0;  ///< downstream age = upstream age + age_delta
    /// downstream coord[v] = upstream coord[coord_map[v]]
    std::vector<size_t> coord_map;
    /// The downstream instances a box of upstream instances feeds.
    nd::Region downstream_box(const nd::Region& upstream) const {
      std::vector<nd::Interval> box(coord_map.size());
      for (size_t v = 0; v < box.size(); ++v) {
        box[v] = upstream.interval(coord_map[v]);
      }
      return nd::Region(std::move(box));
    }
    /// Skip committing the intermediate store (sole consumer is fused).
    bool elide = false;
  };

  /// Per-kernel resolved schedule.
  struct KernelRunCfg {
    /// Fixed chunk size: the user's override, or 1 for serial, source and
    /// run-once kernels. Unset, the analyzer sizes each flush from
    /// measured body times.
    std::optional<int64_t> chunk;
    Age cap = std::numeric_limits<Age>::max();
    const ResolvedFusion* fusion = nullptr;  ///< as upstream
    bool enabled = true;  ///< false: kernel runs on another node
  };

  /// Appends one sample at `t_ns` to every gauge series (run() before the
  /// threads start, then the analysis, then run() after the join).
  void sample_gauges(int64_t t_ns);
  /// Takes the closing sample, copies the series into Perfetto counter
  /// tracks (with tracing on) and releases them to metrics_snapshot().
  void finalize_metrics();

  void resolve_options();
  void resolve_fusion(const FusionRule& rule);

  // Work accounting: every event and every created instance holds one unit;
  // quiescence (= shutdown) happens when the count returns to zero.
  void add_outstanding(int64_t n) { outstanding_.fetch_add(n); }
  void complete_outstanding(int64_t n = 1);

  /// Enqueues a work item. When `already_counted`, the instance already
  /// holds an outstanding unit (it was parked by the serial gate).
  void submit(WorkItem item, bool already_counted = false);

  /// Enqueues a batch of work items under one ready-queue lock.
  void submit_batch(std::vector<WorkItem> items);

  /// Enqueues an event; analyzes the backlog unless another thread is.
  void push_event(Event event);

  void begin_shutdown();
  void fail(std::exception_ptr error);

  void worker_loop(int worker_index);
  /// Handles one drained batch of events and settles its accounting.
  void analyze(const std::deque<Event>& batch);

  /// Runs the box of a work item in one context: fetch prep, then per
  /// instance the body and its fused downstream, then one commit per store
  /// declaration, instrumentation and the done event. `start_ns` is the
  /// item's start time and the return value its end time (the bounds of
  /// its trace span).
  int64_t execute(const WorkItem& item, int worker_index, int64_t start_ns);
  /// Prepares each fetch slot from one view (or copy) of its footprint
  /// over the context's box.
  void prepare_fetches(KernelContext& ctx);
  /// Throws kInvalidArgument when a payload's type is not its field's.
  void check_store_type(const KernelDef& def, const StoreDecl& d,
                        nd::ElementType type) const;
  /// The region a non-whole store of the instances in `box` writes, each
  /// with a payload of extents `payload`: index variables span the box,
  /// all() dimensions come from the payload's shape. Throws
  /// kInvalidArgument when the payload does not fit the declaration.
  nd::Region store_region(const KernelDef& def, const StoreDecl& d,
                          const nd::Region& box,
                          const nd::Extents& payload) const;
  /// Commits one store of the instances in `instances` into field storage
  /// and appends its event to `events` (pushed, possibly coalesced, by
  /// execute()). `span_ctx` is the executing span's identity: events are
  /// stamped with it, and a root span (no inherited frame) adopts the
  /// first store's frame id.
  void commit_region(const KernelContext& ctx, size_t decl,
                     const nd::Region& instances, const nd::Region& region,
                     bool whole, const std::byte* data,
                     std::vector<StoreEvent>& events,
                     Instrumentation::Slot tally, TraceContext* span_ctx);
  /// Commits the current instance's unstaged stores.
  void commit_pending(const KernelContext& ctx, const ResolvedFusion* fusion,
                      std::vector<StoreEvent>& events,
                      Instrumentation::Slot tally, TraceContext* span_ctx);
  /// Commits each store declaration's staged payloads: the box's image in
  /// one store when every instance stored and the image is laid out in
  /// box order (and the run is not checked), else one store per instance.
  void commit_staged(const KernelContext& ctx, const ResolvedFusion* fusion,
                     std::vector<StoreEvent>& events,
                     Instrumentation::Slot tally, TraceContext* span_ctx);
  /// Merges runs of events from the same store statement whose regions
  /// tile an exact rectangle (instances that committed one by one over
  /// consecutive indices; a box commit is one event already) — cutting
  /// analyzer load proportionally to the run length — and emits
  /// one flow-start per traced event, at `flow_ns`, so consumers can draw
  /// the dependency arrow. The result rides in the item's done event.
  std::vector<StoreEvent> coalesce_store_events(std::vector<StoreEvent> events,
                                                Instrumentation::Slot tally,
                                                int worker_index,
                                                int64_t flow_ns);

  Age cap_of(KernelId kernel) const {
    return kcfg_[static_cast<size_t>(kernel)].cap;
  }

  bool kernel_enabled(KernelId kernel) const {
    return kcfg_[static_cast<size_t>(kernel)].enabled;
  }

  Program program_;
  RunOptions options_;
  std::vector<std::unique_ptr<FieldStorage>> storages_;
  std::vector<KernelRunCfg> kcfg_;
  std::vector<ResolvedFusion> fusions_;
  /// Worker threads, resolved from RunOptions::workers at construction.
  int workers_ = 1;

  ReadyQueue ready_;
  /// Events; the gate holder runs analyze(). run() opens it after bootstrap.
  CombiningQueue<Event> events_{
      [this](const std::deque<Event>& batch) { analyze(batch); }};
  Instrumentation instr_;
  TimerSet timers_;
  std::unique_ptr<TraceCollector> trace_;
  /// Interned span names: kernel names by kernel id, and "analyze".
  std::vector<uint32_t> kernel_span_names_;
  uint32_t analyze_span_name_ = 0;
  std::unique_ptr<DependencyAnalyzer> analyzer_;
  std::atomic<uint64_t> span_seq_{1};
  uint64_t span_salt_ = 0;

  // Gauge series (empty when RunOptions::metrics.enabled is false). The
  // series (named in the constructor, in the order sample_gauges() appends
  // values) and the time and worker time of the last sample belong to
  // whichever thread samples (see sample_gauges); once finalize_metrics()
  // sets series_closed_ they are read-only and snapshots copy them.
  std::vector<obs::TimeSeries> series_;
  std::atomic<bool> series_closed_{false};
  int64_t sampled_at_ns_ = 0;
  std::pair<int64_t, int64_t> sampled_worker_time_;

  std::atomic<int64_t> outstanding_{0};
  std::atomic<bool> bootstrapped_{false};
  sync::Mutex done_mutex_{"Runtime.done_mutex"};
  sync::CondVar done_cv_{"Runtime.done_cv"};
  bool done_ = false;
  bool started_ = false;

  sync::Mutex error_mutex_{"Runtime.error_mutex"};
  std::exception_ptr error_;
};

}  // namespace p2g
