// Runtime: a P2G execution node for multi-core machines (paper §VI-B).
//
// The runtime owns field storage, one or more dependency-analyzer shard
// threads (RunOptions::analyzer_shards), an age-ordered ready queue and a
// pool of worker threads. Kernel instances run on workers and emit store
// events; the analyzer shards consume events routed by field/kernel
// ownership, discover newly runnable instances and dispatch each instance
// exactly once (write-once semantics make this sound). The run terminates
// at quiescence: no pending events, no ready or running instances.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/rng.h"
#include "core/events.h"
#include "core/flight_recorder.h"
#include "core/field.h"
#include "core/instrumentation.h"
#include "core/program.h"
#include "core/ready_queue.h"
#include "core/timer.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace p2g {

class DependencyAnalyzer;
class KernelContext;

/// Requests fusing a downstream kernel into its upstream producer — the
/// paper's "decrease task parallelism" (Fig. 4, Age=3). The downstream
/// kernel must have exactly one fetch, elementwise on a field the upstream
/// stores elementwise with a matching slice.
struct FusionRule {
  std::string upstream;
  std::string downstream;
};

/// Per-kernel low-level-scheduler knobs.
struct KernelSchedule {
  /// Data-granularity control (Fig. 4, Age=2): up to `chunk` instances of
  /// the same kernel and age are dispatched as one work item.
  int64_t chunk = 1;
  /// Last age at which instances of this kernel may run.
  std::optional<Age> max_age;
};

struct RunOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int workers = 0;
  /// Adaptive data-granularity control (paper §V-A): the analyzer watches
  /// the instrumented dispatch/kernel-time ratio and doubles a kernel's
  /// chunk size while dispatch overhead dominates (kernels with an
  /// explicit chunk in kernel_schedules are left alone).
  bool adaptive_chunking = false;
  /// Global cap on instance ages (required for cyclic programs with no
  /// natural termination, e.g. the paper's mul2/plus5 loop).
  std::optional<Age> max_age;
  std::map<std::string, KernelSchedule> kernel_schedules;
  std::vector<FusionRule> fusions;
  /// Aborts the run if quiescence is not reached in time (hang detection).
  std::optional<std::chrono::milliseconds> watchdog;
  /// Oldest-first dispatch (paper §VI-B). false = plain FIFO (ablation).
  bool age_priority = true;
  /// Batched event handling: the analyzer drains its whole event backlog
  /// under one queue lock and amortizes trace/metrics/accounting over the
  /// batch. false = one event per lock round trip (ablation baseline).
  bool analyzer_batch = true;
  /// Analyzer shards (clamped to [1, 64]): dependency tracking is
  /// partitioned across this many analyzer threads, each owning a disjoint
  /// set of fields and kernels, fed by per-shard lock-free MPSC queues and
  /// exchanging cross-shard effects as explicit messages
  /// (core/dependency.h). 1 (the default) is exactly the paper's single
  /// analyzer thread; any value dispatches a bit-identical instance set.
  int analyzer_shards = 1;
  /// Consume independence certificates embedded by Program::certify(): a
  /// store event arriving through a certified (consumer, fetch) pair skips
  /// that fetch's fine-grained region_written tracking for every candidate
  /// the event's region admits. No effect when the program carries no
  /// certificates. false = ablation baseline (PR 3 batched dispatch path).
  bool use_certificates = true;
  /// Checked mode: record writer provenance per (field, age, region) so a
  /// write-once violation reports *both* offending kernel instances and
  /// their slices instead of just the second one. Costs one small record
  /// per store; use for debugging double-write errors, not production
  /// runs. (Unlike P2G_SANITIZE=thread this catches semantic write-once
  /// races even when the two stores never overlap in time.)
  bool checked = false;

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
  /// Keep a bounded per-thread ring of recent events (core/flight_recorder.h)
  /// even when full tracing is off, dumped on crash/fatal error.
  bool flight_recorder = false;
  /// Directory for flight-recorder dump artifacts written on fatal errors
  /// (and by ExecutionNode::crash()); file name is flight_<label>.json.
  std::optional<std::string> flight_dir;

  /// Telemetry (src/obs): latency histograms, counters, and a sampler
  /// thread turning queue depth / utilization / memory gauges into time
  /// series. The snapshot lands in RunReport::metrics; combined with
  /// trace_path, sampled gauges also become Perfetto counter tracks.
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
  /// Thread-safe; the rescan runs on the analyzer thread.
  void enable_kernel(const std::string& name);

  /// Ends a keep-alive run (or aborts a normal one). Thread-safe.
  void stop() { begin_shutdown(); }

  /// True when no events, ready instances or running instances exist.
  bool idle() const { return outstanding_.load() == 0; }

  const Program& program() const { return program_; }
  FieldStorage& storage(FieldId field);
  FieldStorage& storage(std::string_view field_name);
  TimerSet& timers() { return timers_; }

  /// Instrumentation snapshot (also embedded in the RunReport).
  InstrumentationReport instrumentation() const;

  /// Number of per-candidate dependence checks the analyzer skipped via
  /// independence certificates (0 without certify()/use_certificates).
  int64_t certified_skips() const;

  /// The dependency analyzer (tests/bench: shard counters, memory stats).
  DependencyAnalyzer& analyzer() { return *analyzer_; }

  /// CPU time the busiest analyzer shard thread consumed during run(),
  /// in nanoseconds. On oversubscribed machines (or a single-core box,
  /// where N shard threads time-share one core) wall clock cannot show the
  /// per-shard load split; the max shard CPU is the quantity that
  /// parallelism across cores would put on the critical path. Valid after
  /// run() returns; 0 before.
  int64_t max_analyzer_cpu_ns() const {
    int64_t best = 0;
    for (const int64_t ns : analyzer_cpu_ns_) best = std::max(best, ns);
    return best;
  }

  /// The execution trace (nullptr unless RunOptions::trace_path or
  /// collect_trace was set).
  const TraceCollector* trace() const { return trace_.get(); }

  /// Mutable collector handle for embedding layers (the execution node
  /// records wire/remote-store/recovery spans into the node's timeline).
  TraceCollector* mutable_trace() { return trace_.get(); }

  /// The flight recorder (nullptr unless RunOptions::flight_recorder).
  FlightRecorder* flight() { return flight_.get(); }

  /// Fresh, node-unique span id (never 0). Cheap: one atomic increment
  /// plus a stateless hash salted with the node label.
  uint64_t next_span_id() {
    const uint64_t id =
        mix(span_salt_, span_seq_.fetch_add(1, std::memory_order_relaxed));
    return id != 0 ? id : 1;
  }

  /// Writes the flight-recorder dump artifact into RunOptions::flight_dir
  /// (no-op without recorder or dir). Returns the path when written.
  std::optional<std::string> dump_flight() const;

  /// The metrics registry (nullptr unless RunOptions::metrics.enabled).
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Mutable registry handle for embedding layers (the execution node folds
  /// reliable-channel counters in before shipping its snapshot).
  obs::MetricsRegistry* mutable_metrics() { return metrics_.get(); }

  /// Telemetry snapshot; empty when metrics are disabled.
  obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_ ? metrics_->snapshot() : obs::MetricsSnapshot{};
  }

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
    /// Skip committing the intermediate store (sole consumer is fused).
    bool elide = false;
  };

  /// Per-kernel resolved schedule. `chunk` is adapted only from analyzer
  /// shard 0 (adapt_granularity) but read by every shard's flush path, so
  /// it is a relaxed atomic: any shard using a slightly stale chunk size
  /// only changes work-item grouping, never correctness.
  struct KernelRunCfg {
    std::atomic<int64_t> chunk{1};
    bool chunk_explicit = false;  ///< user-set; adaptive control skips it
    Age cap = std::numeric_limits<Age>::max();
    const ResolvedFusion* fusion = nullptr;  ///< as upstream
    bool enabled = true;  ///< false: kernel runs on another node

    // The atomic deletes the implicit copy/move; vector::resize needs
    // MoveInsertable even when growing from empty. Only ever invoked
    // before any thread starts.
    KernelRunCfg() = default;
    KernelRunCfg(KernelRunCfg&& other) noexcept
        : chunk(other.chunk.load(std::memory_order_relaxed)),
          chunk_explicit(other.chunk_explicit),
          cap(other.cap),
          fusion(other.fusion),
          enabled(other.enabled) {}
  };

  /// Analyzer-thread hook: revisits chunk sizes from instrumentation.
  void adapt_granularity();

  void setup_metrics();
  void start_sampler();
  /// Stops the sampler, folds its series into the registry and (with
  /// tracing on) into Perfetto counter tracks. Safe to call repeatedly.
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

  /// Routes an event to the analyzer shard owning its state.
  void push_event(Event event);
  /// Enqueues onto a specific shard's queue (cross-shard analyzer
  /// messages, which are addressed explicitly by their sender).
  void push_shard_event(size_t shard, Event event);

  void begin_shutdown();
  void fail(std::exception_ptr error);

  void worker_loop(int worker_index);
  void analyzer_loop(int shard);

  /// Runs all bodies of a work item: fetch prep, body, store commit, fused
  /// downstream execution, instrumentation, done-event emission. Under
  /// metrics or tracing, `start_ns` is the item's start time and the
  /// return value its end time (the bounds of its trace span); otherwise
  /// both are 0.
  int64_t execute(const WorkItem& item, int worker_index, int64_t start_ns);
  void prepare_fetches(KernelContext& ctx);
  /// Commits buffered stores into field storage; appends the store events
  /// to `events` (pushed, possibly coalesced, by execute()). `span_ctx`
  /// is the executing span's identity: events are stamped with it, and a
  /// root span (no inherited frame) adopts the first store's frame id.
  void commit_stores(KernelContext& ctx, const ResolvedFusion* fusion,
                     std::vector<StoreEvent>& events,
                     TraceContext* span_ctx);
  void run_fused_downstream(const KernelContext& up_ctx,
                            const ResolvedFusion& fusion,
                            std::vector<StoreEvent>& events,
                            TraceContext* span_ctx);
  /// Merges runs of events from the same store statement whose regions
  /// tile an exact rectangle (chunked instances over consecutive indices),
  /// then pushes them — cutting analyzer load proportionally to the chunk
  /// size — and emits one flow-start per traced event so consumers can
  /// draw the dependency arrow.
  void push_store_events(std::vector<StoreEvent> events, int worker_index);

  Age cap_of(KernelId kernel) const {
    return kcfg_[static_cast<size_t>(kernel)].cap;
  }

  bool kernel_enabled(KernelId kernel) const {
    return kcfg_[static_cast<size_t>(kernel)].enabled;
  }

  static bool needs_done_event(const KernelDef& def) {
    return def.serial || def.is_source();
  }

  Program program_;
  RunOptions options_;
  std::vector<std::unique_ptr<FieldStorage>> storages_;
  std::vector<KernelRunCfg> kcfg_;
  std::vector<ResolvedFusion> fusions_;

  ReadyQueue ready_;
  /// One lock-free MPSC event queue per analyzer shard (producers: workers
  /// and other shards; consumer: the shard's thread).
  std::vector<std::unique_ptr<MpscQueue<Event>>> event_queues_;
  /// Per-shard thread CPU time, written by each shard thread on exit and
  /// read after join (bench: critical-path analyzer cost).
  std::vector<int64_t> analyzer_cpu_ns_;
  Instrumentation instr_;
  TimerSet timers_;
  std::unique_ptr<TraceCollector> trace_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<DependencyAnalyzer> analyzer_;
  std::atomic<uint64_t> span_seq_{1};
  uint64_t span_salt_ = 0;

  // Telemetry (null when RunOptions::metrics.enabled is false). The raw
  // pointers are hot-path handles resolved once in setup_metrics().
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Sampler> sampler_;
  obs::Histogram* m_dispatch_ns_ = nullptr;
  obs::Histogram* m_kernel_ns_ = nullptr;
  obs::Histogram* m_analyzer_ns_ = nullptr;
  obs::Histogram* m_store_batch_ = nullptr;
  obs::Counter* m_store_bytes_ = nullptr;
  obs::Counter* m_busy_ns_ = nullptr;
  obs::Counter* m_idle_ns_ = nullptr;
  obs::Counter* m_events_ = nullptr;
  /// Per-shard analyzer counters (events handled / cross-shard messages
  /// received), indexed by shard; empty when metrics are off.
  std::vector<obs::Counter*> m_shard_events_;
  std::vector<obs::Counter*> m_shard_xshard_;

  std::atomic<int64_t> outstanding_{0};
  sync::Mutex done_mutex_{"Runtime.done_mutex"};
  sync::CondVar done_cv_{"Runtime.done_cv"};
  bool done_ = false;
  bool started_ = false;

  sync::Mutex error_mutex_{"Runtime.error_mutex"};
  std::exception_ptr error_;
};

}  // namespace p2g
