#include "core/runtime.h"

#include <algorithm>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/context.h"
#include "core/dependency.h"

namespace p2g {

Runtime::Runtime(Program program, RunOptions options)
    : program_(std::move(program)),
      options_(std::move(options)),
      ready_(options_.age_priority),
      instr_(program_.kernels().size()) {
  storages_.reserve(program_.fields().size());
  for (const FieldDecl& decl : program_.fields()) {
    storages_.push_back(std::make_unique<FieldStorage>(decl));
    if (options_.checked) storages_.back()->track_writers(true);
  }
  kcfg_.resize(program_.kernels().size());
  if (options_.trace_path || options_.collect_trace) {
    trace_ = std::make_unique<TraceCollector>();
  }
  if (options_.flight_recorder) {
    flight_ = std::make_unique<FlightRecorder>();
  }
  span_salt_ = mix(0x7370616E73616C74ULL,  // "spansalt"
                   hash_str(options_.trace_label.empty()
                                ? std::string_view("p2g")
                                : std::string_view(options_.trace_label)));
  if (options_.metrics.enabled) setup_metrics();
  resolve_options();
  analyzer_ =
      std::make_unique<DependencyAnalyzer>(*this, options_.analyzer_shards);
  const size_t nshards = analyzer_->shard_count();
  event_queues_.reserve(nshards);
  for (size_t i = 0; i < nshards; ++i) {
    event_queues_.push_back(std::make_unique<MpscQueue<Event>>());
  }
  analyzer_cpu_ns_.assign(nshards, 0);
}

Runtime::~Runtime() = default;

void Runtime::setup_metrics() {
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  m_dispatch_ns_ = &metrics_->histogram("dispatch_latency_ns");
  m_kernel_ns_ = &metrics_->histogram("kernel_body_ns");
  m_analyzer_ns_ = &metrics_->histogram("analyzer_handle_ns");
  m_store_batch_ = &metrics_->histogram("store_batch_events");
  m_store_bytes_ = &metrics_->counter("store_commit_bytes_total");
  m_busy_ns_ = &metrics_->counter("worker_busy_ns_total");
  m_idle_ns_ = &metrics_->counter("worker_idle_ns_total");
  m_events_ = &metrics_->counter("analyzer_events_total");
  // Per-shard analyzer counters (setup_metrics runs before the analyzer is
  // constructed, so clamp the shard count from the options directly).
  const int nshards = std::clamp(options_.analyzer_shards, 1, 64);
  m_shard_events_.reserve(static_cast<size_t>(nshards));
  m_shard_xshard_.reserve(static_cast<size_t>(nshards));
  for (int i = 0; i < nshards; ++i) {
    const std::string suffix = ":shard" + std::to_string(i);
    m_shard_events_.push_back(
        &metrics_->counter("analyzer_events_total" + suffix));
    m_shard_xshard_.push_back(
        &metrics_->counter("analyzer_xshard_msgs_total" + suffix));
  }
}

void Runtime::start_sampler() {
  sampler_ = std::make_unique<obs::Sampler>(
      std::chrono::milliseconds(options_.metrics.sample_period_ms));
  sampler_->add_source("ready_queue_depth", [this] {
    return static_cast<int64_t>(ready_.size());
  });
  sampler_->add_source("analyzer_backlog", [this] {
    int64_t total = 0;
    for (const auto& q : event_queues_) {
      total += static_cast<int64_t>(q->size());
    }
    return total;
  });
  for (size_t i = 0; i < event_queues_.size(); ++i) {
    sampler_->add_source("analyzer_backlog:shard" + std::to_string(i),
                         [raw = event_queues_[i].get()] {
                           return static_cast<int64_t>(raw->size());
                         });
  }
  sampler_->add_source("field_memory_bytes", [this] {
    int64_t total = 0;
    for (const auto& fs : storages_) {
      total += static_cast<int64_t>(fs->memory_bytes());
    }
    return total;
  });
  for (const auto& fs : storages_) {
    sampler_->add_source(
        "field_memory_bytes:" + fs->decl().name,
        [raw = fs.get()] {
          return static_cast<int64_t>(raw->memory_bytes());
        });
  }
  // Utilization over the last sampling interval (sampler thread only).
  sampler_->add_source(
      "worker_utilization_pct",
      [this, busy = int64_t{0}, idle = int64_t{0}]() mutable {
        const int64_t b = m_busy_ns_->value();
        const int64_t i = m_idle_ns_->value();
        const int64_t db = b - busy;
        const int64_t di = i - idle;
        busy = b;
        idle = i;
        return db + di > 0 ? 100 * db / (db + di) : int64_t{0};
      });
  sampler_->start();
}

void Runtime::finalize_metrics() {
  if (!sampler_) return;
  sampler_->stop();
  for (obs::TimeSeries& series : sampler_->take_series()) {
    if (trace_) {
      for (const obs::TimeSeriesSample& sample : series.samples) {
        trace_->record_counter(TraceCollector::CounterSample{
            series.name, sample.t_ns, sample.value});
      }
    }
    metrics_->add_series(std::move(series));
  }
  sampler_.reset();
}

void Runtime::resolve_options() {
  const Age global_cap = options_.max_age.value_or(
      std::numeric_limits<Age>::max());
  for (const KernelDef& k : program_.kernels()) {
    KernelRunCfg& cfg = kcfg_[static_cast<size_t>(k.id)];
    cfg.cap = global_cap;
  }
  for (const std::string& name : options_.disabled_kernels) {
    const KernelId id = program_.find_kernel(name);
    P2G_CHECK_ARGUMENT(id != kInvalidKernel,
                       "disabled_kernels lists unknown kernel '" + name + "'");
    kcfg_[static_cast<size_t>(id)].enabled = false;
  }
  for (const auto& [name, sched] : options_.kernel_schedules) {
    const KernelId id = program_.find_kernel(name);
    P2G_CHECK_ARGUMENT(id != kInvalidKernel,
                       "kernel schedule for unknown kernel '" + name + "'");
    KernelRunCfg& cfg = kcfg_[static_cast<size_t>(id)];
    P2G_CHECK_ARGUMENT(sched.chunk >= 1, "chunk must be >= 1");
    cfg.chunk = sched.chunk;
    cfg.chunk_explicit = sched.chunk != 1;
    if (sched.max_age) cfg.cap = std::min(cfg.cap, *sched.max_age);
  }
  fusions_.reserve(options_.fusions.size());
  for (const FusionRule& rule : options_.fusions) {
    resolve_fusion(rule);
  }
  for (const ResolvedFusion& fu : fusions_) {
    KernelRunCfg& cfg = kcfg_[static_cast<size_t>(fu.upstream)];
    P2G_CHECK_ARGUMENT(cfg.fusion == nullptr,
                       "kernel '" + program_.kernel(fu.upstream).name +
                           "' is upstream of more than one fusion");
    cfg.fusion = &fu;
  }
  // No fusion chains: a downstream kernel may not be fused into, or be the
  // upstream of, another fusion (the dispatched-set marking would race).
  for (const ResolvedFusion& fu : fusions_) {
    P2G_CHECK_ARGUMENT(
        kcfg_[static_cast<size_t>(fu.downstream)].fusion == nullptr,
        "fusion chains are not supported ('" +
            program_.kernel(fu.downstream).name +
            "' is both downstream and upstream)");
    int as_downstream = 0;
    for (const ResolvedFusion& other : fusions_) {
      if (other.downstream == fu.downstream) ++as_downstream;
    }
    P2G_CHECK_ARGUMENT(as_downstream == 1,
                       "kernel '" + program_.kernel(fu.downstream).name +
                           "' is downstream of more than one fusion");
  }
}

void Runtime::resolve_fusion(const FusionRule& rule) {
  const KernelId up_id = program_.find_kernel(rule.upstream);
  const KernelId down_id = program_.find_kernel(rule.downstream);
  P2G_CHECK_ARGUMENT(up_id != kInvalidKernel && down_id != kInvalidKernel,
                     "fusion references unknown kernel(s) '" + rule.upstream +
                         "' -> '" + rule.downstream + "'");
  const KernelDef& up = program_.kernel(up_id);
  const KernelDef& down = program_.kernel(down_id);

  P2G_CHECK_ARGUMENT(!down.serial && !down.is_source() && !down.is_run_once(),
                     "fusion downstream '" + down.name +
                         "' must be a plain data-parallel kernel");
  P2G_CHECK_ARGUMENT(down.fetches.size() == 1,
                     "fusion downstream '" + down.name +
                         "' must have exactly one fetch");
  const FetchDecl& df = down.fetches[0];
  P2G_CHECK_ARGUMENT(df.slice.is_elementwise() &&
                         df.age.kind == AgeExpr::Kind::kRelative,
                     "fusion downstream fetch must be elementwise with a "
                     "relative age");

  // Find the upstream store feeding that fetch.
  const StoreDecl* matched = nullptr;
  size_t matched_index = 0;
  for (size_t s = 0; s < up.stores.size(); ++s) {
    const StoreDecl& d = up.stores[s];
    if (d.field != df.field) continue;
    if (!d.slice.is_elementwise() || d.age.kind != AgeExpr::Kind::kRelative) {
      continue;
    }
    if (d.slice.dims().size() != df.slice.dims().size()) continue;
    bool compatible = true;
    for (size_t i = 0; i < d.slice.dims().size() && compatible; ++i) {
      const nd::SliceDim& a = d.slice.dims()[i];
      const nd::SliceDim& b = df.slice.dims()[i];
      if (a.kind != b.kind) compatible = false;
      if (a.kind == nd::SliceDim::Kind::kConst && a.value != b.value) {
        compatible = false;
      }
    }
    if (compatible) {
      matched = &d;
      matched_index = s;
      break;
    }
  }
  P2G_CHECK_ARGUMENT(matched != nullptr,
                     "fusion: no elementwise store of '" + up.name +
                         "' matches the fetch of '" + down.name + "'");

  ResolvedFusion fu;
  fu.upstream = up_id;
  fu.downstream = down_id;
  fu.upstream_store_decl = matched_index;
  fu.age_delta = matched->age.value - df.age.value;

  // Per-dimension variable correspondence: downstream var at dim i takes
  // the value of the upstream var at dim i.
  fu.coord_map.assign(down.index_vars.size(), SIZE_MAX);
  for (size_t i = 0; i < df.slice.dims().size(); ++i) {
    if (df.slice.dims()[i].kind == nd::SliceDim::Kind::kVar) {
      fu.coord_map[static_cast<size_t>(df.slice.dims()[i].var)] =
          static_cast<size_t>(matched->slice.dims()[i].var);
    }
  }
  for (size_t v = 0; v < fu.coord_map.size(); ++v) {
    P2G_CHECK_ARGUMENT(fu.coord_map[v] != SIZE_MAX,
                       "fusion: downstream index variable '" +
                           down.index_vars[v] + "' is not covered by the fused "
                           "fetch");
  }

  // The intermediate store can be elided when the fused downstream is the
  // field's only consumer (paper: "storing to m_data could be circumvented
  // in its entirety").
  const auto& consumers = program_.consumers_of(df.field);
  fu.elide = consumers.size() == 1 && consumers[0].kernel == down_id;

  fusions_.push_back(std::move(fu));
}

FieldStorage& Runtime::storage(FieldId field) {
  P2G_CHECK_ARGUMENT(field >= 0 &&
                         static_cast<size_t>(field) < storages_.size(),
                     "unknown field id");
  return *storages_[static_cast<size_t>(field)];
}

FieldStorage& Runtime::storage(std::string_view field_name) {
  const FieldId id = program_.find_field(field_name);
  P2G_CHECK_ARGUMENT(id != kInvalidField,
                     "unknown field '" + std::string(field_name) + "'");
  return storage(id);
}

InstrumentationReport Runtime::instrumentation() const {
  return instr_.snapshot(program_);
}

int64_t Runtime::certified_skips() const {
  return analyzer_ ? analyzer_->certified_skip_count() : 0;
}

void Runtime::complete_outstanding(int64_t n) {
  if (outstanding_.fetch_sub(n) == n && !options_.keep_alive) {
    begin_shutdown();
  }
}

int64_t Runtime::inject_store(FieldId field, Age age,
                              const nd::Region& region, KernelId producer,
                              size_t store_decl, bool whole,
                              const std::byte* payload, bool fill,
                              const TraceContext& ctx) {
  int64_t fresh;
  if (fill) {
    fresh = storage(field).store_fill(age, region, payload);
    // A pure duplicate (retransmitted forward, replayed store, checkpoint
    // already covered) changes nothing: the analyzer has seen this event.
    if (fresh == 0) return 0;
  } else {
    StoreOrigin origin;
    origin.kernel = producer != kInvalidKernel
                        ? program_.kernel(producer).name
                        : std::string("injected");
    origin.age = age;
    storage(field).store(age, region, payload, &origin);
    fresh = region.element_count();
  }
  StoreEvent event;
  event.field = field;
  event.age = age;
  event.region = region;
  event.producer = producer;
  event.store_decl = store_decl;
  event.whole = whole;
  event.ctx = ctx;
  push_event(std::move(event));
  return fresh;
}

int64_t Runtime::inject_store_view(FieldId field, Age age,
                                   const nd::Region& region,
                                   KernelId producer, size_t store_decl,
                                   bool whole, const nd::ConstView& view,
                                   bool* adopted, const TraceContext& ctx) {
  bool did_adopt = false;
  if (whole && view.is_contiguous() &&
      region == nd::Region::whole(view.extents())) {
    did_adopt = storage(field).adopt_whole(age, view);
  }
  if (!did_adopt) {
    StoreOrigin origin;
    origin.kernel = producer != kInvalidKernel
                        ? program_.kernel(producer).name
                        : std::string("injected");
    origin.age = age;
    if (view.is_contiguous()) {
      storage(field).store(age, region, view.raw(), &origin);
    } else {
      const nd::AnyBuffer packed = view.materialize();
      storage(field).store(age, region, packed.raw(), &origin);
    }
  }
  if (adopted != nullptr) *adopted = did_adopt;
  StoreEvent event;
  event.field = field;
  event.age = age;
  event.region = region;
  event.producer = producer;
  event.store_decl = store_decl;
  event.whole = whole;
  event.ctx = ctx;
  push_event(std::move(event));
  return region.element_count();
}

std::optional<std::string> Runtime::dump_flight() const {
  if (!flight_ || !options_.flight_dir) return std::nullopt;
  const std::string label =
      options_.trace_label.empty() ? "p2g" : options_.trace_label;
  const std::string path = *options_.flight_dir + "/flight_" + label +
                           ".json";
  if (!flight_->dump_file(path, label)) return std::nullopt;
  return path;
}

void Runtime::enable_kernel(const std::string& name) {
  const KernelId id = program_.find_kernel(name);
  P2G_CHECK_ARGUMENT(id != kInvalidKernel,
                     "enable_kernel: unknown kernel '" + name + "'");
  RescanEvent event;
  event.kernel = id;
  push_event(event);
}

void Runtime::submit(WorkItem item, bool already_counted) {
  if (!already_counted) add_outstanding(1);
  ready_.push(std::move(item));
}

void Runtime::submit_batch(std::vector<WorkItem> items) {
  if (items.empty()) return;
  add_outstanding(static_cast<int64_t>(items.size()));
  ready_.push_batch(std::move(items));
}

void Runtime::push_event(Event event) {
  add_outstanding(1);
  const size_t shard = analyzer_->shard_of(event);
  event_queues_[shard]->push(std::move(event));
}

void Runtime::push_shard_event(size_t shard, Event event) {
  // The outstanding unit is added before the sending shard releases its own
  // event's unit, so the quiescence count never undershoots.
  add_outstanding(1);
  if (!m_shard_xshard_.empty()) m_shard_xshard_[shard]->add(1);
  event_queues_[shard]->push(std::move(event));
}

void Runtime::adapt_granularity() {
  if (!options_.adaptive_chunking) return;
  constexpr int64_t kMaxChunk = 256;
  const InstrumentationReport report = instr_.snapshot(program_);
  for (const KernelDef& k : program_.kernels()) {
    KernelRunCfg& cfg = kcfg_[static_cast<size_t>(k.id)];
    const int64_t chunk = cfg.chunk.load(std::memory_order_relaxed);
    if (cfg.chunk_explicit || chunk >= kMaxChunk) continue;
    if (k.serial || k.is_source() || k.is_run_once()) continue;
    const KernelStats* stats = report.find(k.name);
    if (stats == nullptr || stats->dispatches < 64) continue;
    // Dispatch-bound kernels get coarser slices (Fig. 4, Age=2).
    if (stats->avg_dispatch_us() > stats->avg_kernel_us()) {
      const int64_t grown = std::min<int64_t>(chunk * 2, kMaxChunk);
      cfg.chunk.store(grown, std::memory_order_relaxed);
      P2G_DEBUGC("runtime") << "adaptive LLS: kernel '" << k.name
                            << "' chunk -> " << grown;
    }
  }
}

void Runtime::begin_shutdown() {
  {
    std::scoped_lock lock(done_mutex_);
    check::write(done_, "Runtime.done");
    done_ = true;
  }
  for (const auto& q : event_queues_) q->close();
  ready_.close();
  done_cv_.notify_all();
}

void Runtime::fail(std::exception_ptr error) {
  bool first_error = false;
  {
    std::scoped_lock lock(error_mutex_);
    check::write(error_, "Runtime.error");
    if (!error_) {
      error_ = std::move(error);
      first_error = true;
    }
  }
  // Fatal errors leave a postmortem: the first failure dumps the flight
  // recorder before shutdown tears the timeline down.
  if (first_error) dump_flight();
  begin_shutdown();
}

// GCC 12 falsely flags the moved-from variant inside the inlined
// MpscQueue::pop (-Wmaybe-uninitialized, PR 105562 family).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void Runtime::analyzer_loop(int shard) {
  // now_ns() only when somebody consumes the timestamps: two clock reads
  // per event were measurable overhead on event-dense runs.
  const bool timed = trace_ != nullptr || metrics_ != nullptr;
  MpscQueue<Event>& queue = *event_queues_[static_cast<size_t>(shard)];
  // Trace lane: shard 0 keeps the classic "analyzer" lane (-1); further
  // shards get lanes below the service threads (-2 net, -3 retry).
  const int lane = shard == 0 ? -1 : -10 - shard;
  obs::Counter* shard_events =
      m_shard_events_.empty() ? nullptr
                              : m_shard_events_[static_cast<size_t>(shard)];
  const int64_t cpu_start = thread_cpu_ns();

  if (!options_.analyzer_batch) {
    // Ablation baseline: one event per queue round trip.
    while (auto event = queue.pop()) {
      const int64_t start = timed ? now_ns() : 0;
      try {
        analyzer_->handle(static_cast<size_t>(shard), *event);
      } catch (...) {
        fail(std::current_exception());
      }
      if (timed) {
        const int64_t end = now_ns();
        if (trace_) {
          trace_->record(TraceCollector::Span{"analyze", start, end - start,
                                              lane, 0, 0,
                                              SpanKind::kAnalyzer, 0, 0, 0});
        }
        if (metrics_) {
          m_analyzer_ns_->record(end - start);
          m_events_->add(1);
          if (shard_events != nullptr) shard_events->add(1);
        }
      }
      complete_outstanding();
    }
  } else {
    // Batched: drain the whole backlog at once, handle it, then settle
    // accounting once. The outstanding units are released only after the
    // batch is fully handled — and any cross-shard messages it produced
    // added their units first — so the count never undershoots the real
    // amount of pending work (quiescence stays sound).
    std::deque<Event> batch;
    while (queue.pop_all(batch)) {
      const int64_t start = timed ? now_ns() : 0;
      const auto n = static_cast<int64_t>(batch.size());
      try {
        analyzer_->handle_batch(static_cast<size_t>(shard), batch);
      } catch (...) {
        fail(std::current_exception());
      }
      if (timed) {
        const int64_t end = now_ns();
        if (trace_) {
          trace_->record(TraceCollector::Span{"analyze", start, end - start,
                                              lane, 0, n,
                                              SpanKind::kAnalyzer, 0, 0, 0});
        }
        if (metrics_) {
          m_analyzer_ns_->record(end - start);
          m_events_->add(n);
          if (shard_events != nullptr) shard_events->add(n);
        }
      }
      complete_outstanding(n);
    }
  }

  analyzer_cpu_ns_[static_cast<size_t>(shard)] = thread_cpu_ns() - cpu_start;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Runtime::worker_loop(int worker_index) {
  // One pair of timestamps per work item splits worker time into busy and
  // idle and also bounds the item's trace span, so worker spans add up to
  // busy time exactly; bookkeeping between items counts as idle.
  const bool timed = metrics_ || trace_ || flight_;
  int64_t wait_start = timed ? now_ns() : 0;
  std::optional<WorkItem> bonus;
  while (auto item = ready_.pop(bonus)) {
    // The queue hands over a second item when no other worker is waiting;
    // run both before going back to the lock.
    while (item) {
      const int64_t busy_start = timed ? now_ns() : 0;
      int64_t busy_end = 0;
      try {
        busy_end = execute(*item, worker_index, busy_start);
      } catch (...) {
        fail(std::current_exception());
        complete_outstanding();  // the failed instance's unit
        busy_end = timed ? now_ns() : 0;
      }
      if (metrics_) {
        m_idle_ns_->add(busy_start - wait_start);
        m_busy_ns_->add(busy_end - busy_start);
      }
      wait_start = busy_end;
      item = std::move(bonus);
      bonus.reset();
    }
  }
}

void Runtime::prepare_fetches(KernelContext& ctx) {
  const KernelDef& def = ctx.def();
  for (size_t i = 0; i < def.fetches.size(); ++i) {
    const FetchDecl& f = def.fetches[i];
    const Age ga = f.age.resolve(ctx.age());
    P2G_CHECK_INTERNAL(ga >= 0, "dispatched instance with negative fetch age");
    FieldStorage& fs = storage(f.field);
    if (f.slice.is_whole()) {
      // Whole fetches only dispatch once the age is complete (hence
      // sealed), so the view path always hits: zero-copy.
      if (auto view = fs.try_fetch_view_whole(ga)) {
        ctx.set_fetch(i, std::move(*view));
      } else {
        ctx.set_fetch(i, fs.fetch_whole(ga));
      }
    } else {
      const nd::Region region = f.slice.resolve(ctx.indices(),
                                                fs.extents(ga));
      // Elementwise fetches can be satisfied before the age seals (the
      // buffer may still be reallocated by implicit resizing) — copy then.
      if (auto view = fs.try_fetch_view(ga, region)) {
        ctx.set_fetch(i, std::move(*view));
      } else {
        ctx.set_fetch(i, fs.fetch(ga, region));
      }
    }
  }
}

void Runtime::commit_stores(KernelContext& ctx, const ResolvedFusion* fusion,
                            std::vector<StoreEvent>& events,
                            TraceContext* span_ctx) {
  const KernelDef& def = ctx.def();
  for (const KernelContext::PendingStore& p : ctx.pending_stores()) {
    if (fusion != nullptr && p.decl == fusion->upstream_store_decl &&
        fusion->elide) {
      continue;  // intermediate field circumvented entirely
    }
    const StoreDecl& d = def.stores[p.decl];
    const FieldDecl& fd = program_.field(d.field);
    P2G_CHECK_ARGUMENT(p.data.type() == fd.type,
                       "kernel '" + def.name + "' stored " +
                           std::string(nd::to_string(p.data.type())) +
                           " into field '" + fd.name + "' of type " +
                           std::string(nd::to_string(fd.type)));
    const Age ga = d.age.resolve(ctx.age());
    P2G_CHECK_ARGUMENT(ga >= 0, "kernel '" + def.name +
                                    "' stored to a negative age");
    FieldStorage& fs = storage(d.field);
    StoreOrigin origin;
    origin.kernel = def.name;
    origin.age = ctx.age();
    origin.indices = ctx.indices();

    StoreEvent event;
    event.field = d.field;
    event.age = ga;
    event.producer = def.id;
    event.store_decl = p.decl;

    if (d.slice.is_whole()) {
      P2G_CHECK_ARGUMENT(p.data.extents().rank() == fd.rank,
                         "kernel '" + def.name + "' whole-store rank mismatch "
                         "on field '" + fd.name + "'");
      if (options_.idempotent_stores) {
        fs.store_fill(ga, nd::Region::whole(p.data.extents()), p.data.raw());
      } else {
        fs.store_whole(ga, p.data, &origin);
      }
      event.region = nd::Region::whole(p.data.extents());
      event.whole = true;
    } else {
      // Resolve the target region: index variables and constants from the
      // declaration, all() dimensions from the payload's shape.
      const auto& dims = d.slice.dims();
      const size_t all_count = static_cast<size_t>(
          std::count_if(dims.begin(), dims.end(), [](const nd::SliceDim& sd) {
            return sd.kind == nd::SliceDim::Kind::kAll;
          }));
      const bool payload_is_field_shaped =
          p.data.extents().rank() == dims.size();
      P2G_CHECK_ARGUMENT(
          all_count == 0 || payload_is_field_shaped ||
              p.data.extents().rank() == all_count,
          "kernel '" + def.name + "': payload rank does not determine the "
          "all() dimensions of the store to '" + fd.name + "'");

      std::vector<nd::Interval> intervals(dims.size());
      size_t next_all = 0;
      for (size_t i = 0; i < dims.size(); ++i) {
        switch (dims[i].kind) {
          case nd::SliceDim::Kind::kVar: {
            const int64_t v =
                ctx.indices()[static_cast<size_t>(dims[i].var)];
            intervals[i] = nd::Interval{v, v + 1};
            break;
          }
          case nd::SliceDim::Kind::kConst:
            intervals[i] = nd::Interval{dims[i].value, dims[i].value + 1};
            break;
          case nd::SliceDim::Kind::kAll: {
            const int64_t len =
                payload_is_field_shaped
                    ? p.data.extents().dim(i)
                    : p.data.extents().dim(next_all++);
            intervals[i] = nd::Interval{0, len};
            break;
          }
        }
      }
      nd::Region region(std::move(intervals));
      P2G_CHECK_ARGUMENT(region.element_count() == p.data.element_count(),
                         "kernel '" + def.name + "': payload holds " +
                             std::to_string(p.data.element_count()) +
                             " elements but the store region " +
                             region.to_string() + " needs " +
                             std::to_string(region.element_count()));
      if (options_.idempotent_stores) {
        fs.store_fill(ga, region, p.data.raw());
      } else {
        fs.store(ga, region, p.data.raw(), &origin);
      }
      event.region = std::move(region);
    }
    if (span_ctx != nullptr && span_ctx->span_id != 0) {
      // A root span (source kernel, no inherited frame) starts a new
      // frame: its first store names the (field, age) the chain is about.
      if (span_ctx->trace_id == 0) {
        span_ctx->trace_id = frame_trace_id(event.field, event.age);
      }
      event.ctx = *span_ctx;
    }
    if (options_.store_tap) options_.store_tap(event);
    if (m_store_bytes_ != nullptr) {
      m_store_bytes_->add(p.data.element_count() *
                          static_cast<int64_t>(
                              nd::element_size(p.data.type())));
    }
    events.push_back(std::move(event));
  }
}

void Runtime::push_store_events(std::vector<StoreEvent> events,
                                int worker_index) {
  size_t i = 0;
  while (i < events.size()) {
    const size_t batch_start = i;
    StoreEvent merged = std::move(events[i]);
    if (!merged.whole) {
      nd::Region box = merged.region;
      int64_t covered = box.element_count();
      size_t j = i + 1;
      while (j < events.size()) {
        const StoreEvent& next = events[j];
        if (next.whole || next.field != merged.field ||
            next.age != merged.age || next.producer != merged.producer ||
            next.store_decl != merged.store_decl) {
          break;
        }
        const nd::Region candidate = box.bounding_union(next.region);
        const int64_t grown = covered + next.region.element_count();
        if (candidate.element_count() != grown) break;  // not a clean tile
        box = candidate;
        covered = grown;
        ++j;
      }
      merged.region = std::move(box);
      i = j;
    } else {
      ++i;
    }
    if (m_store_batch_ != nullptr) {
      // Coalesced store events per analyzer batch — how much chunking
      // relieves the serial analyzer.
      m_store_batch_->record(static_cast<int64_t>(i - batch_start));
    }
    if (trace_ && merged.ctx.valid()) {
      // Flow start: the arrow's tail, inside the producing span (the span
      // is recorded after this returns, covering this timestamp). The
      // consumer emits the matching finish with the same derived id.
      trace_->record_flow_start(merged.ctx, now_ns(), worker_index);
    }
    push_event(std::move(merged));
  }
}

void Runtime::run_fused_downstream(const KernelContext& up_ctx,
                                   const ResolvedFusion& fusion,
                                   std::vector<StoreEvent>& events,
                                   TraceContext* span_ctx) {
  const KernelContext::PendingStore* feed =
      up_ctx.pending_store(fusion.upstream_store_decl);
  if (feed == nullptr) return;  // upstream took an alternate path

  const KernelDef& down = program_.kernel(fusion.downstream);
  nd::Coord coord(fusion.coord_map.size());
  for (size_t v = 0; v < fusion.coord_map.size(); ++v) {
    coord[v] = up_ctx.indices()[fusion.coord_map[v]];
  }
  const Age age = up_ctx.age() + fusion.age_delta;

  int64_t dispatch_ns = 0;
  int64_t kernel_ns = 0;
  KernelContext ctx(down, age, std::move(coord), &timers_);
  {
    ScopedTimerNs t(dispatch_ns);
    // Handed over in memory, no field access and no copy: the pending
    // store outlives the fused body's context.
    ctx.set_fetch(0, nd::ConstView(feed->data.type(), feed->data.extents(),
                                   feed->data.raw(), nullptr));
  }
  {
    ScopedTimerNs t(kernel_ns);
    down.body(ctx);
  }
  {
    ScopedTimerNs t(dispatch_ns);
    // The fused body runs inside the upstream's span; its stores carry
    // the same span identity.
    commit_stores(ctx, kcfg_[static_cast<size_t>(down.id)].fusion, events,
                  span_ctx);
  }
  instr_.record(down.id, dispatch_ns, 1, kernel_ns);
}

int64_t Runtime::execute(const WorkItem& item, int worker_index,
                         int64_t start_ns) {
  const bool tracing = trace_ != nullptr || flight_ != nullptr;
  const KernelDef& def = program_.kernel(item.kernel);
  const ResolvedFusion* fusion = kcfg_[static_cast<size_t>(def.id)].fusion;

  // This span's causal identity: frame inherited from the triggering
  // store (zero for roots until the first store names one), fresh span id.
  TraceContext span_ctx;
  if (tracing) {
    span_ctx.trace_id = item.cause.trace_id;
    span_ctx.span_id = next_span_id();
    if (trace_ && item.cause.valid()) {
      // Flow finish: the arrow's head, at the top of this span.
      trace_->record_flow_finish(item.cause, start_ns, worker_index);
    }
  }

  int64_t dispatch_ns = 0;
  int64_t kernel_ns = 0;
  int64_t bodies = 0;
  bool continue_flag = false;
  std::vector<StoreEvent> events;

  for (const nd::Coord& coord : item.coords) {
    KernelContext ctx(def, item.age, coord, &timers_);
    {
      ScopedTimerNs t(dispatch_ns);
      prepare_fetches(ctx);
    }
    {
      ScopedTimerNs t(kernel_ns);
      def.body(ctx);
    }
    ++bodies;
    {
      ScopedTimerNs t(dispatch_ns);
      commit_stores(ctx, fusion, events, tracing ? &span_ctx : nullptr);
    }
    if (fusion != nullptr) {
      run_fused_downstream(ctx, *fusion, events,
                           tracing ? &span_ctx : nullptr);
    }
    if (ctx.continue_requested()) continue_flag = true;
  }

  {
    ScopedTimerNs t(dispatch_ns);
    push_store_events(std::move(events), worker_index);
  }
  instr_.record(def.id, dispatch_ns, bodies, kernel_ns);
  if (metrics_) {
    m_dispatch_ns_->record(dispatch_ns);
    m_kernel_ns_->record(kernel_ns);
  }
  if (needs_done_event(def)) {
    InstanceDoneEvent done;
    done.kernel = def.id;
    done.age = item.age;
    done.continue_next_age = continue_flag;
    push_event(done);
  }
  complete_outstanding();

  // The span covers the whole work item, completion accounting included.
  // Recording after complete_outstanding() is safe: shutdown joins this
  // worker first.
  const int64_t end_ns = tracing || metrics_ ? now_ns() : 0;
  if (tracing) {
    const int64_t duration = end_ns - start_ns;
    if (trace_) {
      trace_->record(TraceCollector::Span{
          def.name, start_ns, duration, worker_index, item.age, bodies,
          SpanKind::kWorker, span_ctx.trace_id, span_ctx.span_id,
          item.cause.span_id});
    }
    if (flight_) {
      flight_->record(def.name, SpanKind::kWorker, start_ns, duration,
                      worker_index, item.cause, span_ctx.span_id, item.age);
    }
  }
  return end_ns;
}

RunReport Runtime::run() {
  P2G_CHECK_ARGUMENT(!started_, "Runtime::run() may only be called once");
  started_ = true;

  Stopwatch stopwatch;
  analyzer_->bootstrap();

  RunReport report;
  if (outstanding_.load() == 0 && !options_.keep_alive) {
    // Nothing to run (no run-once or source kernels).
    report.wall_s = stopwatch.elapsed_s();
    report.instrumentation = instrumentation();
    report.metrics = metrics_snapshot();
    return report;
  }

  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 2;
  }

  if (metrics_) start_sampler();
  const size_t nshards = analyzer_->shard_count();
  std::vector<std::thread> analyzer_threads;
  analyzer_threads.reserve(nshards);
  for (size_t i = 0; i < nshards; ++i) {
    analyzer_threads.emplace_back(
        [this, i] { analyzer_loop(static_cast<int>(i)); });
  }
  std::vector<std::thread> worker_threads;
  worker_threads.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_threads.emplace_back([this, i] { worker_loop(i); });
  }

  {
    std::unique_lock lock(done_mutex_);
    if (options_.watchdog) {
      if (!done_cv_.wait_for(lock, *options_.watchdog,
                             [&] { return done_; })) {
        report.timed_out = true;
        P2G_WARNC("runtime") << "watchdog expired; aborting run";
      }
    } else {
      done_cv_.wait(lock, [&] { return done_; });
    }
  }
  if (report.timed_out) begin_shutdown();

  for (std::thread& t : analyzer_threads) t.join();
  for (std::thread& t : worker_threads) t.join();

  // Flush all telemetry *before* propagating a worker error or returning
  // the watchdog-timeout report: failed and hung runs are exactly the
  // ones whose trace/metrics matter most.
  finalize_metrics();
  report.wall_s = stopwatch.elapsed_s();
  report.instrumentation = instrumentation();
  report.metrics = metrics_snapshot();

  std::exception_ptr error;
  {
    std::scoped_lock lock(error_mutex_);
    error = error_;
  }

  if (trace_ && options_.trace_path) {
    if (error) {
      // Best effort: an I/O failure must not mask the run's real error.
      try {
        trace_->write_file(*options_.trace_path);
      } catch (const std::exception& e) {
        P2G_WARNC("runtime") << "failed to write trace after run error: "
                             << e.what();
      }
    } else {
      trace_->write_file(*options_.trace_path);
    }
  }

  if (error) std::rethrow_exception(error);
  return report;
}

}  // namespace p2g
