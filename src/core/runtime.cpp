#include "core/runtime.h"

#include <algorithm>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/context.h"
#include "core/dependency.h"

namespace p2g {

namespace {

/// Minimum spacing of the analyzer's gauge samples.
constexpr int64_t kSamplePeriodNs = 5'000'000;

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware > 0 ? hardware : 2;
}

}  // namespace

Runtime::Runtime(Program program, RunOptions options)
    : program_(std::move(program)),
      options_(std::move(options)),
      workers_(resolve_workers(options_.workers)),
      instr_(program_.kernels().size(), workers_) {
  storages_.reserve(program_.fields().size());
  for (const FieldDecl& decl : program_.fields()) {
    storages_.push_back(std::make_unique<FieldStorage>(decl));
    if (options_.checked) storages_.back()->track_writers(true);
  }
  kcfg_.resize(program_.kernels().size());
  if (options_.trace_path || options_.collect_trace) {
    trace_ = std::make_unique<TraceCollector>();
  } else if (options_.flight_dir) {
    trace_ =
        std::make_unique<TraceCollector>(TraceCollector::kFlightCapacity);
  }
  if (trace_) {
    for (const KernelDef& k : program_.kernels()) {
      kernel_span_names_.push_back(trace_->intern(k.name));
    }
    analyze_span_name_ = trace_->intern("analyze");
  }
  span_salt_ = mix(0x7370616E73616C74ULL,  // "spansalt"
                   hash_str(options_.trace_label.empty()
                                ? std::string_view("p2g")
                                : std::string_view(options_.trace_label)));
  if (options_.metrics.enabled) {
    for (const char* name :
         {"ready_queue_depth", "analyzer_backlog", "field_memory_bytes"}) {
      series_.push_back(obs::TimeSeries{name, {}});
    }
    for (const auto& fs : storages_) {
      series_.push_back(
          obs::TimeSeries{"field_memory_bytes:" + fs->decl().name, {}});
    }
    series_.push_back(obs::TimeSeries{"worker_utilization_pct", {}});
  }
  resolve_options();
  analyzer_ = std::make_unique<DependencyAnalyzer>(*this);
}

Runtime::~Runtime() = default;

void Runtime::sample_gauges(int64_t t_ns) {
  std::vector<int64_t> values{static_cast<int64_t>(ready_.size()),
                              static_cast<int64_t>(events_.size()), 0};
  for (const auto& fs : storages_) {
    values.push_back(static_cast<int64_t>(fs->memory_bytes()));
    values[2] += values.back();
  }
  // Utilization over the interval since the previous sample.
  const auto [busy, idle] = instr_.worker_time();
  const int64_t db = busy - sampled_worker_time_.first;
  const int64_t di = idle - sampled_worker_time_.second;
  values.push_back(db + di > 0 ? 100 * db / (db + di) : 0);
  sampled_worker_time_ = {busy, idle};
  sampled_at_ns_ = t_ns;
  for (size_t i = 0; i < series_.size(); ++i) {
    series_[i].samples.push_back(obs::TimeSeriesSample{t_ns, values[i]});
  }
}

void Runtime::finalize_metrics() {
  if (series_.empty()) return;
  sample_gauges(now_ns());
  if (trace_) {
    for (const obs::TimeSeries& series : series_) {
      for (const obs::TimeSeriesSample& sample : series.samples) {
        trace_->record_counter(TraceCollector::CounterSample{
            series.name, sample.t_ns, sample.value});
      }
    }
  }
  series_closed_.store(true, std::memory_order_release);
}

obs::MetricsSnapshot Runtime::metrics_snapshot() const {
  if (!options_.metrics.enabled) return {};
  obs::MetricsSnapshot snapshot;
  instr_.add_metrics(snapshot);
  if (series_closed_.load(std::memory_order_acquire)) snapshot.series = series_;
  return snapshot;
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
    P2G_CHECK_ARGUMENT(!sched.chunk || *sched.chunk >= 1,
                       "chunk must be >= 1");
    cfg.chunk = sched.chunk;
    if (sched.max_age) cfg.cap = std::min(cfg.cap, *sched.max_age);
  }
  // Serial kernels run one age at a time, and source and run-once kernels
  // have one instance per age: nothing to coarsen.
  for (const KernelDef& k : program_.kernels()) {
    KernelRunCfg& cfg = kcfg_[static_cast<size_t>(k.id)];
    if (!cfg.chunk && (k.serial || k.is_source() || k.is_run_once())) {
      cfg.chunk = 1;
    }
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
  const FusionVerdict v = fusion_verdict(
      program_, up, down,
      down.fetches.size() == 1 ? down.fetches[0].field : kInvalidField);
  P2G_CHECK_ARGUMENT(v.legal, "cannot fuse '" + down.name + "' into '" +
                                  up.name + "': " + v.blocker);
  ResolvedFusion fu;
  fu.upstream = up_id;
  fu.downstream = down_id;
  fu.upstream_store_decl = v.store;
  fu.age_delta = v.age_delta;
  fu.coord_map = v.coord_map;
  fu.elide = v.elidable;
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
  if (!trace_ || !options_.flight_dir) return std::nullopt;
  const std::string label =
      options_.trace_label.empty() ? "p2g" : options_.trace_label;
  const std::string path = *options_.flight_dir + "/flight_" + label +
                           ".json";
  if (!trace_->dump_flight(path, label)) return std::nullopt;
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
  events_.push(std::move(event));
}

void Runtime::begin_shutdown() {
  {
    std::scoped_lock lock(done_mutex_);
    check::write(done_, "Runtime.done");
    done_ = true;
  }
  events_.close();
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
void Runtime::analyzer_loop() {
  Instrumentation::Slot tally = instr_.analyzer();
  // Drain the whole backlog at once, handle it, then settle accounting
  // once. The outstanding units are released only after the batch is fully
  // handled — and the work it created added its units first — so the count
  // never undershoots the real amount of pending work (quiescence stays
  // sound).
  std::deque<Event> batch;
  while (events_.pop_all(batch)) {
    const int64_t start = now_ns();
    const auto n = static_cast<int64_t>(batch.size());
    try {
      analyzer_->handle_batch(batch);
    } catch (...) {
      fail(std::current_exception());
    }
    const int64_t end = now_ns();
    if (trace_) {
      trace_->record(TraceCollector::Record{start, end - start, -1, 0, n,
                                            SpanKind::kAnalyzer,
                                            analyze_span_name_});
    }
    tally.record(Instrumentation::kAnalyzerHandle, end - start);
    tally.add_events(n);
    if (!series_.empty() && end - sampled_at_ns_ >= kSamplePeriodNs) {
      sample_gauges(end);
    }
    complete_outstanding(n);
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Runtime::worker_loop(int worker_index) {
  // One pair of timestamps per work item splits worker time into busy and
  // idle and also bounds the item's trace span, so worker spans add up to
  // busy time exactly; bookkeeping between items counts as idle.
  Instrumentation::Slot tally = instr_.worker(worker_index);
  int64_t wait_start = now_ns();
  std::optional<WorkItem> bonus;
  while (auto item = ready_.pop(bonus)) {
    // The queue hands over a second item when no other worker is waiting;
    // run both before going back to the lock.
    while (item) {
      const int64_t busy_start = now_ns();
      int64_t busy_end = 0;
      try {
        busy_end = execute(*item, worker_index, busy_start);
      } catch (...) {
        fail(std::current_exception());
        complete_outstanding();  // the failed instance's unit
        busy_end = now_ns();
      }
      tally.add_worker_time(busy_end - busy_start, busy_start - wait_start);
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
                            Instrumentation::Slot tally,
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
    tally.add_store_bytes(p.data.element_count() *
                          static_cast<int64_t>(
                              nd::element_size(p.data.type())));
    events.push_back(std::move(event));
  }
}

std::vector<StoreEvent> Runtime::coalesce_store_events(
    std::vector<StoreEvent> events, Instrumentation::Slot tally,
    int worker_index, int64_t flow_ns) {
  std::vector<StoreEvent> out;
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
    // Coalesced store events per analyzer batch — how much chunking
    // relieves the serial analyzer.
    tally.record(Instrumentation::kStoreBatch,
                 static_cast<int64_t>(i - batch_start));
    if (trace_ && merged.ctx.valid()) {
      // Flow start: the arrow's tail, inside the producing span (the span
      // is recorded after this returns, covering this timestamp). The
      // consumer emits the matching finish with the same derived id.
      trace_->record_flow_start(merged.ctx, flow_ns, worker_index);
    }
    out.push_back(std::move(merged));
  }
  return out;
}

int64_t Runtime::run_fused_downstream(const KernelContext& up_ctx,
                                      const ResolvedFusion& fusion,
                                      std::vector<StoreEvent>& events,
                                      Instrumentation::Slot tally,
                                      TraceContext* span_ctx) {
  const KernelContext::PendingStore* feed =
      up_ctx.pending_store(fusion.upstream_store_decl);
  if (feed == nullptr) return 0;  // upstream took an alternate path

  const KernelDef& down = program_.kernel(fusion.downstream);
  nd::Coord coord(fusion.coord_map.size());
  for (size_t v = 0; v < fusion.coord_map.size(); ++v) {
    coord[v] = up_ctx.indices()[fusion.coord_map[v]];
  }
  const Age age = up_ctx.age() + fusion.age_delta;

  KernelContext ctx(down, age, std::move(coord), &timers_);
  // Handed over in memory, no field access and no copy: the pending store
  // outlives the fused body's context.
  ctx.set_fetch(0, nd::ConstView(feed->data.type(), feed->data.extents(),
                                 feed->data.raw(), nullptr));
  const int64_t body_start = now_ns();
  down.body(ctx);
  const int64_t body_end = now_ns();
  // The fused body runs inside the upstream's span; its stores carry the
  // same span identity.
  commit_stores(ctx, kcfg_[static_cast<size_t>(down.id)].fusion, events,
                tally, span_ctx);
  const int64_t end = now_ns();
  tally.add_item(down.id, 1, end - body_end, body_end - body_start);
  return end - body_start;
}

int64_t Runtime::execute(const WorkItem& item, int worker_index,
                         int64_t start_ns) {
  const bool tracing = trace_ != nullptr;
  Instrumentation::Slot tally = instr_.worker(worker_index);
  const KernelDef& def = program_.kernel(item.kernel);
  const ResolvedFusion* fusion = kcfg_[static_cast<size_t>(def.id)].fusion;

  // This span's causal identity: frame inherited from the triggering
  // store (zero for roots until the first store names one), fresh span id.
  TraceContext span_ctx;
  if (tracing) {
    span_ctx.trace_id = item.cause.trace_id;
    span_ctx.span_id = next_span_id();
    if (item.cause.valid()) {
      // Flow finish: the arrow's head, at the top of this span.
      trace_->record_flow_finish(item.cause, start_ns, worker_index);
    }
  }

  // Two clock reads per body bound it; everything else the item spends —
  // fetch prep, store commit, event push — is dispatch time, derived from
  // the item's bounds when it ends.
  int64_t kernel_ns = 0;
  int64_t fused_ns = 0;  // charged to the fused downstream kernel
  int64_t last_body_end = start_ns;
  bool continue_flag = false;
  std::vector<StoreEvent> events;

  for (const nd::Coord& coord : item.coords) {
    KernelContext ctx(def, item.age, coord, &timers_);
    prepare_fetches(ctx);
    const int64_t body_start = now_ns();
    def.body(ctx);
    last_body_end = now_ns();
    kernel_ns += last_body_end - body_start;
    commit_stores(ctx, fusion, events, tally, tracing ? &span_ctx : nullptr);
    if (fusion != nullptr) {
      fused_ns += run_fused_downstream(ctx, *fusion, events, tally,
                                       tracing ? &span_ctx : nullptr);
    }
    if (ctx.continue_requested()) continue_flag = true;
  }
  InstanceDoneEvent done;
  done.kernel = def.id;
  done.age = item.age;
  done.continue_next_age = continue_flag;
  done.probe = item.probe;
  done.stores = coalesce_store_events(std::move(events), tally, worker_index,
                                      last_body_end);

  // Recorded before the done event: a probe's measurement is visible to
  // the analyzer when it handles that event.
  const int64_t end_ns = now_ns();
  const int64_t dispatch_ns = end_ns - start_ns - kernel_ns - fused_ns;
  tally.add_item(def.id, static_cast<int64_t>(item.coords.size()),
                 dispatch_ns, kernel_ns);
  tally.record(Instrumentation::kDispatch, dispatch_ns);
  tally.record(Instrumentation::kBody, kernel_ns);
  // One push per item: its stores and its completion.
  push_event(std::move(done));
  complete_outstanding();

  // Recording after complete_outstanding() is safe: shutdown joins this
  // worker first.
  if (tracing) {
    trace_->record(TraceCollector::Record{
        start_ns, end_ns - start_ns, worker_index, item.age,
        static_cast<int64_t>(item.coords.size()), SpanKind::kWorker,
        kernel_span_names_[static_cast<size_t>(def.id)], span_ctx.trace_id,
        span_ctx.span_id, item.cause.span_id});
  }
  return end_ns;
}

RunReport Runtime::run() {
  P2G_CHECK_ARGUMENT(!started_, "Runtime::run() may only be called once");
  started_ = true;

  Stopwatch stopwatch;
  analyzer_->bootstrap();
  bootstrapped_.store(true);

  RunReport report;
  if (outstanding_.load() == 0 && !options_.keep_alive) {
    // Nothing to run (no run-once or source kernels).
    report.wall_s = stopwatch.elapsed_s();
    report.instrumentation = instrumentation();
    report.metrics = metrics_snapshot();
    return report;
  }

  if (!series_.empty()) sample_gauges(now_ns());
  std::thread analyzer_thread([this] { analyzer_loop(); });
  std::vector<std::thread> worker_threads;
  worker_threads.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
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

  analyzer_thread.join();
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
