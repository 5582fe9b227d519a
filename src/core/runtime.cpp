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

/// Names the writer of an injected store in write-once errors.
StoreOrigin injected_origin(const Program& program, KernelId producer,
                            Age age) {
  return StoreOrigin{producer != kInvalidKernel ? program.kernel(producer).name
                                                : std::string("injected"),
                     age, {}};
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
    const StoreOrigin origin = injected_origin(program_, producer, age);
    storage(field).store(age, region, payload, &origin);
    fresh = region.element_count();
  }
  push_event(StoreEvent{field, age, region, producer, store_decl, whole, ctx});
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
    const StoreOrigin origin = injected_origin(program_, producer, age);
    if (view.is_contiguous()) {
      storage(field).store(age, region, view.raw(), &origin);
    } else {
      const nd::AnyBuffer packed = view.materialize();
      storage(field).store(age, region, packed.raw(), &origin);
    }
  }
  if (adopted != nullptr) *adopted = did_adopt;
  push_event(StoreEvent{field, age, region, producer, store_decl, whole, ctx});
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

void Runtime::analyze(const std::deque<Event>& batch) {
  // The batch's units are released only after it is handled, and the work
  // it created added its units first: the count never undershoots pending
  // work, so quiescence stays sound.
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
  Instrumentation::Slot tally = instr_.analyzer();
  tally.record(Instrumentation::kAnalyzerHandle, end - start);
  tally.add_events(n);
  if (!series_.empty() && end - sampled_at_ns_ >= kSamplePeriodNs) {
    sample_gauges(end);
  }
  complete_outstanding(n);
}

void Runtime::worker_loop(int worker_index) {
  // One pair of timestamps per work item splits worker time into busy and
  // idle and also bounds the item's trace span, so worker spans add up to
  // busy time exactly; bookkeeping between items counts as idle.
  Instrumentation::Slot tally = instr_.worker(worker_index);
  int64_t wait_start = now_ns();
  std::optional<WorkItem> bonus;
  while (auto item = ready_.pop(&bonus)) {
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

namespace {

/// Advances `coord` to the next coordinate of `box` in row-major order
/// (wrapping to the first after the last).
void advance(nd::Coord& coord, const nd::Region& box) {
  for (size_t v = coord.size(); v-- > 0;) {
    if (++coord[v] < box.interval(v).end) return;
    coord[v] = box.interval(v).begin;
  }
}

/// True when the row-major image of `box` through the store slice `slice`
/// lists the instances' payloads in the box's row-major order, each
/// payload's all() dimensions innermost: every index variable that varies
/// over the box addresses exactly one dimension, in variable order, and
/// all() dimensions come after them.
bool image_in_box_order(const nd::SliceSpec& slice, const nd::Region& box) {
  int64_t last = -1;
  auto next_all = static_cast<int64_t>(box.rank());
  size_t addressed = 0;
  for (const nd::SliceDim& d : slice.dims()) {
    int64_t key;
    if (d.kind == nd::SliceDim::Kind::kVar) {
      if (box.interval(static_cast<size_t>(d.var)).length() <= 1) continue;
      key = d.var;
      ++addressed;
    } else if (d.kind == nd::SliceDim::Kind::kAll) {
      key = next_all++;
    } else {
      continue;
    }
    if (key <= last) return false;
    last = key;
  }
  size_t varying = 0;
  for (const nd::Interval& iv : box.intervals()) varying += iv.length() > 1;
  return addressed == varying;
}

/// Names the instance of a box whose store with declaration `decl` covers
/// a given element: the box's first coordinate, moved along every index
/// variable the declaration addresses to the element's position.
struct InstanceAt {
  const KernelDef& def;
  Age age;
  const StoreDecl& decl;
  const nd::Region& box;

  StoreOrigin operator()(const nd::Coord& element) const {
    StoreOrigin origin{def.name, age, box.first()};
    if (decl.slice.is_whole()) return origin;
    const auto& dims = decl.slice.dims();
    for (size_t i = 0; i < dims.size() && i < element.size(); ++i) {
      if (dims[i].kind != nd::SliceDim::Kind::kVar) continue;
      const auto var = static_cast<size_t>(dims[i].var);
      if (box.interval(var).length() > 1) origin.indices[var] = element[i];
    }
    return origin;
  }
};

}  // namespace

void Runtime::prepare_fetches(KernelContext& ctx) {
  const KernelDef& def = ctx.def();
  const nd::Region& box = ctx.box();
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
      continue;
    }
    // One view of the footprint over the whole box. Elementwise fetches
    // can be satisfied before the age seals (the buffer may still be
    // reallocated by implicit resizing) — copy then, once per box.
    const nd::Region footprint = f.slice.footprint(box, fs.extents(ga));
    std::optional<nd::ConstView> view = fs.try_fetch_view(ga, footprint);
    // A slot whose region is the same for every instance is the footprint
    // itself; any other sees one instance's window, moved by offset.
    bool moves = false;
    std::vector<int64_t> shape(footprint.rank(), 1);
    for (size_t d = 0; d < shape.size(); ++d) {
      const nd::SliceDim& sd = f.slice.dims()[d];
      if (sd.kind == nd::SliceDim::Kind::kAll) {
        shape[d] = footprint.interval(d).length();
      } else if (sd.kind == nd::SliceDim::Kind::kVar) {
        moves = moves || box.interval(static_cast<size_t>(sd.var)).length() > 1;
      }
    }
    if (!moves) {
      if (view) {
        ctx.set_fetch(i, std::move(*view));
      } else {
        ctx.set_fetch(i, fs.fetch(ga, footprint));
      }
    } else if (view) {
      ctx.set_fetch_window(i, std::move(*view), nd::Extents(std::move(shape)));
    } else {
      ctx.set_fetch_window(i, fs.fetch(ga, footprint),
                           nd::Extents(std::move(shape)));
    }
  }
}

void Runtime::check_store_type(const KernelDef& def, const StoreDecl& d,
                               nd::ElementType type) const {
  const FieldDecl& fd = program_.field(d.field);
  P2G_CHECK_ARGUMENT(type == fd.type,
                     "kernel '" + def.name + "' stored " +
                         std::string(nd::to_string(type)) + " into field '" +
                         fd.name + "' of type " +
                         std::string(nd::to_string(fd.type)));
}

nd::Region Runtime::store_region(const KernelDef& def, const StoreDecl& d,
                                 const nd::Region& box,
                                 const nd::Extents& payload) const {
  const FieldDecl& fd = program_.field(d.field);
  // Index variables span the box and constants their one index; all()
  // dimensions come from the payload's shape.
  const auto& dims = d.slice.dims();
  const size_t all_count = static_cast<size_t>(
      std::count_if(dims.begin(), dims.end(), [](const nd::SliceDim& sd) {
        return sd.kind == nd::SliceDim::Kind::kAll;
      }));
  const bool payload_is_field_shaped = payload.rank() == dims.size();
  P2G_CHECK_ARGUMENT(
      all_count == 0 || payload_is_field_shaped || payload.rank() == all_count,
      "kernel '" + def.name + "': payload rank does not determine the "
      "all() dimensions of the store to '" + fd.name + "'");

  std::vector<nd::Interval> intervals(dims.size());
  int64_t per_instance = 1;
  size_t next_all = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    switch (dims[i].kind) {
      case nd::SliceDim::Kind::kVar:
        intervals[i] = box.interval(static_cast<size_t>(dims[i].var));
        break;
      case nd::SliceDim::Kind::kConst:
        intervals[i] = nd::Interval{dims[i].value, dims[i].value + 1};
        break;
      case nd::SliceDim::Kind::kAll: {
        const int64_t len = payload_is_field_shaped
                                ? payload.dim(i)
                                : payload.dim(next_all++);
        intervals[i] = nd::Interval{0, len};
        per_instance *= len;
        break;
      }
    }
  }
  nd::Region region(std::move(intervals));
  P2G_CHECK_ARGUMENT(per_instance == payload.element_count(),
                     "kernel '" + def.name + "': payload holds " +
                         std::to_string(payload.element_count()) +
                         " elements but the store region " +
                         region.to_string() + " needs " +
                         std::to_string(per_instance));
  return region;
}

void Runtime::commit_region(const KernelContext& ctx, size_t decl,
                            const nd::Region& instances,
                            const nd::Region& region, bool whole,
                            const std::byte* data,
                            std::vector<StoreEvent>& events,
                            Instrumentation::Slot tally,
                            TraceContext* span_ctx) {
  const KernelDef& def = ctx.def();
  const StoreDecl& d = def.stores[decl];
  const Age ga = d.age.resolve(ctx.age());
  P2G_CHECK_ARGUMENT(ga >= 0, "kernel '" + def.name +
                                  "' stored to a negative age");
  FieldStorage& fs = storage(d.field);
  if (options_.idempotent_stores) {
    fs.store_fill(ga, region, data);
  } else {
    // The writer is named only for a write-once violation, or recorded
    // per store in checked mode.
    const InstanceAt writer{def, ctx.age(), d, instances};
    if (options_.checked) {
      const StoreOrigin origin = writer({});  // one instance per store
      fs.store(ga, region, data, &origin);
    } else {
      fs.store_box(ga, region, data, [&writer](const nd::Coord& element) {
        return writer(element);
      });
    }
  }

  StoreEvent event;
  event.field = d.field;
  event.age = ga;
  event.region = region;
  event.producer = def.id;
  event.store_decl = decl;
  event.whole = whole;
  if (span_ctx != nullptr && span_ctx->span_id != 0) {
    // A root span (source kernel, no inherited frame) starts a new
    // frame: its first store names the (field, age) the chain is about.
    if (span_ctx->trace_id == 0) {
      span_ctx->trace_id = frame_trace_id(event.field, event.age);
    }
    event.ctx = *span_ctx;
  }
  if (options_.store_tap) options_.store_tap(event);
  tally.add_store_bytes(region.element_count() *
                        static_cast<int64_t>(nd::element_size(
                            program_.field(d.field).type)));
  events.push_back(std::move(event));
}

void Runtime::commit_pending(const KernelContext& ctx,
                             const ResolvedFusion* fusion,
                             std::vector<StoreEvent>& events,
                             Instrumentation::Slot tally,
                             TraceContext* span_ctx) {
  const KernelDef& def = ctx.def();
  const nd::Region instance = nd::Region::point(ctx.indices());
  for (const KernelContext::PendingStore& p : ctx.pending_stores()) {
    if (fusion != nullptr && p.decl == fusion->upstream_store_decl &&
        fusion->elide) {
      continue;  // intermediate field circumvented entirely
    }
    const StoreDecl& d = def.stores[p.decl];
    check_store_type(def, d, p.data.type());
    if (d.slice.is_whole()) {
      const FieldDecl& fd = program_.field(d.field);
      P2G_CHECK_ARGUMENT(p.data.extents().rank() == fd.rank,
                         "kernel '" + def.name + "' whole-store rank mismatch "
                         "on field '" + fd.name + "'");
      commit_region(ctx, p.decl, instance,
                    nd::Region::whole(p.data.extents()), true, p.data.raw(),
                    events, tally, span_ctx);
    } else {
      commit_region(ctx, p.decl, instance,
                    store_region(def, d, instance, p.data.extents()), false,
                    p.data.raw(), events, tally, span_ctx);
    }
  }
}

void Runtime::commit_staged(const KernelContext& ctx,
                            const ResolvedFusion* fusion,
                            std::vector<StoreEvent>& events,
                            Instrumentation::Slot tally,
                            TraceContext* span_ctx) {
  const KernelDef& def = ctx.def();
  const nd::Region& box = ctx.box();
  for (size_t decl = 0; decl < def.stores.size(); ++decl) {
    const KernelContext::Staged& st = ctx.staged(decl);
    if (st.count == 0) continue;
    if (fusion != nullptr && decl == fusion->upstream_store_decl &&
        fusion->elide) {
      continue;  // intermediate field circumvented entirely
    }
    const StoreDecl& d = def.stores[decl];
    check_store_type(def, d, st.type);
    if (!options_.checked && st.count == box.element_count() &&
        image_in_box_order(d.slice, box)) {
      // The box's image: one claim/copy/commit and one store event.
      commit_region(ctx, decl, box, store_region(def, d, box, st.extents),
                    false, st.image.data(), events, tally, span_ctx);
      continue;
    }
    // Instances that did not store, an image the box order does not lay
    // out, or checked mode (one writer record per instance): each staged
    // payload commits on its own.
    nd::Coord coord = box.first();
    for (size_t n = 0; n < st.stored.size(); ++n, advance(coord, box)) {
      if (st.stored[n] == 0) continue;
      const nd::Region instance = nd::Region::point(coord);
      commit_region(ctx, decl, instance,
                    store_region(def, d, instance, st.extents), false,
                    st.image.data() + n * st.bytes, events, tally, span_ctx);
    }
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
  TraceContext* span = tracing ? &span_ctx : nullptr;

  // One context runs the whole box, moving from coordinate to coordinate.
  KernelContext ctx(def, item.age, item.box, &timers_);
  prepare_fetches(ctx);
  // A fused downstream instance runs right after the upstream body that
  // fed it, in its own context over the mapped box, reading its slice of
  // the upstream's staged payload.
  std::optional<KernelContext> down;
  nd::Coord down_coord;
  if (fusion != nullptr) {
    down.emplace(program_.kernel(fusion->downstream),
                 item.age + fusion->age_delta,
                 fusion->downstream_box(item.box), &timers_);
    down_coord = down->indices();
  }

  // Two clock reads per body bound it; everything else the item spends —
  // fetch prep, store commit, event push — is dispatch time, derived from
  // the item's bounds when it ends.
  int64_t kernel_ns = 0;
  int64_t down_ns = 0;  // fused downstream bodies
  int64_t down_bodies = 0;
  int64_t last_body_end = start_ns;
  std::vector<StoreEvent> events;
  const int64_t count = item.box.element_count();
  nd::Coord coord = ctx.indices();
  for (int64_t n = 0; n < count; ++n, advance(coord, item.box)) {
    ctx.enter(coord);
    const int64_t body_start = now_ns();
    def.body(ctx);
    last_body_end = now_ns();
    kernel_ns += last_body_end - body_start;
    if (!ctx.pending_stores().empty()) {
      commit_pending(ctx, fusion, events, tally, span);
    }
    if (!down) continue;
    const auto feed = ctx.payload(fusion->upstream_store_decl);
    if (!feed) continue;  // upstream took an alternate path
    for (size_t v = 0; v < down_coord.size(); ++v) {
      down_coord[v] = coord[fusion->coord_map[v]];
    }
    down->enter(down_coord);
    // Handed over in memory, no field access and no copy.
    down->set_fetch(0, feed->type, *feed->extents, feed->data);
    const int64_t down_start = now_ns();
    down->def().body(*down);
    down_ns += now_ns() - down_start;
    ++down_bodies;
    if (!down->pending_stores().empty()) {
      commit_pending(*down, nullptr, events, tally, span);
    }
  }
  // Each store declaration's staged payloads commit once for the box.
  commit_staged(ctx, fusion, events, tally, span);
  int64_t fused_ns = 0;  // charged to the fused downstream kernel
  if (down_bodies > 0) {
    const int64_t commit_start = now_ns();
    commit_staged(*down, nullptr, events, tally, span);
    const int64_t commit_ns = now_ns() - commit_start;
    fused_ns = down_ns + commit_ns;
    tally.add_item(fusion->downstream, down_bodies, commit_ns, down_ns);
  }

  InstanceDoneEvent done;
  done.kernel = def.id;
  done.age = item.age;
  done.continue_next_age = ctx.continue_requested();
  done.probe = item.probe;
  done.stores = coalesce_store_events(std::move(events), tally, worker_index,
                                      last_body_end);

  // Recorded before the done event: a probe's measurement is visible to
  // the analyzer when it handles that event.
  const int64_t end_ns = now_ns();
  const int64_t dispatch_ns = end_ns - start_ns - kernel_ns - fused_ns;
  tally.add_item(def.id, count, dispatch_ns, kernel_ns);
  tally.record(Instrumentation::kDispatch, dispatch_ns);
  tally.record(Instrumentation::kBody, kernel_ns);
  // One push per item: its stores and its completion. Analysis it runs on
  // this thread falls after the item's bounds (worker idle time).
  push_event(std::move(done));
  complete_outstanding();

  // Recording after complete_outstanding() is safe: shutdown joins this
  // worker first.
  if (tracing) {
    trace_->record(TraceCollector::Record{
        start_ns, end_ns - start_ns, worker_index, item.age, count,
        SpanKind::kWorker, kernel_span_names_[static_cast<size_t>(def.id)],
        span_ctx.trace_id, span_ctx.span_id, item.cause.span_id});
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
  std::vector<std::thread> worker_threads;
  worker_threads.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    worker_threads.emplace_back([this, i] { worker_loop(i); });
  }
  // Events pushed before bootstrap (injected stores) waited at the gate.
  events_.open();

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

  for (std::thread& t : worker_threads) t.join();
  // Waits out analysis on other threads; none happens after this.
  events_.join();

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
