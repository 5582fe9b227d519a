#include "core/dependency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/logging.h"

namespace p2g {

namespace {

/// Sentinel upper bound for "unknown domain, hope the event constrains it".
constexpr int64_t kHuge = std::numeric_limits<int64_t>::max() / 4;

bool has_all_dim(const nd::SliceSpec& slice) {
  if (slice.is_whole()) return false;
  for (const nd::SliceDim& d : slice.dims()) {
    if (d.kind == nd::SliceDim::Kind::kAll) return true;
  }
  return false;
}

/// The outermost index variable `slice` addresses that spans more than one
/// value in `box`: the dimension to split a box along when the slice's
/// data is there for only part of it. -1 when the slice's footprint does
/// not depend on the box (a whole-field or constant slice, or a box of one
/// along every variable the slice uses): splitting cannot help then.
int split_var(const nd::SliceSpec& slice, const nd::Region& box) {
  if (slice.is_whole()) return -1;
  for (const nd::SliceDim& d : slice.dims()) {
    if (d.kind == nd::SliceDim::Kind::kVar &&
        box.interval(static_cast<size_t>(d.var)).length() > 1) {
      return d.var;
    }
  }
  return -1;
}

/// Cuts up to `n` (>= 1) instances off the front of `box` in row-major
/// order: returns them as one box and appends the rest of `box`, as
/// disjoint boxes, to `rest` (latest first in row-major order).
nd::Region take_front(const nd::Region& box, int64_t n,
                      std::vector<nd::Region>& rest) {
  std::vector<nd::Interval> piece = box.intervals();
  for (size_t d = 0; d < piece.size(); ++d) {
    int64_t inner = 1;
    for (size_t i = d + 1; i < piece.size(); ++i) inner *= piece[i].length();
    nd::Interval& iv = piece[d];
    // Whole slabs along d when one fits, else a piece of the first slab.
    const int64_t slabs =
        inner <= n ? std::min(iv.length(), std::max<int64_t>(1, n / inner))
                   : 1;
    if (slabs < iv.length()) {
      std::vector<nd::Interval> later = piece;
      later[d].begin = iv.begin + slabs;
      rest.emplace_back(std::move(later));
    }
    iv.end = iv.begin + slabs;
    if (inner <= n) break;
  }
  return nd::Region(std::move(piece));
}

}  // namespace

std::vector<Age> DependencyAnalyzer::first_feasible_ages(
    const Program& program) {
  const size_t nk = program.kernels().size();
  const size_t nf = program.fields().size();
  // first_age[F]: minimal age at which field F can receive data.
  std::vector<Age> field_first(nf, kInfeasible);
  std::vector<Age> kernel_first(nk, kInfeasible);

  // Monotone relaxation: values only decrease, bounded below by 0.
  for (size_t round = 0; round < nk + nf + 8; ++round) {
    bool changed = false;
    for (const KernelDef& k : program.kernels()) {
      Age first;
      if (k.fetches.empty()) {
        first = 0;  // run-once and source kernels start immediately
      } else {
        first = 0;
        for (const FetchDecl& f : k.fetches) {
          const Age ff = field_first[static_cast<size_t>(f.field)];
          if (ff >= kInfeasible) {
            first = kInfeasible;
            break;
          }
          if (f.age.kind == AgeExpr::Kind::kRelative) {
            // Need a + offset >= ff and a + offset >= 0.
            first = std::max(first, ff - f.age.value);
            first = std::max(first, -f.age.value);
          } else if (f.age.value < ff) {
            first = kInfeasible;  // constant age never written
            break;
          }
        }
      }
      if (first < kernel_first[k.id]) {
        kernel_first[static_cast<size_t>(k.id)] = first;
        changed = true;
      }
      if (kernel_first[static_cast<size_t>(k.id)] >= kInfeasible) continue;
      for (const StoreDecl& s : k.stores) {
        const Age target =
            s.age.kind == AgeExpr::Kind::kConst
                ? s.age.value
                : kernel_first[static_cast<size_t>(k.id)] + s.age.value;
        if (target >= 0 &&
            target < field_first[static_cast<size_t>(s.field)]) {
          field_first[static_cast<size_t>(s.field)] = target;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return kernel_first;
}

DependencyAnalyzer::DependencyAnalyzer(Runtime& runtime)
    : runtime_(runtime), program_(runtime.program()) {
  const size_t nk = program_.kernels().size();
  first_feasible_ = first_feasible_ages(program_);
  dispatch_.resize(nk);
  serial_.resize(nk);
  probe_budget_.assign(nk, static_cast<size_t>(runtime_.workers_));
  for (const KernelDef& k : program_.kernels()) {
    const Age first = first_feasible_[static_cast<size_t>(k.id)];
    if (first < kInfeasible) {
      // Ages below the first feasible one can never dispatch; starting the
      // closed watermark there lets it advance contiguously.
      dispatch_[static_cast<size_t>(k.id)].closed_below = first;
      if (k.serial) serial_[static_cast<size_t>(k.id)].next = first;
    }
  }

  fused_into_.assign(nk, nullptr);
  for (const Runtime::ResolvedFusion& fu : runtime_.fusions_) {
    fused_into_[static_cast<size_t>(fu.downstream)] = &fu;
  }
  build_reclaim_plans();
}

void DependencyAnalyzer::build_reclaim_plans() {
  const size_t nf = program_.fields().size();
  plans_.resize(nf);
  // Retained: fields no kernel fetches (nothing retires them), fields
  // callers read after run(), and every field in checked runs (writer
  // provenance) and with idempotent stores (failover rescans, checkpoints
  // and replays read and re-store old ages).
  const RunOptions& options = runtime_.options_;
  for (const FieldDecl& f : program_.fields()) {
    plans_[static_cast<size_t>(f.id)].retained =
        options.checked || options.idempotent_stores ||
        program_.consumers_of(f.id).empty();
  }
  // Elided: every producer is a local fusion upstream whose store of the
  // field is elided, so no age is ever stored here (the fused pipeline's
  // intermediate) and sealed ages can never become complete.
  for (const FieldDecl& f : program_.fields()) {
    const auto& producers = program_.producers_of(f.id);
    plans_[static_cast<size_t>(f.id)].elided =
        !producers.empty() &&
        std::all_of(producers.begin(), producers.end(),
                    [this](const Program::Use& use) {
                      const Runtime::ResolvedFusion* fu =
                          runtime_.kcfg_[static_cast<size_t>(use.kernel)]
                              .fusion;
                      return runtime_.kernel_enabled(use.kernel) &&
                             fu != nullptr && fu->elide &&
                             fu->upstream_store_decl == use.statement;
                    });
  }
  for (const std::string& name : options.retain_fields) {
    const FieldId id = program_.find_field(name);
    P2G_CHECK_ARGUMENT(id != kInvalidField,
                       "retain_fields lists unknown field '" + name + "'");
    plans_[static_cast<size_t>(id)].retained = true;
  }
  for (const KernelDef& k : program_.kernels()) {
    const bool local = runtime_.kernel_enabled(k.id);
    for (const FetchDecl& f : k.fetches) {
      ReclaimPlan& plan = plans_[static_cast<size_t>(f.field)];
      if (f.age.kind == AgeExpr::Kind::kConst) {
        plan.pinned.push_back(f.age.value);  // any kernel, any node (W007)
      } else if (local) {
        plan.touches.push_back(AgeLink{k.id, f.age});
      }
    }
    if (local) {
      for (const StoreDecl& s : k.stores) {
        ReclaimPlan& plan = plans_[static_cast<size_t>(s.field)];
        if (s.age.kind == AgeExpr::Kind::kConst && !k.is_run_once()) {
          plan.pinned.push_back(s.age.value);  // any instance may store it
        } else {
          plan.touches.push_back(AgeLink{k.id, s.age});
        }
      }
    }
    // Seal links of every kernel, local or not: this node may seal its
    // stores' field ages from the bound fields' extents. Each binding
    // fetch counts once (variables bound through one fetch share it).
    for (size_t v = 0; v < k.index_vars.size(); ++v) {
      const auto b = k.binding_of_var(static_cast<int>(v));
      if (!b) continue;
      bool seen = false;
      for (size_t u = 0; u < v && !seen; ++u) {
        const auto earlier = k.binding_of_var(static_cast<int>(u));
        seen = earlier && earlier->fetch_index == b->fetch_index;
      }
      const FetchDecl& f = k.fetches[b->fetch_index];
      if (seen || f.age.kind == AgeExpr::Kind::kConst) continue;  // pinned above
      for (const StoreDecl& s : k.stores) {
        if (s.slice.is_whole()) continue;  // sealed by its store event
        plans_[static_cast<size_t>(f.field)].seal_readers.push_back(
            SealLink{k.id, f.age.value, s.field, s.age});
      }
    }
  }
}

void DependencyAnalyzer::bootstrap() {
  for (const KernelDef& def : program_.kernels()) {
    if (!runtime_.kernel_enabled(def.id)) continue;
    if (def.is_run_once() && def.fetches.empty()) {
      create_instances(def, 0, nd::Region{});
      close_age(def.id, 0);  // its only instance
    } else if (def.is_source()) {
      dispatch_source_age(def.id, 0);
    }
  }
  flush_chunks();
}

void DependencyAnalyzer::handle_one(const Event& event) {
  current_cause_ = TraceContext{};  // done/rescan-created work is untraced
  if (const auto* store = std::get_if<StoreEvent>(&event)) {
    handle_store(*store);
  } else if (const auto* done = std::get_if<InstanceDoneEvent>(&event)) {
    handle_done(*done);
  } else {
    handle_rescan(std::get<RescanEvent>(event));
  }
}

void DependencyAnalyzer::handle_batch(const std::deque<Event>& events) {
  for (const Event& event : events) handle_one(event);
  flush_chunks();
  release_pending();
}

DependencyAnalyzer::MemoryStats DependencyAnalyzer::memory_stats() const {
  MemoryStats stats;
  stats.fa_states = fa_states_.size();
  for (const auto& [key, entries] : retry_) {
    stats.retry_entries += entries.size();
  }
  for (const KernelDispatch& kd : dispatch_) {
    stats.running_ages += kd.running.size();
    stats.open_ages += kd.open.size();
    for (const auto& [age, ad] : kd.open) {
      stats.open_boxes += ad.boxes.size();
    }
  }
  return stats;
}

void DependencyAnalyzer::handle_store(const StoreEvent& event) {
  // Everything this store makes runnable — directly or through the seal
  // cascade — is causally downstream of it.
  current_cause_ = event.ctx;

  // Seal bookkeeping only accumulates while the age is unsealed; late
  // elementwise stores into an already-sealed age (the extents were known
  // before all data arrived) must not resurrect a retired entry. (The seal
  // worklist is empty between events.)
  if (!storage(event.field).is_sealed(event.age)) {
    if (event.producer != kInvalidKernel) record_contribution(event);
    check_seal(event.field, event.age);
    drain_seal_worklist();
  }
  scan_local(event.field, event.age, &event.region);
  // A local producer's done event follows its stores and queues the field
  // age once the producer retires. A store from elsewhere (the store tap
  // forwarded it before its event was pushed) may be the last thing a
  // field age with no local reader waited for.
  if (event.producer == kInvalidKernel ||
      !runtime_.kernel_enabled(event.producer)) {
    queue_release(event.field, event.age);
  }
}

void DependencyAnalyzer::record_contribution(const StoreEvent& event) {
  FieldAgeState& state = fa_states_[{event.field, event.age}];
  const ProducerKey key{event.producer, event.store_decl};
  if (event.whole) {
    state.satisfied.emplace(key, event.region.required_extents());
  } else {
    const KernelDef& producer = program_.kernel(event.producer);
    const nd::SliceSpec& slice = producer.stores[event.store_decl].slice;
    const bool needs_witness =
        has_all_dim(slice) || producer.is_source() ||
        producer.is_run_once();
    if (needs_witness && !state.witnesses.count(key)) {
      std::vector<int64_t> lengths(slice.dims().size(), -1);
      for (size_t i = 0; i < slice.dims().size(); ++i) {
        if (slice.dims()[i].kind == nd::SliceDim::Kind::kAll) {
          lengths[i] = event.region.interval(i).length();
        }
      }
      state.witnesses.emplace(key, std::move(lengths));
    }
  }
}

void DependencyAnalyzer::handle_done(const InstanceDoneEvent& event) {
  for (const StoreEvent& store : event.stores) handle_store(store);
  current_cause_ = TraceContext{};  // done-created work is untraced
  finish_item(event.kernel, event.age);
  // A probe's kernel is neither serial nor a source: its event only has to
  // reach the batch-end flush_chunks, which now finds the measurement.
  if (event.probe) return;
  const KernelDef& def = program_.kernel(event.kernel);

  if (def.serial) {
    SerialState& state = serial_[static_cast<size_t>(def.id)];
    state.in_flight = false;
    state.next = event.age + 1;
    const auto it = state.parked.find(state.next);
    if (it != state.parked.end()) {
      WorkItem item = std::move(it->second);
      state.parked.erase(it);
      state.in_flight = true;
      runtime_.submit(std::move(item), /*already_counted=*/true);
    }
  }

  if (def.is_source()) {
    if (event.continue_next_age && event.age + 1 <= runtime_.cap_of(def.id)) {
      dispatch_source_age(def.id, event.age + 1);
    }
    // The completed age will never be re-created (a same-node rescan of a
    // dispatched source age was always a no-op); retire its entry.
    close_age(def.id, event.age);
  }
}

void DependencyAnalyzer::handle_rescan(const RescanEvent& event) {
  const KernelDef& def = program_.kernel(event.kernel);
  // `enabled` is only read by the analysis (serialized by the event gate)
  // or before threads start (bootstrap): the gate orders the flip.
  runtime_.kcfg_[static_cast<size_t>(def.id)].enabled = true;

  if (def.is_source()) {
    // Re-drive the source chain from age 0. Instances whose output already
    // arrived re-store idempotently and their continue flags rebuild the
    // chain up to the first genuinely lost age.
    dispatch_source_age(def.id, 0);
    return;
  }

  // General kernel: every live age of a fetched field names an instance age
  // that may now be runnable here. try_enumerate dedups via the dispatch
  // bookkeeping and re-checks satisfaction, so over-approximating the age
  // set is safe.
  std::set<Age> ages;
  ages.insert(0);
  for (const FetchDecl& f : def.fetches) {
    if (f.age.kind != AgeExpr::Kind::kRelative) continue;
    for (const Age la : storage(f.field).live_ages()) {
      const Age a = la - f.age.value;
      if (a >= 0) ages.insert(a);
    }
  }
  for (const Age a : ages) {
    try_enumerate(def, a, std::nullopt, nullptr);
  }
}

void DependencyAnalyzer::check_seal(FieldId field, Age age) {
  // The storage seal index is the authoritative (and thread-safe) sealed
  // bit; FieldAgeState only holds pre-seal bookkeeping.
  if (storage(field).is_sealed(age)) return;

  // Enumerate the producers of this (field, age).
  struct ActiveProducer {
    ProducerKey key;
    Age instance_age;
    const StoreDecl* decl;
    const KernelDef* kernel;
  };
  std::vector<ActiveProducer> producers;
  for (const Program::Use& use : program_.producers_of(field)) {
    const KernelDef& k = program_.kernel(use.kernel);
    const StoreDecl& d = k.stores[use.statement];
    Age instance_age;
    if (d.age.kind == AgeExpr::Kind::kConst) {
      if (d.age.value != age) continue;
      instance_age = 0;  // run-once semantics; aged kernels with const
                         // stores contribute via witnesses below
    } else {
      instance_age = age - d.age.value;
      if (instance_age < 0 || instance_age > runtime_.cap_of(k.id)) continue;
    }
    producers.push_back(
        ActiveProducer{ProducerKey{k.id, use.statement}, instance_age, &d, &k});
  }
  if (producers.empty()) return;  // nothing will ever define this age

  static const FieldAgeState kNoState;
  const auto state_it = fa_states_.find({field, age});
  const FieldAgeState& state =
      state_it != fa_states_.end() ? state_it->second : kNoState;

  nd::Extents extents;
  bool first = true;
  for (const ActiveProducer& p : producers) {
    nd::Extents contribution;
    const auto sat = state.satisfied.find(p.key);
    if (sat != state.satisfied.end()) {
      contribution = sat->second;  // whole-store producers
    } else if (p.decl->slice.is_whole()) {
      return;  // whole store not seen yet
    } else {
      // Elementwise producer: extents derive from its index domain plus a
      // witness store for all() dimensions / witness-only producers.
      const bool needs_witness = has_all_dim(p.decl->slice) ||
                                 p.kernel->is_source() ||
                                 p.kernel->is_run_once();
      const std::vector<int64_t>* witness = nullptr;
      if (needs_witness) {
        const auto wit = state.witnesses.find(p.key);
        if (wit == state.witnesses.end()) return;  // no witness yet
        witness = &wit->second;
      }
      std::optional<std::vector<int64_t>> domain;
      if (!p.kernel->index_vars.empty()) {
        domain = domain_of(*p.kernel, p.instance_age);
        if (!domain) return;  // domain not known yet
      }
      std::vector<int64_t> dims(p.decl->slice.dims().size(), 0);
      for (size_t i = 0; i < dims.size(); ++i) {
        const nd::SliceDim& sd = p.decl->slice.dims()[i];
        switch (sd.kind) {
          case nd::SliceDim::Kind::kVar:
            dims[i] = (*domain)[static_cast<size_t>(sd.var)];
            break;
          case nd::SliceDim::Kind::kConst:
            dims[i] = sd.value + 1;
            break;
          case nd::SliceDim::Kind::kAll:
            dims[i] = (*witness)[i];
            break;
        }
      }
      contribution = nd::Extents(std::move(dims));
    }
    extents = first ? contribution : extents.max_with(contribution);
    first = false;
  }

  storage(field).seal(age, extents);
  // Sealed ages never consult their pre-seal bookkeeping again; retiring
  // the entry here is what keeps analyzer memory flat on streaming runs.
  if (state_it != fa_states_.end()) fa_states_.erase(state_it);
  P2G_DEBUG << "sealed field '" << program_.field(field).name << "' age "
            << age << " at " << extents.to_string();
  on_sealed(field, age);
}

void DependencyAnalyzer::drain_seal_worklist() {
  while (!seal_worklist_.empty()) {
    const auto [field, age] = seal_worklist_.front();
    seal_worklist_.pop_front();
    check_seal(field, age);
  }
}

void DependencyAnalyzer::on_sealed(FieldId field, Age age) {
  // Sealing may complete the age, and may be the last seal a bound
  // field's age waited for.
  queue_release(field, age);
  for (size_t bound = 0; bound < plans_.size(); ++bound) {
    for (const SealLink& link : plans_[bound].seal_readers) {
      if (link.stored != field) continue;
      if (link.store_age.kind == AgeExpr::Kind::kRelative) {
        queue_release(
            static_cast<FieldId>(bound),
            age - link.store_age.value + link.fetch_offset);
      } else if (link.store_age.value == age) {
        queue_release(static_cast<FieldId>(bound),
                                         link.fetch_offset);
      }
    }
  }

  // Extent propagation: consumers whose index domains may now be known can
  // seal the extents of the fields they store to.
  for (const Program::Use& use : program_.consumers_of(field)) {
    const KernelDef& k = program_.kernel(use.kernel);
    const FetchDecl& f = k.fetches[use.statement];
    Age instance_age;
    if (f.age.kind == AgeExpr::Kind::kConst) {
      if (f.age.value != age) continue;
      // Constant-age fetches influence every instance age; propagation for
      // those is driven by the kernel's relative-age fetches instead.
      if (!k.is_run_once()) continue;
      instance_age = 0;
    } else {
      instance_age = age - f.age.value;
      if (instance_age < 0 || instance_age > runtime_.cap_of(k.id)) continue;
    }
    for (size_t st = 0; st < k.stores.size(); ++st) {
      const Age target = k.stores[st].age.resolve(instance_age);
      if (target < 0) continue;
      seal_worklist_.emplace_back(k.stores[st].field, target);
    }
  }

  // Newly sealed extents can complete whole-field fetches and make domains
  // enumerable; rescan consumers unconstrained.
  scan_local(field, age, nullptr);
}

void DependencyAnalyzer::scan_local(FieldId field, Age age,
                                    const nd::Region* written) {
  for (const Program::Use& use : program_.consumers_of(field)) {
    const KernelDef& k = program_.kernel(use.kernel);
    const FetchDecl& f = k.fetches[use.statement];

    if (f.age.kind == AgeExpr::Kind::kRelative) {
      // Exactly one instance age is influenced through this fetch.
      const Age a = age - f.age.value;
      if (a >= 0) try_enumerate(k, a, use.statement, written);
      continue;
    }

    // Constant-age fetch. Run-once kernels have exactly instance age 0;
    // aged kernels (e.g. the k-means datapoints field, stored once and
    // fetched by every assign age) are re-driven precisely through the
    // (field, age)-keyed retry index fired below.
    if (f.age.value != age) continue;
    if (k.is_run_once()) try_enumerate(k, 0, use.statement, written);
  }

  fire_retries(field, age);
}

void DependencyAnalyzer::fire_retries(FieldId field, Age age) {
  const auto it = retry_.find({field, age});
  if (it == retry_.end()) return;
  // Entries re-register themselves (possibly under a different blocking
  // field) when they are still blocked; detach first so the re-inserts do
  // not grow the set being walked.
  const std::set<std::pair<KernelId, Age>> entries = std::move(it->second);
  retry_.erase(it);
  for (const auto& [kernel, a] : entries) {
    try_enumerate(program_.kernel(kernel), a, std::nullopt, nullptr);
  }
}

void DependencyAnalyzer::register_retry(const KernelDef& def, Age age,
                                        size_t fetch_index) {
  const FetchDecl& f = def.fetches[fetch_index];
  const Age ga = f.age.resolve(age);
  if (ga < 0) return;
  // Relative-age fetches (and run-once consumers) are already re-driven by
  // the direct consumer scan of every store/seal event on (field, ga) —
  // indexing them too would re-enumerate the whole candidate space per
  // store event, bypassing the constrained scan and turning per-store
  // work quadratic. Only constant-age fetches of aged kernels escape the
  // direct scans and need the index.
  if (f.age.kind == AgeExpr::Kind::kRelative || def.is_run_once()) return;
  retry_[{f.field, ga}].insert({def.id, age});
}

void DependencyAnalyzer::try_enumerate(const KernelDef& def, Age age,
                                       std::optional<size_t> constrain_fetch,
                                       const nd::Region* written) {
  if (age < 0 || age > runtime_.cap_of(def.id)) return;
  if (!runtime_.kernel_enabled(def.id)) return;  // runs on another node
  if (def.is_run_once() && age != 0) return;
  if (def.is_source()) return;  // sources are driven by done events

  KernelDispatch& kd = dispatch_[static_cast<size_t>(def.id)];
  if (age_closed(kd, age)) return;  // every instance already dispatched

  // Age-level gates shared by every candidate of this (kernel, age): a
  // whole fetch needs its age complete, an all() fetch its age sealed. A
  // failed gate registers a retry on the exact (field, age) that blocks.
  // The fetch the event arrived through goes first: it is the likeliest
  // to block (a whole fetch waiting for the last of many stores).
  for (const FetchDecl& f : def.fetches) {
    if (f.age.resolve(age) < 0) return;  // this age can never run
  }
  const size_t nfetches = def.fetches.size();
  const size_t first = constrain_fetch ? *constrain_fetch : 0;
  for (size_t n = 0; n < nfetches; ++n) {
    const size_t fi = (first + n) % nfetches;
    const FetchDecl& f = def.fetches[fi];
    const Age ga = f.age.resolve(age);
    const bool open = f.slice.is_whole() ? storage(f.field).is_complete(ga)
                      : has_all_dim(f.slice) ? storage(f.field).is_sealed(ga)
                                             : true;
    if (!open) {
      register_retry(def, age, fi);
      return;
    }
  }

  // Variable ranges: start from the domain when known, otherwise rely on
  // the constraining region to bound them.
  const size_t nvars = def.index_vars.size();
  std::vector<nd::Interval> ranges(nvars, nd::Interval{0, kHuge});
  bool domain_final = true;
  for (size_t v = 0; v < nvars; ++v) {
    const auto binding = def.binding_of_var(static_cast<int>(v));
    P2G_CHECK_INTERNAL(binding.has_value(), "unbound index variable survived "
                                            "validation");
    const FetchDecl& bf = def.fetches[binding->fetch_index];
    const Age ga = bf.age.resolve(age);
    if (ga >= 0 && storage(bf.field).is_sealed(ga)) {
      ranges[v] = nd::Interval{0, storage(bf.field).extents(ga).dim(
                                      binding->dim)};
    } else {
      domain_final = false;
    }
  }

  // Sealed extents are immutable, so once every binding is sealed the
  // candidate space is final: record its size so the age can close (and
  // its box list retire) as soon as that many instances dispatched —
  // whether by this pass or by later constrained scans.
  if (domain_final) {
    int64_t total = 1;
    for (const nd::Interval& r : ranges) total *= r.length();
    AgeDispatch& ad = kd.open[age];
    ad.total = total;
    if (ad.dispatched >= total) {
      close_age(def.id, age);
      return;
    }
  }

  // The slice rule: an elementwise constraining fetch narrows every
  // variable it addresses to the written interval and rejects a constant
  // the region misses, so every box cut from the candidates below reads
  // that fetch only inside the just-written region, and its per-box check
  // is skipped.
  std::optional<size_t> covered;
  if (constrain_fetch && written != nullptr) {
    const nd::SliceSpec& slice = def.fetches[*constrain_fetch].slice;
    if (!slice.constrain(*written, ranges)) return;  // region cannot help
    if (slice.is_elementwise()) covered = constrain_fetch;
  }

  for (size_t v = 0; v < nvars; ++v) {
    if (ranges[v].end >= kHuge) {
      // Unbounded variable: cannot enumerate yet; retry when the binding
      // field age seals.
      register_retry(def, age,
                     def.binding_of_var(static_cast<int>(v))->fetch_index);
      return;
    }
    if (ranges[v].empty()) return;  // empty slice, no instances to add
  }

  // The candidate box less the boxes already dispatched, kept as a stack
  // whose top is the lowest box in row-major order.
  const nd::Region candidates(std::move(ranges));
  std::vector<nd::Region> todo{candidates};
  if (const auto open = kd.open.find(age); open != kd.open.end()) {
    std::vector<nd::Region> rest;
    for (const nd::Region& done : open->second.boxes) {
      if (candidates.intersect(done).empty()) continue;
      rest.clear();
      for (const nd::Region& box : todo) box.subtract(done, rest);
      todo.swap(rest);
      if (todo.empty()) return;  // every candidate already dispatched
    }
  }
  std::reverse(todo.begin(), todo.end());

  uint64_t blocked_fetches = 0;
  while (!todo.empty()) {
    nd::Region box = std::move(todo.back());
    todo.pop_back();
    const std::optional<size_t> blocking =
        blocking_fetch(def, age, box, covered);
    if (!blocking) {
      create_instances(def, age, std::move(box));
      if (age_closed(kd, age)) break;  // auto-closed: nothing left
      continue;
    }
    const int var = split_var(def.fetches[*blocking].slice, box);
    if (var < 0) {
      if (*blocking < 64) blocked_fetches |= uint64_t{1} << *blocking;
      continue;
    }
    // Halve the box along `var`; the lower half is checked first.
    const auto v = static_cast<size_t>(var);
    std::vector<nd::Interval> low = box.intervals();
    std::vector<nd::Interval> high = low;
    low[v].end = high[v].begin = low[v].begin + low[v].length() / 2;
    todo.emplace_back(std::move(high));
    todo.emplace_back(std::move(low));
  }

  // Register each distinct blocking field age: unsatisfied candidates are
  // revisited only when data that can actually unblock them arrives.
  for (size_t fi = 0; blocked_fetches != 0; ++fi, blocked_fetches >>= 1) {
    if (blocked_fetches & 1) register_retry(def, age, fi);
  }
}

std::optional<size_t> DependencyAnalyzer::blocking_fetch(
    const KernelDef& def, Age age, const nd::Region& box,
    std::optional<size_t> covered) {
  for (size_t fi = 0; fi < def.fetches.size(); ++fi) {
    const FetchDecl& f = def.fetches[fi];
    if (f.slice.is_whole() || fi == covered) continue;
    const Age ga = f.age.resolve(age);
    FieldStorage& fs = storage(f.field);
    if (!fs.region_written(ga, f.slice.footprint(box, fs.extents(ga)))) {
      return fi;
    }
  }
  return std::nullopt;
}

void DependencyAnalyzer::mark_dispatched(KernelId kernel, Age age,
                                         const nd::Region& box) {
  KernelDispatch& kd = dispatch_[static_cast<size_t>(kernel)];
  if (age_closed(kd, age)) return;
  AgeDispatch& ad = kd.open[age];
  const int64_t n = box.element_count();
  // A box that tiles a larger box with the previous one merges into it,
  // so an age dispatched in order keeps a short list.
  bool merged = false;
  if (!ad.boxes.empty()) {
    nd::Region grown = ad.boxes.back().bounding_union(box);
    if (grown.element_count() == ad.boxes.back().element_count() + n) {
      ad.boxes.back() = std::move(grown);
      merged = true;
    }
  }
  if (!merged) ad.boxes.push_back(box);
  ad.dispatched += n;
  dispatched_total_ += n;
  if (ad.total >= 0 && ad.dispatched >= ad.total) close_age(kernel, age);
}

void DependencyAnalyzer::dispatch_source_age(KernelId kernel, Age age) {
  KernelDispatch& kd = dispatch_[static_cast<size_t>(kernel)];
  if (age_closed(kd, age)) return;
  if (const auto it = kd.open.find(age);
      it != kd.open.end() && it->second.dispatched > 0) {
    return;
  }
  mark_dispatched(kernel, age, nd::Region{});
  WorkItem item;
  item.kernel = kernel;
  item.age = age;
  begin_item(kernel, age);
  runtime_.submit(std::move(item));
}

void DependencyAnalyzer::close_age(KernelId kernel, Age age) {
  KernelDispatch& kd = dispatch_[static_cast<size_t>(kernel)];
  if (age_closed(kd, age)) return;
  kd.open.erase(age);
  if (age == kd.closed_below) {
    ++kd.closed_below;
    // Absorb previously closed sparse ages into the watermark.
    auto it = kd.closed_sparse.begin();
    while (it != kd.closed_sparse.end() && *it == kd.closed_below) {
      it = kd.closed_sparse.erase(it);
      ++kd.closed_below;
    }
  } else if (age > kd.closed_below) {
    kd.closed_sparse.insert(age);
  }
  // A fused downstream's instances are exactly the mapped upstream ones
  // (its sole fetch is the upstream's store); once the upstream age fully
  // dispatched, every twin box is marked, so the downstream age closes too.
  const auto& cfg = runtime_.kcfg_[static_cast<size_t>(kernel)];
  if (cfg.fusion != nullptr) {
    const Age down_age = age + cfg.fusion->age_delta;
    if (down_age >= 0) close_age(cfg.fusion->downstream, down_age);
  }
  note_retired(kernel, age);
}

void DependencyAnalyzer::create_instances(const KernelDef& def, Age age,
                                          nd::Region box) {
  ChunkBuffer& buffer = chunk_buffers_[{def.id, age}];
  if (!buffer.cause.valid()) buffer.cause = current_cause_;
  buffer.instances += box.element_count();

  // A fused downstream twin runs inside the upstream's work item; mark its
  // box dispatched *now* (before any event can be observed) so no scan can
  // double-run it.
  if (const Runtime::ResolvedFusion* fu =
          runtime_.kcfg_[static_cast<size_t>(def.id)].fusion) {
    mark_dispatched(fu->downstream, age + fu->age_delta,
                    fu->downstream_box(box));
  }

  mark_dispatched(def.id, age, box);
  buffer.boxes.push_back(std::move(box));
}

std::optional<int64_t> DependencyAnalyzer::chunk_size(KernelId kernel,
                                                      size_t ready) const {
  if (const auto& fixed = runtime_.kcfg_[static_cast<size_t>(kernel)].chunk) {
    return *fixed;
  }
  const std::optional<double> body_ns =
      runtime_.instr_.mean_kernel_ns(kernel);
  if (!body_ns) return std::nullopt;
  // Enough bodies to cover the target, but never fewer items than workers.
  const int64_t workers = runtime_.workers_;
  const int64_t cap = std::max<int64_t>(
      1, (static_cast<int64_t>(ready) + workers - 1) / workers);
  if (*body_ns * static_cast<double>(cap) <= kTargetItemNs) return cap;
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(kTargetItemNs / *body_ns)));
}

void DependencyAnalyzer::flush_chunks() {
  if (chunk_buffers_.empty()) return;
  std::vector<WorkItem> batch;
  std::vector<nd::Region> rest;
  for (auto it = chunk_buffers_.begin(); it != chunk_buffers_.end();) {
    const auto [kernel, age] = it->first;
    ChunkBuffer& buffer = it->second;
    const auto total = static_cast<size_t>(buffer.instances);
    size_t chunk;
    size_t items = SIZE_MAX;  // items dispatched now; the rest is held
    bool probe = false;
    if (const std::optional<int64_t> sized = chunk_size(kernel, total)) {
      chunk = static_cast<size_t>(*sized);
    } else {
      // Unmeasured: one probe item per worker, the rest held. A probe runs
      // a few bodies because a worker's first body runs on cold caches and
      // alone would overstate the body time several-fold. While a buffer
      // is held a probe is running; the flush ending the batch that
      // handles its done event finds the measurement and releases it.
      size_t& budget = probe_budget_[static_cast<size_t>(kernel)];
      probe = true;
      chunk = std::clamp<size_t>(
          total / static_cast<size_t>(runtime_.workers_), 1, kProbeBodies);
      items = std::min((total + chunk - 1) / chunk, budget);
      budget -= items;
    }
    const bool serial = program_.kernel(kernel).serial;
    std::deque<nd::Region>& boxes = buffer.boxes;
    // Each item is a sub-box of at most `chunk` instances cut off the
    // front of the first buffered box; what is left of it stays in front.
    int64_t cut = 0;
    for (; items > 0 && !boxes.empty(); --items, ++cut) {
      WorkItem item;
      item.kernel = kernel;
      item.age = age;
      item.cause = buffer.cause;
      item.probe = probe;
      if (static_cast<size_t>(boxes.front().element_count()) <= chunk) {
        item.box = std::move(boxes.front());
        boxes.pop_front();
      } else {
        rest.clear();
        item.box = take_front(boxes.front(), static_cast<int64_t>(chunk),
                              rest);
        boxes.pop_front();
        for (nd::Region& r : rest) boxes.push_front(std::move(r));
      }
      buffer.instances -= item.box.element_count();
      if (serial) {
        begin_item(kernel, age);
        submit_or_park(std::move(item));
      } else {
        batch.push_back(std::move(item));
      }
    }
    if (!serial && cut > 0) begin_item(kernel, age, cut);
    if (boxes.empty()) {
      it = chunk_buffers_.erase(it);
    } else {
      ++it;
    }
  }
  // One ready-queue lock and at most one worker wakeup for the whole flush.
  runtime_.submit_batch(std::move(batch));
}

void DependencyAnalyzer::submit_or_park(WorkItem item) {
  const KernelDef& def = program_.kernel(item.kernel);
  SerialState& state = serial_[static_cast<size_t>(def.id)];
  if (item.age == state.next && !state.in_flight) {
    state.in_flight = true;
    runtime_.submit(std::move(item));
  } else {
    P2G_CHECK_INTERNAL(!state.parked.count(item.age),
                       "duplicate parked serial instance of kernel '" +
                           def.name + "'");
    runtime_.add_outstanding(1);
    state.parked.emplace(item.age, std::move(item));
  }
}

void DependencyAnalyzer::begin_item(KernelId kernel, Age age, int64_t n) {
  const auto count = [n](KernelDispatch& kd, Age a) {
    const auto it = kd.running_at(a);
    if (it != kd.running.end()) {
      it->second += n;
    } else {
      kd.running.emplace_back(a, n);
    }
  };
  count(dispatch_[static_cast<size_t>(kernel)], age);
  if (const Runtime::ResolvedFusion* fu =
          runtime_.kcfg_[static_cast<size_t>(kernel)].fusion) {
    count(dispatch_[static_cast<size_t>(fu->downstream)],
          age + fu->age_delta);
  }
}

void DependencyAnalyzer::finish_item(KernelId kernel, Age age) {
  const auto uncount = [this](KernelId k, Age a) {
    KernelDispatch& kd = dispatch_[static_cast<size_t>(k)];
    const auto it = kd.running_at(a);
    P2G_CHECK_INTERNAL(it != kd.running.end(),
                       "done event of a work item that is not running");
    if (--it->second == 0) {
      *it = kd.running.back();
      kd.running.pop_back();
    }
    note_retired(k, a);
  };
  uncount(kernel, age);
  if (const Runtime::ResolvedFusion* fu =
          runtime_.kcfg_[static_cast<size_t>(kernel)].fusion) {
    uncount(fu->downstream, age + fu->age_delta);
  }
}

bool DependencyAnalyzer::retired(KernelId kernel, Age age) const {
  const auto k = static_cast<size_t>(kernel);
  if (age < first_feasible_[k] || age > runtime_.cap_of(kernel)) return true;
  if (program_.kernel(kernel).is_run_once() && age != 0) return true;
  const KernelDispatch& kd = dispatch_[k];
  const auto& running = kd.running;
  if (!age_closed(kd, age) ||
      std::any_of(running.begin(), running.end(),
                  [age](const auto& entry) { return entry.first == age; }) ||
      chunk_buffers_.count({kernel, age}) != 0) {
    return false;
  }
  // A fused downstream's instances wait in its upstream's buffers.
  const Runtime::ResolvedFusion* fu = fused_into_[k];
  return fu == nullptr ||
         chunk_buffers_.count({fu->upstream, age - fu->age_delta}) == 0;
}

void DependencyAnalyzer::note_retired(KernelId kernel, Age age) {
  if (!retired(kernel, age)) return;  // a later done or close notes it
  const KernelDef& def = program_.kernel(kernel);
  for (const FetchDecl& f : def.fetches) {
    queue_release(f.field, f.age.resolve(age));
  }
  for (const StoreDecl& s : def.stores) {
    queue_release(s.field, s.age.resolve(age));
  }
}

void DependencyAnalyzer::queue_release(FieldId field, Age age) {
  // Bursts of stores and done events name the same field age in a row.
  if (release_candidates_.empty() ||
      release_candidates_.back() != std::pair{field, age}) {
    release_candidates_.emplace_back(field, age);
  }
}

void DependencyAnalyzer::release_pending() {
  // Checked after the batch: nothing below reads storage, and the chunk
  // buffers and running counts are settled. A batch of chunked items names
  // the same field ages many times; each is checked once.
  std::sort(release_candidates_.begin(), release_candidates_.end());
  release_candidates_.erase(
      std::unique(release_candidates_.begin(), release_candidates_.end()),
      release_candidates_.end());
  for (const auto& [field, age] : release_candidates_) try_release(field, age);
  release_candidates_.clear();
}

void DependencyAnalyzer::try_release(FieldId field, Age age) {
  const ReclaimPlan& plan = plans_[static_cast<size_t>(field)];
  if (plan.retained || age < 0 ||
      std::find(plan.pinned.begin(), plan.pinned.end(), age) !=
          plan.pinned.end()) {
    return;
  }
  // The instance age of a link's kernel that touches this field age.
  const auto instance_of = [age](const AgeExpr& e) -> std::optional<Age> {
    if (e.kind == AgeExpr::Kind::kRelative) return age - e.value;
    if (e.value == age) return 0;
    return std::nullopt;
  };
  for (const AgeLink& link : plan.touches) {
    const std::optional<Age> a = instance_of(link.age);
    if (a && !retired(link.kernel, *a)) return;
  }
  for (const SealLink& link : plan.seal_readers) {
    const Age a = age - link.fetch_offset;
    if (a < 0 || a > runtime_.cap_of(link.kernel)) continue;  // never asked
    Age target;
    if (link.store_age.kind == AgeExpr::Kind::kRelative) {
      target = a + link.store_age.value;
    } else if (a == 0) {
      target = link.store_age.value;  // const stores seal from instance 0
    } else {
      continue;
    }
    if (target >= 0 && !storage(link.stored).is_sealed(target)) return;
  }
  // Last: a released age also reads as complete, and release_age is then a
  // no-op. An elided field's age is never stored: sealed is all it gets.
  FieldStorage& fs = storage(field);
  if (plan.elided ? !fs.is_sealed(age) : !fs.is_complete(age)) return;
  fs.release_age(age);
}

std::optional<std::vector<int64_t>> DependencyAnalyzer::domain_of(
    const KernelDef& def, Age age) const {
  std::vector<int64_t> lengths(def.index_vars.size(), 0);
  for (size_t v = 0; v < def.index_vars.size(); ++v) {
    const auto binding = def.binding_of_var(static_cast<int>(v));
    P2G_CHECK_INTERNAL(binding.has_value(), "unbound variable in domain_of");
    const FetchDecl& bf = def.fetches[binding->fetch_index];
    const Age ga = bf.age.resolve(age);
    if (ga < 0) {
      lengths[v] = 0;  // empty domain: this age can never run
      continue;
    }
    if (!storage(bf.field).is_sealed(ga)) return std::nullopt;
    lengths[v] = storage(bf.field).extents(ga).dim(binding->dim);
  }
  return lengths;
}

}  // namespace p2g
