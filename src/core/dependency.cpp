#include "core/dependency.h"

#include <algorithm>
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

DependencyAnalyzer::DependencyAnalyzer(Runtime& runtime, int shards)
    : runtime_(runtime), program_(runtime.program()) {
  const size_t n =
      static_cast<size_t>(std::clamp(shards, 1, 64));
  shards_.resize(n);
  for (size_t i = 0; i < n; ++i) shards_[i].index = i;

  const size_t nf = program_.fields().size();
  const size_t nk = program_.kernels().size();

  field_shard_.resize(nf);
  for (size_t f = 0; f < nf; ++f) field_shard_[f] = f % n;

  // A kernel lives where its first fetched field lives (the shard that
  // sees most of the events that can unblock it); fetchless kernels follow
  // their first stored field so a single-chain program stays one-shard.
  kernel_shard_.assign(nk, 0);
  for (const KernelDef& k : program_.kernels()) {
    size_t owner = 0;
    if (!k.fetches.empty()) {
      owner = field_shard(k.fetches[0].field);
    } else if (!k.stores.empty()) {
      owner = field_shard(k.stores[0].field);
    }
    kernel_shard_[static_cast<size_t>(k.id)] = owner;
  }
  // A fused downstream's twin marks come from the upstream's enumeration,
  // so the pair must share a shard (dispatched-set dedup stays
  // single-threaded per kernel).
  for (const auto& fu : runtime_.fusions_) {
    kernel_shard_[static_cast<size_t>(fu.downstream)] =
        kernel_shard_[static_cast<size_t>(fu.upstream)];
  }

  field_consumer_shards_.assign(nf, 0);
  for (size_t f = 0; f < nf; ++f) {
    uint64_t mask = 0;
    for (const Program::Use& use :
         program_.consumers_of(static_cast<FieldId>(f))) {
      mask |= uint64_t{1} << kernel_shard_[static_cast<size_t>(use.kernel)];
    }
    field_consumer_shards_[f] = mask;
  }

  first_feasible_ = first_feasible_ages(program_);
  dispatch_.resize(nk);
  serial_.resize(nk);
  for (const KernelDef& k : program_.kernels()) {
    const Age first = first_feasible_[static_cast<size_t>(k.id)];
    if (first < kInfeasible) {
      // Ages below the first feasible one can never dispatch; starting the
      // closed watermark there lets it advance contiguously.
      dispatch_[static_cast<size_t>(k.id)].closed_below = first;
      if (k.serial) serial_[static_cast<size_t>(k.id)].next = first;
    }
  }

  // Resolve embedded independence certificates (Program::certify) into a
  // per-kernel per-fetch bitmap for the try_enumerate hot path. Computed
  // once, read-only afterwards, shared by every shard.
  certified_.resize(nk);
  if (runtime_.options_.use_certificates) {
    for (const IndependenceCertificate& cert : program_.certificates()) {
      auto& flags = certified_[static_cast<size_t>(cert.consumer)];
      const size_t nfetches =
          program_.kernel(cert.consumer).fetches.size();
      if (flags.empty()) flags.assign(nfetches, 0);
      if (cert.fetch < flags.size()) flags[cert.fetch] = 1;
    }
  }
}

size_t DependencyAnalyzer::shard_of(const Event& event) const {
  if (const auto* store = std::get_if<StoreEvent>(&event)) {
    return field_shard(store->field);
  }
  if (const auto* done = std::get_if<InstanceDoneEvent>(&event)) {
    return kernel_shard(done->kernel);
  }
  if (const auto* rescan = std::get_if<RescanEvent>(&event)) {
    return kernel_shard(rescan->kernel);
  }
  if (const auto* seal = std::get_if<SealCheckEvent>(&event)) {
    return field_shard(seal->field);
  }
  // ScanConsumersEvents are addressed explicitly by their sender
  // (push_shard_event); routing one generically targets the field owner.
  return field_shard(std::get<ScanConsumersEvent>(event).field);
}

void DependencyAnalyzer::bootstrap() {
  for (const KernelDef& def : program_.kernels()) {
    if (!runtime_.kernel_enabled(def.id)) continue;
    Shard& s = shards_[kernel_shard(def.id)];
    if (def.is_run_once() && def.fetches.empty()) {
      create_instance(s, def, 0, {});
    } else if (def.is_source()) {
      mark_dispatched(s, def.id, 0, {});
      WorkItem item;
      item.kernel = def.id;
      item.age = 0;
      item.coords = {nd::Coord{}};
      runtime_.submit(std::move(item));
    }
  }
  for (Shard& s : shards_) flush_chunks(s);
}

void DependencyAnalyzer::handle_one(Shard& s, const Event& event) {
  s.current_cause = TraceContext{};  // done/rescan-created work is untraced
  if (const auto* store = std::get_if<StoreEvent>(&event)) {
    handle_store(s, *store);
  } else if (const auto* done = std::get_if<InstanceDoneEvent>(&event)) {
    handle_done(s, *done);
  } else if (const auto* rescan = std::get_if<RescanEvent>(&event)) {
    handle_rescan(s, *rescan);
  } else if (const auto* seal = std::get_if<SealCheckEvent>(&event)) {
    check_seal(s, seal->field, seal->age);
    drain_seal_worklist(s);
  } else if (const auto* scan = std::get_if<ScanConsumersEvent>(&event)) {
    handle_scan(s, *scan);
  }
}

void DependencyAnalyzer::handle(size_t shard, const Event& event) {
  Shard& s = shards_[shard];
  handle_one(s, event);
  flush_chunks(s);
  // Periodically revisit the data-granularity decisions (paper §V-A).
  // Shard 0 owns the adaptation so KernelRunCfg::chunk has one writer.
  if ((++s.events_handled & 0x3FF) == 0 && shard == 0) {
    runtime_.adapt_granularity();
  }
}

void DependencyAnalyzer::handle_batch(size_t shard,
                                      const std::deque<Event>& events) {
  Shard& s = shards_[shard];
  for (const Event& event : events) handle_one(s, event);
  flush_chunks(s);
  // Same ~1024-event cadence as handle(), crossed at batch granularity.
  const int64_t before = s.events_handled;
  s.events_handled += static_cast<int64_t>(events.size());
  if (shard == 0 && (before >> 10) != (s.events_handled >> 10)) {
    runtime_.adapt_granularity();
  }
}

int64_t DependencyAnalyzer::dispatched_count() const {
  int64_t total = 0;
  for (const Shard& s : shards_) total += s.dispatched_total;
  return total;
}

int64_t DependencyAnalyzer::certified_skip_count() const {
  int64_t total = 0;
  for (const Shard& s : shards_) total += s.certified_skips;
  return total;
}

int64_t DependencyAnalyzer::cross_shard_messages() const {
  int64_t total = 0;
  for (const Shard& s : shards_) total += s.xshard_sent;
  return total;
}

DependencyAnalyzer::MemoryStats DependencyAnalyzer::memory_stats() const {
  MemoryStats stats;
  for (const Shard& s : shards_) {
    stats.fa_states += s.fa_states.size();
    for (const auto& [key, entries] : s.retry) {
      stats.retry_entries += entries.size();
    }
  }
  for (const KernelDispatch& kd : dispatch_) {
    stats.open_ages += kd.open.size();
    for (const auto& [age, ad] : kd.open) {
      stats.open_coords += ad.coords.size();
    }
  }
  return stats;
}

void DependencyAnalyzer::send_shard(Shard& s, size_t target, Event event) {
  ++s.xshard_sent;
  runtime_.push_shard_event(target, std::move(event));
}

void DependencyAnalyzer::handle_store(Shard& s, const StoreEvent& event) {
  // Everything this store makes runnable — directly or through the seal
  // cascade — is causally downstream of it.
  s.current_cause = event.ctx;

  // Seal bookkeeping only accumulates while the age is unsealed; late
  // elementwise stores into an already-sealed age (the extents were known
  // before all data arrived) must not resurrect a retired entry.
  if (event.producer != kInvalidKernel &&
      !storage(event.field).is_sealed(event.age)) {
    FieldAgeState& state = s.fa_states[{event.field, event.age}];
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

  check_seal(s, event.field, event.age);
  drain_seal_worklist(s);
  announce_scan(s, event.field, event.age, &event.region);
}

void DependencyAnalyzer::handle_done(Shard& s,
                                     const InstanceDoneEvent& event) {
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
    if (event.continue_next_age) {
      const Age next = event.age + 1;
      if (next <= runtime_.cap_of(def.id) &&
          mark_dispatched(s, def.id, next, {})) {
        WorkItem item;
        item.kernel = def.id;
        item.age = next;
        item.coords = {nd::Coord{}};
        runtime_.submit(std::move(item));
      }
    }
    // The completed age will never be re-created (a same-node rescan of a
    // dispatched source age was always a no-op); retire its entry.
    close_age(s, def.id, event.age);
  }
}

void DependencyAnalyzer::handle_rescan(Shard& s, const RescanEvent& event) {
  const KernelDef& def = program_.kernel(event.kernel);
  // `enabled` is only ever read on the kernel's owner shard
  // (try_enumerate) or before threads start (bootstrap), so the flip needs
  // no synchronization.
  runtime_.kcfg_[static_cast<size_t>(def.id)].enabled = true;

  if (def.is_source()) {
    // Re-drive the source chain from age 0. Instances whose output already
    // arrived re-store idempotently and their continue flags rebuild the
    // chain up to the first genuinely lost age.
    if (mark_dispatched(s, def.id, 0, {})) {
      WorkItem item;
      item.kernel = def.id;
      item.age = 0;
      item.coords = {nd::Coord{}};
      runtime_.submit(std::move(item));
    }
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
    try_enumerate(s, def, a, std::nullopt, nullptr);
  }
}

void DependencyAnalyzer::handle_scan(Shard& s,
                                     const ScanConsumersEvent& event) {
  s.current_cause = event.ctx;
  scan_local(s, event.field, event.age,
             event.constrained ? &event.region : nullptr);
}

void DependencyAnalyzer::check_seal(Shard& s, FieldId field, Age age) {
  // The storage seal index is the authoritative (and thread-safe) sealed
  // bit; the shard-local FieldAgeState only holds pre-seal bookkeeping.
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
  const auto state_it = s.fa_states.find({field, age});
  const FieldAgeState& state =
      state_it != s.fa_states.end() ? state_it->second : kNoState;

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
  if (state_it != s.fa_states.end()) s.fa_states.erase(state_it);
  P2G_DEBUG << "sealed field '" << program_.field(field).name << "' age "
            << age << " at " << extents.to_string();
  on_sealed(s, field, age);
}

void DependencyAnalyzer::drain_seal_worklist(Shard& s) {
  while (!s.seal_worklist.empty()) {
    const auto [field, age] = s.seal_worklist.front();
    s.seal_worklist.pop_front();
    check_seal(s, field, age);
  }
}

void DependencyAnalyzer::on_sealed(Shard& s, FieldId field, Age age) {
  // Extent propagation: consumers whose index domains may now be known can
  // seal the extents of the fields they store to. The targets are derived
  // from static structure alone, so this shard can compute them for every
  // consumer — but the seal *check* must run on the target field's owner.
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
      const FieldId tf = k.stores[st].field;
      if (field_shard(tf) == s.index) {
        s.seal_worklist.emplace_back(tf, target);
      } else {
        SealCheckEvent request;
        request.field = tf;
        request.age = target;
        send_shard(s, field_shard(tf), request);
      }
    }
  }

  // Newly sealed extents can complete whole-field fetches and make domains
  // enumerable; rescan consumers unconstrained.
  announce_scan(s, field, age, nullptr);
}

void DependencyAnalyzer::announce_scan(Shard& s, FieldId field, Age age,
                                       const nd::Region* written) {
  scan_local(s, field, age, written);
  uint64_t mask = field_consumer_shards_[static_cast<size_t>(field)] &
                  ~(uint64_t{1} << s.index);
  for (size_t target = 0; mask != 0; ++target, mask >>= 1) {
    if ((mask & 1) == 0) continue;
    ScanConsumersEvent notify;
    notify.field = field;
    notify.age = age;
    notify.constrained = written != nullptr;
    if (written != nullptr) notify.region = *written;
    notify.ctx = s.current_cause;
    send_shard(s, target, notify);
  }
}

void DependencyAnalyzer::scan_local(Shard& s, FieldId field, Age age,
                                    const nd::Region* written) {
  for (const Program::Use& use : program_.consumers_of(field)) {
    if (kernel_shard(use.kernel) != s.index) continue;
    const KernelDef& k = program_.kernel(use.kernel);
    const FetchDecl& f = k.fetches[use.statement];

    if (f.age.kind == AgeExpr::Kind::kRelative) {
      // Exactly one instance age is influenced through this fetch.
      const Age a = age - f.age.value;
      if (a >= 0) try_enumerate(s, k, a, use.statement, written);
      continue;
    }

    // Constant-age fetch. Run-once kernels have exactly instance age 0;
    // aged kernels (e.g. the k-means datapoints field, stored once and
    // fetched by every assign age) are re-driven precisely through the
    // (field, age)-keyed retry index fired below.
    if (f.age.value != age) continue;
    if (k.is_run_once()) try_enumerate(s, k, 0, use.statement, written);
  }

  fire_retries(s, field, age);
}

void DependencyAnalyzer::fire_retries(Shard& s, FieldId field, Age age) {
  const auto it = s.retry.find({field, age});
  if (it == s.retry.end()) return;
  // Entries re-register themselves (possibly under a different blocking
  // field) when they are still blocked; detach first so the re-inserts do
  // not grow the set being walked.
  const std::set<std::pair<KernelId, Age>> entries = std::move(it->second);
  s.retry.erase(it);
  for (const auto& [kernel, a] : entries) {
    try_enumerate(s, program_.kernel(kernel), a, std::nullopt, nullptr);
  }
}

void DependencyAnalyzer::register_retry(Shard& s, const KernelDef& def,
                                        Age age, size_t fetch_index) {
  const FetchDecl& f = def.fetches[fetch_index];
  const Age ga = f.age.resolve(age);
  if (ga < 0) return;
  // Relative-age fetches (and run-once consumers) are already re-driven by
  // the direct consumer scan of every store/seal event on (field, ga) —
  // indexing them too would re-enumerate the whole candidate space per
  // store event, bypassing the constrained certificate fast path and
  // turning per-store work quadratic. Only constant-age fetches of aged
  // kernels escape the direct scans and need the index.
  if (f.age.kind == AgeExpr::Kind::kRelative || def.is_run_once()) return;
  s.retry[{f.field, ga}].insert({def.id, age});
}

void DependencyAnalyzer::try_enumerate(Shard& s, const KernelDef& def,
                                       Age age,
                                       std::optional<size_t> constrain_fetch,
                                       const nd::Region* written) {
  if (age < 0 || age > runtime_.cap_of(def.id)) return;
  if (!runtime_.kernel_enabled(def.id)) return;  // runs on another node
  if (def.is_run_once() && age != 0) return;
  if (def.is_source()) return;  // sources are driven by done events

  KernelDispatch& kd = dispatch_[static_cast<size_t>(def.id)];
  if (age_closed(kd, age)) return;  // every instance already dispatched

  // Certificate fast path: when the event region arrives through a
  // certified fetch, that fetch's data is statically known to be fully
  // written for every candidate the region admits (see
  // IndependenceCertificate), so both its age-level gate and its
  // per-candidate region check below are skipped.
  const bool cert_skip = constrain_fetch && written != nullptr &&
                         certified(def.id, *constrain_fetch);

  // Age-level gates shared by every candidate of this (kernel, age). A
  // failed gate registers a retry on the exact (field, age) that blocks.
  for (size_t fi = 0; fi < def.fetches.size(); ++fi) {
    const FetchDecl& f = def.fetches[fi];
    const Age ga = f.age.resolve(age);
    if (ga < 0) return;  // this age can never run
    if (cert_skip && fi == *constrain_fetch) continue;
    if (f.slice.is_whole()) {
      if (!storage(f.field).is_complete(ga)) {
        register_retry(s, def, age, fi);
        return;
      }
    } else if (has_all_dim(f.slice)) {
      if (!storage(f.field).is_sealed(ga)) {
        register_retry(s, def, age, fi);
        return;
      }
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
  // its coord set retire) as soon as that many instances dispatched —
  // whether by this pass or by later constrained scans.
  if (domain_final) {
    int64_t total = 1;
    for (const nd::Interval& r : ranges) total *= r.length();
    AgeDispatch& ad = kd.open[age];
    ad.total = total;
    if (static_cast<int64_t>(ad.coords.size()) >= total) {
      close_age(s, def.id, age);
      return;
    }
  }

  if (constrain_fetch && written != nullptr) {
    const nd::SliceSpec& slice = def.fetches[*constrain_fetch].slice;
    if (!slice.constrain(*written, ranges)) return;  // region cannot help
  }

  for (size_t v = 0; v < nvars; ++v) {
    if (ranges[v].end >= kHuge) {
      // Unbounded variable: cannot enumerate yet; retry when the binding
      // field age seals.
      register_retry(s, def, age,
                     def.binding_of_var(static_cast<int>(v))->fetch_index);
      return;
    }
    if (ranges[v].empty()) return;  // empty slice, no instances to add
  }

  // Enumerate the candidate product space.
  uint64_t blocked_fetches = 0;
  nd::Coord coord(nvars);
  for (size_t v = 0; v < nvars; ++v) coord[v] = ranges[v].begin;
  while (true) {
    if (!is_dispatched(def.id, age, coord)) {
      size_t blocking = SIZE_MAX;
      if (satisfied(s, def, age, coord,
                    cert_skip ? constrain_fetch : std::nullopt, &blocking)) {
        create_instance(s, def, age, coord);
        if (age_closed(kd, age)) break;  // auto-closed: nothing left
      } else if (blocking != SIZE_MAX && blocking < 64) {
        blocked_fetches |= uint64_t{1} << blocking;
      }
    }
    // Advance the product iterator (row-major).
    if (nvars == 0) break;
    size_t v = nvars;
    bool carry_out = true;
    while (v-- > 0) {
      if (++coord[v] < ranges[v].end) {
        carry_out = false;
        break;
      }
      coord[v] = ranges[v].begin;
    }
    if (carry_out) break;
  }

  // Register each distinct blocking field age: unsatisfied candidates are
  // revisited only when data that can actually unblock them arrives.
  for (size_t fi = 0; blocked_fetches != 0; ++fi, blocked_fetches >>= 1) {
    if (blocked_fetches & 1) register_retry(s, def, age, fi);
  }
}

bool DependencyAnalyzer::satisfied(Shard& s, const KernelDef& def, Age age,
                                   const nd::Coord& coord,
                                   std::optional<size_t> skip_fetch,
                                   size_t* blocking_fetch) {
  for (size_t fi = 0; fi < def.fetches.size(); ++fi) {
    const FetchDecl& f = def.fetches[fi];
    const Age ga = f.age.resolve(age);
    if (ga < 0) return false;
    if (skip_fetch && fi == *skip_fetch) {
      ++s.certified_skips;
      continue;
    }
    FieldStorage& fs = storage(f.field);
    if (f.slice.is_whole()) {
      if (!fs.is_complete(ga)) {
        if (blocking_fetch != nullptr) *blocking_fetch = fi;
        return false;
      }
    } else {
      if (has_all_dim(f.slice) && !fs.is_sealed(ga)) {
        if (blocking_fetch != nullptr) *blocking_fetch = fi;
        return false;
      }
      const nd::Region region = f.slice.resolve(coord, fs.extents(ga));
      if (!fs.region_written(ga, region)) {
        if (blocking_fetch != nullptr) *blocking_fetch = fi;
        return false;
      }
    }
  }
  return true;
}

bool DependencyAnalyzer::is_dispatched(KernelId kernel, Age age,
                                       const nd::Coord& coord) const {
  const KernelDispatch& kd = dispatch_[static_cast<size_t>(kernel)];
  if (age_closed(kd, age)) return true;
  const auto it = kd.open.find(age);
  return it != kd.open.end() && it->second.coords.count(coord) != 0;
}

bool DependencyAnalyzer::mark_dispatched(Shard& s, KernelId kernel, Age age,
                                         nd::Coord coord) {
  KernelDispatch& kd = dispatch_[static_cast<size_t>(kernel)];
  if (age_closed(kd, age)) return false;
  AgeDispatch& ad = kd.open[age];
  if (!ad.coords.insert(std::move(coord)).second) return false;
  ++s.dispatched_total;
  if (ad.total >= 0 && static_cast<int64_t>(ad.coords.size()) >= ad.total) {
    close_age(s, kernel, age);
  }
  return true;
}

void DependencyAnalyzer::close_age(Shard& s, KernelId kernel, Age age) {
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
  // A fused downstream's candidates are exactly the mapped upstream coords
  // (its sole fetch is the upstream's store); once the upstream age fully
  // dispatched, every twin is marked, so the downstream age closes too.
  const auto& cfg = runtime_.kcfg_[static_cast<size_t>(kernel)];
  if (cfg.fusion != nullptr) {
    const Age down_age = age + cfg.fusion->age_delta;
    if (down_age >= 0) close_age(s, cfg.fusion->downstream, down_age);
  }
}

void DependencyAnalyzer::create_instance(Shard& s, const KernelDef& def,
                                         Age age, nd::Coord coord) {
  ChunkBuffer& buffer = s.chunk_buffers[{def.id, age}];
  if (!buffer.cause.valid()) buffer.cause = s.current_cause;
  buffer.coords.push_back(coord);

  // A fused downstream twin runs inside the upstream's work item; mark it
  // dispatched *now* (before any event can be observed) so no scan can
  // double-run it. Fusion forces both kernels onto this shard.
  const auto& cfg = runtime_.kcfg_[static_cast<size_t>(def.id)];
  if (cfg.fusion != nullptr) {
    const auto& fu = *cfg.fusion;
    nd::Coord down_coord(fu.coord_map.size());
    for (size_t v = 0; v < fu.coord_map.size(); ++v) {
      down_coord[v] = coord[fu.coord_map[v]];
    }
    mark_dispatched(s, fu.downstream, age + fu.age_delta,
                    std::move(down_coord));
  }

  mark_dispatched(s, def.id, age, std::move(coord));
}

void DependencyAnalyzer::flush_chunks(Shard& s) {
  if (s.chunk_buffers.empty()) return;
  std::vector<WorkItem> batch;
  for (auto& [key, buffer] : s.chunk_buffers) {
    std::vector<nd::Coord>& coords = buffer.coords;
    const auto [kernel, age] = key;
    const int64_t chunk = std::max<int64_t>(
        1, runtime_.kcfg_[static_cast<size_t>(kernel)].chunk.load(
               std::memory_order_relaxed));
    const bool serial = program_.kernel(kernel).serial;
    const size_t total = coords.size();
    size_t begin = 0;
    while (begin < total) {
      const size_t end = std::min(total, begin + static_cast<size_t>(chunk));
      WorkItem item;
      item.kernel = kernel;
      item.age = age;
      item.cause = buffer.cause;
      if (begin == 0 && end == total) {
        item.coords = std::move(coords);  // whole buffer in one item
      } else {
        item.coords.reserve(end - begin);
        std::move(coords.begin() + static_cast<ptrdiff_t>(begin),
                  coords.begin() + static_cast<ptrdiff_t>(end),
                  std::back_inserter(item.coords));
      }
      if (serial) {
        submit_or_park(s, std::move(item));
      } else {
        batch.push_back(std::move(item));
      }
      begin = end;
    }
  }
  s.chunk_buffers.clear();
  // One ready-queue lock and at most one worker wakeup for the whole flush;
  // push_batch is safe to call from every shard concurrently.
  runtime_.submit_batch(std::move(batch));
}

void DependencyAnalyzer::submit_or_park(Shard& s, WorkItem item) {
  const KernelDef& def = program_.kernel(item.kernel);
  if (!def.serial) {
    runtime_.submit(std::move(item));
    return;
  }
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
