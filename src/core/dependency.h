// The dependency analyzer (paper §VI-B).
//
// Each execution node runs one analyzer and no analyzer thread. Workers
// (and remote-store injection) push store, done and rescan events onto one
// combining queue (common/combining_queue.h); its gate holder drains the
// whole backlog at once, and the analyzer discovers newly runnable kernel
// instances and dispatches each exactly once into the ReadyQueue.
//
// Range dispatch: the unit the analyzer reasons about is a box of index
// coordinates (nd::Region), not a coordinate. An event narrows a kernel
// age to a box of candidates; each fetch is checked once for the whole
// box through its footprint; a box that is only partly satisfied is split
// and rechecked (a point is a box of one); dispatched boxes are the
// exactly-once record; and work items carry boxes cut from what became
// runnable.
//
// Sealing: an age of a field is *sealed* when every producer's contribution
// is known — a whole-field store arrives, or an elementwise producer's
// index domain becomes known (which in turn requires the extents of the
// fields binding its index variables to be sealed). Sealing is what makes
// "all elements written" (completeness) meaningful for whole-field fetches
// and what the paper calls implicit-resize extent propagation.
//
// Age reclamation: the analyzer releases each (field, age) once every
// local reader and writer has retired it (see try_release), so a stream's
// memory is bounded by its in-flight ages instead of its length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/events.h"
#include "core/kernel.h"
#include "core/ready_queue.h"
#include "core/runtime.h"

namespace p2g {

class DependencyAnalyzer {
 public:
  explicit DependencyAnalyzer(Runtime& runtime);

  /// Creates the initial instances: run-once kernels without fetches and
  /// the first age of every source kernel. Single-threaded (pre-run).
  void bootstrap();

  /// Processes a drained event backlog in order (the gate holder only),
  /// flushing chunk buffers once per batch instead of once per event: a
  /// batch often fills a chunk that single events would have split.
  void handle_batch(const std::deque<Event>& events);

  /// Instances dispatched so far (tests/diagnostics; exact only at
  /// quiescence).
  int64_t dispatched_count() const { return dispatched_total_; }

  /// Analyzer-state footprint. Streaming runs retire
  /// seal bookkeeping on seal and dispatched-box lists once an age closes,
  /// so these stay bounded by the in-flight age window instead of growing
  /// with the run length. Quiescent use only (tests).
  struct MemoryStats {
    size_t fa_states = 0;      ///< unsealed (field, age) seal entries
    size_t open_ages = 0;      ///< (kernel, age) dispatch records still open
    size_t open_boxes = 0;     ///< boxes held by open dispatch records
    size_t retry_entries = 0;  ///< blocked (kernel, age) retry registrations
    size_t running_ages = 0;   ///< (kernel, age) with work items not done
  };
  MemoryStats memory_stats() const;

  /// The first age at which each kernel can ever run, derived by fixpoint
  /// over the static graph (a kernel fetching f(a-1) cannot run before
  /// age 1; consumers of its output inherit the bound transitively).
  /// kInfeasible marks kernels that can never run. Serial gating starts at
  /// this age instead of 0, so structurally skipped leading ages do not
  /// park the kernel forever.
  static constexpr Age kInfeasible = std::numeric_limits<Age>::max() / 2;
  static std::vector<Age> first_feasible_ages(const Program& program);

  /// Body time one work item should carry (paper §V-A, Fig. 4): about ten
  /// times the framework cost of dispatching one item (Tables II and III),
  /// so dispatch stays a small share of a coarsened item.
  static constexpr double kTargetItemNs = 50'000.0;
  /// Most bodies one probe item runs before its kernel has a measurement.
  static constexpr size_t kProbeBodies = 8;

 private:
  struct ProducerKey {
    KernelId kernel;
    size_t decl;
    auto operator<=>(const ProducerKey&) const = default;
  };

  /// Seal bookkeeping of one unsealed (field, age). The sealed bit itself
  /// lives in FieldStorage (the authoritative, thread-safe source); entries
  /// here are erased the moment the age seals, so long runs do not
  /// accumulate per-age state for completed work.
  struct FieldAgeState {
    /// Contribution extents of producers accounted for so far.
    std::map<ProducerKey, nd::Extents> satisfied;
    /// First-store witness lengths for `all()` dimensions of elementwise
    /// store statements (-1 = dimension not an all() dim).
    std::map<ProducerKey, std::vector<int64_t>> witnesses;
  };

  struct SerialState {
    Age next = 0;
    bool in_flight = false;
    std::map<Age, WorkItem> parked;
  };

  /// Dispatched instances of one open (kernel, age): disjoint boxes and
  /// the instances they hold. `total` is the final candidate-space size,
  /// set once every binding field extent is sealed (-1 until then); when
  /// `dispatched` reaches it the age closes and the record is dropped.
  struct AgeDispatch {
    std::vector<nd::Region> boxes;
    int64_t dispatched = 0;
    int64_t total = -1;
  };

  /// Exactly-once dispatch bookkeeping of one kernel. A *closed* age had
  /// every instance dispatched (or can never dispatch again: completed
  /// source ages); candidate scans skip closed ages, which is what lets the
  /// per-age box lists retire. `closed_below` starts at the kernel's first
  /// feasible age so structurally skipped leading ages cannot wedge the
  /// watermark.
  struct KernelDispatch {
    Age closed_below = 0;
    std::set<Age> closed_sparse;
    std::map<Age, AgeDispatch> open;
    /// Work items created and not yet reported done, as (age, count)
    /// pairs with count > 0 (a fused downstream counts its upstream's items
    /// at the mapped age). Only the few ages in flight have an entry, so a
    /// flat list beats a tree: no node allocation per age.
    std::vector<std::pair<Age, int64_t>> running;

    /// The running entry of `age`, or running.end().
    auto running_at(Age age) {
      return std::find_if(running.begin(), running.end(),
                          [age](const auto& entry) {
                            return entry.first == age;
                          });
    }
  };

  // --- age reclamation ------------------------------------------------------

  /// A local kernel's fetch or store of a field: the field age it touches
  /// at instance age a is age.resolve(a). Readers and writers are alike:
  /// either keeps an age until its instance age retires.
  struct AgeLink {
    KernelId kernel;
    AgeExpr age;
  };
  /// Kernel `kernel` (on any node) binds an index variable through a
  /// relative fetch of the field at `fetch_offset` and stores `stored` at
  /// `store_age` elementwise: sealing that store's field age reads the
  /// bound field's extents (check_seal -> domain_of).
  struct SealLink {
    KernelId kernel;
    int64_t fetch_offset;
    FieldId stored;
    AgeExpr store_age;
  };
  /// What keeps one field's ages alive on this node, computed once.
  struct ReclaimPlan {
    bool retained = false;        ///< never released
    bool elided = false;          ///< every store of it elided by fusion
    std::vector<Age> pinned;      ///< constant fetch / aged-kernel store ages
    /// Enabled kernels' relative fetches and their stores.
    std::vector<AgeLink> touches;
    std::vector<SealLink> seal_readers;
  };


  /// Boxes of runnable instances buffered for chunked dispatch, in the
  /// order they became runnable, with the causal context of the first store
  /// event that made one of them runnable (the items cut from them inherit
  /// it).
  struct ChunkBuffer {
    std::deque<nd::Region> boxes;
    int64_t instances = 0;
    TraceContext cause;
  };

  /// Event dispatch without the per-batch flush epilogue.
  void handle_one(const Event& event);

  void handle_store(const StoreEvent& event);
  /// Seal bookkeeping of a store into an unsealed age: a whole store's
  /// extents, or an elementwise store's witness lengths.
  void record_contribution(const StoreEvent& event);
  void handle_done(const InstanceDoneEvent& event);
  void handle_rescan(const RescanEvent& event);

  /// Attempts to seal (field, age); queues cascaded checks on success.
  void check_seal(FieldId field, Age age);
  void drain_seal_worklist();
  void on_sealed(FieldId field, Age age);

  /// Enumerates candidate instances of the consumers of (field, age),
  /// either constrained by a freshly written region or unconstrained, then
  /// fires retry registrations keyed on (field, age).
  void scan_local(FieldId field, Age age, const nd::Region* written);
  void fire_retries(FieldId field, Age age);

  /// Enumerates candidates of one kernel at one age as a box. When
  /// `constrain_fetch` is set, variable ranges are narrowed by the written
  /// region through that fetch's slice. The part of the box not yet
  /// dispatched is checked box by box: a satisfied box is dispatched
  /// whole, a partly satisfied one is split along the outermost index
  /// variable its blocking fetch addresses, and a box whose blocking fetch
  /// cannot be split registers a retry.
  void try_enumerate(const KernelDef& def, Age age,
                     std::optional<size_t> constrain_fetch,
                     const nd::Region* written);

  /// The first fetch of `def` at `age` whose data is not there for every
  /// instance of `box` (checked once through the fetch's footprint over
  /// the box), or nullopt when all are. Only per-box checks run here: the
  /// age gates of try_enumerate already passed every whole and all() fetch
  /// for this age. `covered` is a fetch not checked at all: an elementwise
  /// fetch whose slice narrowed the box to a just-committed region, which
  /// therefore holds the fetch's whole footprint over the box (DESIGN §10).
  std::optional<size_t> blocking_fetch(const KernelDef& def, Age age,
                                       const nd::Region& box,
                                       std::optional<size_t> covered);

  /// Registers (def, age) for retry when the field age behind `fetch_index`
  /// next changes.
  void register_retry(const KernelDef& def, Age age, size_t fetch_index);

  // --- exactly-once dispatch bookkeeping ------------------------------------
  bool age_closed(const KernelDispatch& kd, Age age) const {
    return age < kd.closed_below || kd.closed_sparse.count(age) != 0;
  }
  /// Records `box` (disjoint from every box recorded before) as dispatched
  /// at (kernel, age), unless the age is closed. Auto-closes the age when
  /// `total` is reached.
  void mark_dispatched(KernelId kernel, Age age, const nd::Region& box);
  /// Dispatches the one instance of a source kernel's age unless it
  /// already was.
  void dispatch_source_age(KernelId kernel, Age age);
  /// Retires an age's box list: every instance is known dispatched (or
  /// can never dispatch again). Cascades to a fused downstream twin, whose
  /// instances are exactly the mapped upstream ones.
  void close_age(KernelId kernel, Age age);

  /// Marks a runnable box dispatched (including a fused downstream twin)
  /// and buffers it for chunked dispatch.
  void create_instances(const KernelDef& def, Age age, nd::Region box);

  /// Flushes chunk buffers into work items, cutting the buffered boxes
  /// into sub-boxes of at most the chunk size (serial kernels are gated).
  /// A kernel with no measured body time sends probes and keeps the rest
  /// of its buffers until the first probe reports back.
  void flush_chunks();
  /// Instances per work item for `ready` buffered instances of `kernel`:
  /// the fixed chunk if any, else sized from the measured mean body time;
  /// nullopt while the kernel has no measurement.
  std::optional<int64_t> chunk_size(KernelId kernel, size_t ready) const;
  /// Serial kernels only: submits the item when it is the kernel's next
  /// age and none is in flight, else parks it until its turn.
  void submit_or_park(WorkItem item);

  /// Builds plans_ (constructor).
  void build_reclaim_plans();
  /// Counts `n` new work items of (kernel, age) (and of a fused
  /// downstream twin) as running.
  void begin_item(KernelId kernel, Age age, int64_t n = 1);
  /// A work item reported done: uncounts it and queues release checks.
  void finish_item(KernelId kernel, Age age);
  /// True when (kernel, age) will never read or write again: its age is
  /// closed with no buffered instance and no running item, or it can never
  /// run (below the first feasible age, above the cap, a run-once kernel's
  /// non-zero age).
  bool retired(KernelId kernel, Age age) const;
  /// Once (kernel, age) has retired, queues the field ages it fetches and
  /// stores for a release check.
  void note_retired(KernelId kernel, Age age);
  /// Releases (field, age) when it is sealed and complete (sealed alone
  /// for an elided field), not retained or pinned, every local reader and
  /// writer of it has retired, and every seal that reads its extents has
  /// happened. Never releases early: an age whose retirement is never
  /// known stays.
  void try_release(FieldId field, Age age);
  /// Queues (field, age) for a release check at the end of the batch.
  void queue_release(FieldId field, Age age);
  /// Runs the queued release checks (end of every batch).
  void release_pending();

  /// Index-variable domain lengths of a kernel at an age, or nullopt while
  /// some binding field extent is not sealed yet.
  std::optional<std::vector<int64_t>> domain_of(const KernelDef& def,
                                                Age age) const;

  FieldStorage& storage(FieldId field) const {
    return *runtime_.storages_[static_cast<size_t>(field)];
  }

  Runtime& runtime_;
  const Program& program_;

  /// Unsealed (field, age) seal entries.
  std::map<std::pair<FieldId, Age>, FieldAgeState> fa_states_;
  std::deque<std::pair<FieldId, Age>> seal_worklist_;
  /// Blocked candidates, indexed by the exact (field, age) whose change
  /// can unblock them: (consumer kernel, instance age) entries fire only
  /// when an event touches that field age, replacing the old whole-
  /// kernel-age-set rescan.
  std::map<std::pair<FieldId, Age>, std::set<std::pair<KernelId, Age>>>
      retry_;
  std::map<std::pair<KernelId, Age>, ChunkBuffer> chunk_buffers_;
  /// Probes each kernel may still send before its first measurement (one
  /// per worker).
  std::vector<size_t> probe_budget_;
  /// Context of the store event currently being handled; stamps instances
  /// it (transitively) makes runnable.
  TraceContext current_cause_;
  int64_t dispatched_total_ = 0;

  std::vector<Age> first_feasible_;
  std::vector<KernelDispatch> dispatch_;
  std::vector<SerialState> serial_;

  /// Per field: its reclaim plan.
  std::vector<ReclaimPlan> plans_;
  /// Per kernel: the fusion it is the downstream of (nullptr if none).
  std::vector<const Runtime::ResolvedFusion*> fused_into_;
  /// (field, age) pairs to check at the end of the batch.
  std::vector<std::pair<FieldId, Age>> release_candidates_;
};

}  // namespace p2g
