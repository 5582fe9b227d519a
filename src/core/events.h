// Events flowing from worker threads into the dependency analyzer.
//
// The runtime is push-based (paper §VI-B): kernel instances produce store
// events which the analyzer consumes to discover newly runnable
// instances.
#pragma once

#include <variant>
#include <vector>

#include "core/ids.h"
#include "core/trace.h"
#include "nd/region.h"

namespace p2g {

/// A region of (field, age) has been written.
struct StoreEvent {
  FieldId field = kInvalidField;
  Age age = 0;
  nd::Region region;
  KernelId producer = kInvalidKernel;
  size_t store_decl = 0;  ///< which store statement of the producer
  bool whole = false;     ///< the statement is a whole-field store
  /// Causal identity of the write: the frame it belongs to and the span
  /// that produced it (zero when tracing is off). The analyzer threads it
  /// into the instances this store makes runnable.
  TraceContext ctx;
};

/// A work item (one or several bodies of one kernel at one age) finished.
/// Every item reports one, carrying its store events: the analyzer handles
/// the stores first, then retires the item — which is what tells it when
/// an age's readers and writers are done with it (age reclamation).
struct InstanceDoneEvent {
  KernelId kernel = kInvalidKernel;
  Age age = 0;
  bool continue_next_age = false;  ///< set by source kernels
  /// The item was a probe of a kernel with no measured body time yet. Its
  /// event tells the analyzer the measurement exists, so the instances
  /// held back can be sized.
  bool probe = false;
  /// The item's committed stores, coalesced, in commit order.
  std::vector<StoreEvent> stores;
};

/// Re-enables a kernel on this node and re-enumerates its instances from
/// surviving field data (failover: the kernel's previous owner died).
/// Write-once semantics make the re-execution deterministic; idempotent
/// stores make it safe to redo work whose results already arrived.
struct RescanEvent {
  KernelId kernel = kInvalidKernel;
};

using Event = std::variant<StoreEvent, InstanceDoneEvent, RescanEvent>;

}  // namespace p2g
