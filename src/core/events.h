// Events flowing from worker threads into the dependency analyzer.
//
// The runtime is push-based (paper §VI-B): kernel instances produce store
// events which the analyzer thread consumes to discover newly runnable
// instances.
#pragma once

#include <variant>

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

/// A kernel instance (possibly a chunk of several bodies) finished.
struct InstanceDoneEvent {
  KernelId kernel = kInvalidKernel;
  Age age = 0;
  bool continue_next_age = false;  ///< set by source kernels
  /// The item was a probe of a kernel with no measured body time yet. Its
  /// event tells the analyzer the measurement exists, so the instances
  /// held back can be sized.
  bool probe = false;
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
