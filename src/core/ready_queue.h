// The per-node ready queue of runnable kernel instances.
//
// The paper's low-level scheduler prefers kernel instances with lower age
// ("older" instances) so that kernels satisfying their own dependencies in
// aging cycles cannot starve others (§VI-B). We implement that as a
// priority queue ordered by (age, enqueue sequence).
//
// Hot-path design: the analyzer pushes whole batches under one lock with at
// most one wakeup per batch, wakeups are skipped entirely when no worker is
// blocked (waiter count tracked under the mutex), and items move — not copy
// — through push and pop. Workers may additionally grab a *bonus* second
// item per pop when no other worker is waiting, halving their queue round
// trips under load without starving idle peers.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "check/sync.h"
#include "core/ids.h"
#include "core/trace.h"
#include "nd/region.h"

namespace p2g {

/// One dispatchable unit: a box of instances of one kernel at one age (a
/// range item). A box of one is a single instance; a larger one is how the
/// scheduler decreases data parallelism.
struct WorkItem {
  KernelId kernel = kInvalidKernel;
  Age age = 0;
  /// The instances' index bindings: one interval per index variable, never
  /// empty. Kernels without index variables have the rank-0 box, which
  /// holds one instance.
  nd::Region box;
  uint64_t seq = 0;
  /// Causal parent: the store event that made this instance runnable
  /// (first one for a chunk; zero when tracing is off). The executed
  /// span's flow arrow and parent link derive from it.
  TraceContext cause;
  /// A probe measures a kernel's body time; it reports back with an
  /// InstanceDoneEvent (see DependencyAnalyzer::flush_chunks).
  bool probe = false;
};

/// Blocking, age-ordered queue feeding the worker pool.
class ReadyQueue {
 public:
  void push(WorkItem item);

  /// Pushes a batch of items: one lock acquisition, at most one wakeup.
  /// (Waking one worker suffices — each woken worker takes at most two
  /// items and the rest remain claimable by peers finishing their bodies.)
  void push_batch(std::vector<WorkItem> items);

  /// Blocks for the lowest-age item; nullopt after close() drains. With
  /// `bonus`, when more work is queued and no other worker is waiting for
  /// it, also moves the next item there — a second unit for the same
  /// worker at no extra lock round trip.
  std::optional<WorkItem> pop(std::optional<WorkItem>* bonus = nullptr);

  void close();
  size_t size() const;

 private:
  struct Compare {
    bool operator()(const WorkItem& a, const WorkItem& b) const {
      if (a.age != b.age) return a.age > b.age;  // lower age first
      return a.seq > b.seq;  // FIFO within an age
    }
  };

  /// Moves the top item out (caller holds the lock). The const_cast is the
  /// standard escape hatch for std::priority_queue's const top(): safe here
  /// because the comparator reads only the trivially-copyable age/seq
  /// fields, which a move leaves intact for the pop() sift-down.
  WorkItem take_top();

  mutable sync::Mutex mutex_{"ReadyQueue.mutex"};
  sync::CondVar cv_{"ReadyQueue.cv"};
  std::priority_queue<WorkItem, std::vector<WorkItem>, Compare> items_;
  uint64_t next_seq_ = 0;
  int waiters_ = 0;  ///< workers blocked in pop (guarded by mutex_)
  bool closed_ = false;
};

}  // namespace p2g
