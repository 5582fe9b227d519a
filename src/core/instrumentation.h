// Per-kernel instrumentation: instance counts, dispatch overhead and time
// spent in kernel bodies. This is the data behind the paper's Tables II
// and III, and the profile feed used by the high-level scheduler to weight
// the final dependency graph (§IV).
//
// It is also the runtime's only hot-path recorder. Every worker thread and
// the analyzer own one Slot and are its only writer, so recording is a few
// relaxed stores to cache lines no other thread writes. Every view reads
// the slots when a snapshot is taken: Tables II/III, the mean body time
// that sizes chunks, and the RunReport::metrics histograms and counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ids.h"
#include "obs/metrics.h"

namespace p2g {

class Program;

/// Snapshot of one kernel's counters.
struct KernelStats {
  std::string name;
  int64_t dispatches = 0;   ///< work items dispatched (chunks count once)
  int64_t instances = 0;    ///< kernel bodies executed
  int64_t dispatch_ns = 0;  ///< work-item time outside kernel bodies
  int64_t kernel_ns = 0;    ///< time inside kernel bodies

  double avg_dispatch_us() const {
    return dispatches > 0
               ? static_cast<double>(dispatch_ns) / 1e3 /
                     static_cast<double>(dispatches)
               : 0.0;
  }
  double avg_kernel_us() const {
    return instances > 0 ? static_cast<double>(kernel_ns) / 1e3 /
                               static_cast<double>(instances)
                         : 0.0;
  }
};

/// Full instrumentation snapshot.
struct InstrumentationReport {
  std::vector<KernelStats> kernels;

  const KernelStats* find(std::string_view kernel_name) const;

  /// Formats the micro-benchmark table of the paper:
  /// Kernel | Instances | Dispatch Time | Kernel Time.
  std::string to_table() const;
};

/// Per-thread tallies of a run, read by every instrumentation view.
class Instrumentation {
 public:
  /// Log2-bucketed distributions (obs::HistogramSnapshot's buckets).
  enum Dist : size_t {
    kDispatch,        ///< dispatch time per work item
    kBody,            ///< body time per work item
    kStoreBatch,      ///< store events coalesced into one analyzer event
    kAnalyzerHandle,  ///< analyzer time per event batch
    kDistCount,
  };

  /// Handle on one thread's tallies: that thread alone writes through it,
  /// with a load and a store per cell (no read-modify-write).
  class Slot {
   public:
    /// One work item of `kernel`. The bodies are published last, so a
    /// reader that sees them also sees their time.
    void add_item(KernelId kernel, int64_t bodies, int64_t dispatch_ns,
                  int64_t kernel_ns) {
      std::atomic<int64_t>* k =
          cells_ + kKernel0 + kKernelCells * static_cast<size_t>(kernel);
      bump(k[kItems], 1);
      bump(k[kDispatchNs], dispatch_ns);
      bump(k[kKernelNs], kernel_ns);
      bump(k[kBodies], bodies, std::memory_order_release);
    }
    void add_worker_time(int64_t busy_ns, int64_t idle_ns) {
      bump(cells_[kBusyNs], busy_ns);
      bump(cells_[kIdleNs], idle_ns);
    }
    void add_store_bytes(int64_t bytes) { bump(cells_[kStoreBytes], bytes); }
    void add_events(int64_t n) { bump(cells_[kEvents], n); }

    /// The count is published last: a reader that sees it sees the
    /// min/max of every value it counts.
    void record(Dist dist, int64_t value) {
      std::atomic<int64_t>* d = cells_ + kDist0 + kDistCells * dist;
      const int64_t count = d[kCount].load(std::memory_order_relaxed);
      if (count == 0 || value < d[kMin].load(std::memory_order_relaxed)) {
        d[kMin].store(value, std::memory_order_relaxed);
      }
      if (count == 0 || value > d[kMax].load(std::memory_order_relaxed)) {
        d[kMax].store(value, std::memory_order_relaxed);
      }
      bump(d[kSum], value);
      bump(d[kBucket0 + obs::HistogramSnapshot::bucket_index(value)], 1);
      d[kCount].store(count + 1, std::memory_order_release);
    }

   private:
    friend class Instrumentation;
    explicit Slot(std::atomic<int64_t>* cells) : cells_(cells) {}

    static void bump(std::atomic<int64_t>& cell, int64_t n,
                     std::memory_order order = std::memory_order_relaxed) {
      cell.store(cell.load(std::memory_order_relaxed) + n, order);
    }

    std::atomic<int64_t>* cells_;
  };

  /// `workers` worker slots plus one for the analyzer.
  Instrumentation(size_t kernel_count, int workers);

  Slot worker(int index) { return Slot(slot_cells(static_cast<size_t>(index))); }
  Slot analyzer() { return Slot(slot_cells(slot_count() - 1)); }

  InstrumentationReport snapshot(const Program& program) const;

  /// Mean body time of a kernel's executed instances; nullopt before the
  /// first one is recorded. Two loads per slot, no snapshot.
  std::optional<double> mean_kernel_ns(KernelId kernel) const;

  /// Busy and idle time summed over the workers.
  std::pair<int64_t, int64_t> worker_time() const;

  /// The metrics view: appends the distributions and counters under their
  /// metric names.
  void add_metrics(obs::MetricsSnapshot& into) const;

 private:
  // A slot's cells: four counters; per distribution its count, sum, min,
  // max and buckets; per kernel its items, bodies, dispatch ns and kernel
  // ns; then a cache line of padding, so two slots never share a written
  // line. One zeroed allocation holds every slot: a Runtime is built per
  // run, and an allocation per slot showed in its construction time.
  static constexpr size_t kBusyNs = 0, kIdleNs = 1, kStoreBytes = 2,
                          kEvents = 3, kDist0 = 4;
  static constexpr size_t kCount = 0, kSum = 1, kMin = 2, kMax = 3,
                          kBucket0 = 4;
  static constexpr size_t kDistCells =
      kBucket0 + obs::HistogramSnapshot::kBuckets;
  static constexpr size_t kItems = 0, kBodies = 1, kDispatchNs = 2,
                          kKernelNs = 3, kKernelCells = 4;
  static constexpr size_t kKernel0 = kDist0 + kDistCount * kDistCells;
  static constexpr size_t kPadCells = 64 / sizeof(int64_t);

  size_t slot_count() const { return cells_.size() / stride_; }
  std::atomic<int64_t>* slot_cells(size_t slot) {
    return &cells_[slot * stride_];
  }
  const std::atomic<int64_t>* slot_cells(size_t slot) const {
    return &cells_[slot * stride_];
  }
  /// A cell summed over the slots.
  int64_t total(size_t cell,
                std::memory_order order = std::memory_order_relaxed) const;

  size_t stride_;
  std::vector<std::atomic<int64_t>> cells_;
};

}  // namespace p2g
