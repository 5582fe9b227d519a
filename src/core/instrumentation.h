// Per-kernel instrumentation: instance counts, dispatch overhead and time
// spent in kernel bodies. This is the data behind the paper's Tables II
// and III, and the profile feed used by the high-level scheduler to weight
// the final dependency graph (§IV).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ids.h"

namespace p2g {

class Program;

/// Snapshot of one kernel's counters.
struct KernelStats {
  std::string name;
  int64_t dispatches = 0;   ///< work items dispatched (chunks count once)
  int64_t instances = 0;    ///< kernel bodies executed
  int64_t dispatch_ns = 0;  ///< fetch resolution + store commit time
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

/// Thread-safe accumulation of per-kernel counters.
class Instrumentation {
 public:
  explicit Instrumentation(size_t kernel_count);

  /// Records one dispatched work item covering `bodies` kernel bodies.
  void record(KernelId kernel, int64_t dispatch_ns, int64_t bodies,
              int64_t kernel_ns);

  InstrumentationReport snapshot(const Program& program) const;

  /// Mean body time of a kernel's executed instances; nullopt before the
  /// first one is recorded. Two loads, no snapshot.
  std::optional<double> mean_kernel_ns(KernelId kernel) const {
    const Counters& c = counters_[static_cast<size_t>(kernel)];
    const int64_t instances = c.instances.load(std::memory_order_acquire);
    if (instances == 0) return std::nullopt;
    return static_cast<double>(c.kernel_ns.load(std::memory_order_relaxed)) /
           static_cast<double>(instances);
  }

 private:
  struct Counters {
    std::atomic<int64_t> dispatches{0};
    std::atomic<int64_t> instances{0};
    std::atomic<int64_t> dispatch_ns{0};
    std::atomic<int64_t> kernel_ns{0};
  };

  std::vector<Counters> counters_;
};

}  // namespace p2g
