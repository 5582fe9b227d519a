#include "core/instrumentation.h"

#include <sstream>

#include "common/string_util.h"
#include "core/program.h"

namespace p2g {

const KernelStats* InstrumentationReport::find(
    std::string_view kernel_name) const {
  for (const KernelStats& k : kernels) {
    if (k.name == kernel_name) return &k;
  }
  return nullptr;
}

std::string InstrumentationReport::to_table() const {
  std::ostringstream os;
  os << format("%-16s %12s %16s %16s\n", "Kernel", "Instances",
               "Dispatch Time", "Kernel Time");
  for (const KernelStats& k : kernels) {
    os << format("%-16s %12s %13.2f us %13.2f us\n", k.name.c_str(),
                 with_thousands(k.instances).c_str(), k.avg_dispatch_us(),
                 k.avg_kernel_us());
  }
  return os.str();
}

Instrumentation::Instrumentation(size_t kernel_count, int workers)
    : stride_(kKernel0 + kKernelCells * kernel_count + kPadCells),
      cells_(stride_ * (static_cast<size_t>(workers) + 1)) {}

int64_t Instrumentation::total(size_t cell, std::memory_order order) const {
  int64_t sum = 0;
  for (size_t s = 0; s < slot_count(); ++s) {
    sum += slot_cells(s)[cell].load(order);
  }
  return sum;
}

InstrumentationReport Instrumentation::snapshot(
    const Program& program) const {
  InstrumentationReport report;
  report.kernels.resize(program.kernels().size());
  for (size_t i = 0; i < report.kernels.size(); ++i) {
    const size_t k = kKernel0 + kKernelCells * i;
    KernelStats& stats = report.kernels[i];
    stats.name = program.kernel(static_cast<KernelId>(i)).name;
    stats.instances = total(k + kBodies, std::memory_order_acquire);
    stats.dispatches = total(k + kItems);
    stats.dispatch_ns = total(k + kDispatchNs);
    stats.kernel_ns = total(k + kKernelNs);
  }
  return report;
}

std::optional<double> Instrumentation::mean_kernel_ns(KernelId kernel) const {
  const size_t k = kKernel0 + kKernelCells * static_cast<size_t>(kernel);
  int64_t bodies = 0;
  int64_t kernel_ns = 0;
  for (size_t s = 0; s < slot_count(); ++s) {
    bodies += slot_cells(s)[k + kBodies].load(std::memory_order_acquire);
    kernel_ns += slot_cells(s)[k + kKernelNs].load(std::memory_order_relaxed);
  }
  if (bodies == 0) return std::nullopt;
  return static_cast<double>(kernel_ns) / static_cast<double>(bodies);
}

std::pair<int64_t, int64_t> Instrumentation::worker_time() const {
  return {total(kBusyNs), total(kIdleNs)};
}

void Instrumentation::add_metrics(obs::MetricsSnapshot& into) const {
  static constexpr const char* kDistNames[kDistCount] = {
      "dispatch_latency_ns", "kernel_body_ns", "store_batch_events",
      "analyzer_handle_ns"};
  for (size_t d = 0; d < kDistCount; ++d) {
    obs::HistogramSnapshot total;
    total.name = kDistNames[d];
    total.buckets.assign(obs::HistogramSnapshot::kBuckets, 0);
    for (size_t s = 0; s < slot_count(); ++s) {
      const std::atomic<int64_t>* c = slot_cells(s) + kDist0 + kDistCells * d;
      obs::HistogramSnapshot one;
      one.count = c[kCount].load(std::memory_order_acquire);
      one.sum = c[kSum].load(std::memory_order_relaxed);
      one.min = c[kMin].load(std::memory_order_relaxed);
      one.max = c[kMax].load(std::memory_order_relaxed);
      for (size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
        one.buckets.push_back(c[kBucket0 + b].load(std::memory_order_relaxed));
      }
      total.merge(one);
    }
    into.histograms.push_back(std::move(total));
  }
  into.counters.push_back({"store_commit_bytes_total", total(kStoreBytes)});
  into.counters.push_back({"worker_busy_ns_total", total(kBusyNs)});
  into.counters.push_back({"worker_idle_ns_total", total(kIdleNs)});
  into.counters.push_back({"analyzer_events_total", total(kEvents)});
}

}  // namespace p2g
