#include "core/instrumentation.h"

#include <sstream>

#include "common/error.h"
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

Instrumentation::Instrumentation(size_t kernel_count)
    : counters_(kernel_count) {}

void Instrumentation::record(KernelId kernel, int64_t dispatch_ns,
                             int64_t bodies, int64_t kernel_ns) {
  P2G_CHECK_INTERNAL(kernel >= 0 &&
                         static_cast<size_t>(kernel) < counters_.size(),
                     "instrumentation: kernel id out of range");
  Counters& c = counters_[static_cast<size_t>(kernel)];
  c.dispatches.fetch_add(1, std::memory_order_relaxed);
  c.dispatch_ns.fetch_add(dispatch_ns, std::memory_order_relaxed);
  c.kernel_ns.fetch_add(kernel_ns, std::memory_order_relaxed);
  // Released last: whoever sees the instances sees their body time
  // (mean_kernel_ns never divides a fresh count into a stale sum).
  c.instances.fetch_add(bodies, std::memory_order_release);
}

InstrumentationReport Instrumentation::snapshot(
    const Program& program) const {
  InstrumentationReport report;
  report.kernels.reserve(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    KernelStats stats;
    stats.name = program.kernel(static_cast<KernelId>(i)).name;
    stats.dispatches = counters_[i].dispatches.load();
    stats.instances = counters_[i].instances.load();
    stats.dispatch_ns = counters_[i].dispatch_ns.load();
    stats.kernel_ns = counters_[i].kernel_ns.load();
    report.kernels.push_back(std::move(stats));
  }
  return report;
}

}  // namespace p2g
