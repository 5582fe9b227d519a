// Ablation: data-granularity control (paper §V-A / Fig. 4 Age=2, and the
// §VIII-B discussion of the K-means bottleneck).
//
// The paper argues that decreasing data parallelism — making each
// dispatched unit cover a larger slice — raises the ratio of kernel time
// to dispatch time and relieves the serial dependency analyzer. We sweep
// the chunk size of the K-means assign kernel and report wall time plus
// the dispatch counts that drop with coarser granularity. The last row
// leaves the chunk unset, so the runtime sizes it from measured body times.
#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/runtime.h"
#include "workloads/kmeans.h"

using namespace p2g;

int main() {
  workloads::KmeansConfig config;
  config.n = bench::env_int("P2G_N", bench::full_scale() ? 2000 : 600);
  config.k = bench::env_int("P2G_K", bench::full_scale() ? 100 : 40);
  config.iterations = bench::env_int("P2G_ITER", 10);

  std::printf("=== Ablation: assign-kernel chunk size (K-means, n=%d, "
              "K=%d, %d iters) ===\n\n",
              config.n, config.k, config.iterations);
  std::printf("%7s  %10s  %12s  %12s  %14s\n", "chunk", "wall_s",
              "dispatches", "instances", "avg_disp_us");

  const std::optional<int64_t> chunks[] = {1, 8, 64, 256, std::nullopt};
  for (const std::optional<int64_t>& chunk : chunks) {
    workloads::KmeansWorkload workload;
    workload.config = config;
    RunOptions opts;
    workload.apply_schedule(opts);
    opts.kernel_schedules["assign"].chunk = chunk;
    Runtime rt(workload.build(), opts);
    const RunReport report = rt.run();
    const auto* assign = report.instrumentation.find("assign");
    std::printf("%7s  %10.3f  %12lld  %12lld  %14.2f\n",
                chunk ? std::to_string(*chunk).c_str() : "auto",
                report.wall_s,
                static_cast<long long>(assign->dispatches),
                static_cast<long long>(assign->instances),
                assign->avg_dispatch_us());
  }
  std::printf("\n(Coarser chunks amortize dispatch overhead across more "
              "kernel bodies,\nthe fix the paper proposes for the Fig. 10 "
              "degradation.)\n");
  return 0;
}
