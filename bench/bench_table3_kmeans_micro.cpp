// Table III: micro-benchmark of K-means in P2G.
//
// Same columns as the paper: instances, average dispatch time, average
// kernel time per kernel definition. At full scale the assign kernel
// dispatches n*K*iterations = 2,000,000 instances (the paper reports
// 2,024,251 — the extra ~24k were partial next-iteration stragglers at
// their termination point; our per-kernel age caps cut deterministically).
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "core/runtime.h"
#include "workloads/kmeans.h"

using namespace p2g;

int main() {
  const bool full = bench::full_scale();
  workloads::KmeansConfig config;
  config.n = bench::env_int("P2G_N", full ? 2000 : 600);
  config.k = bench::env_int("P2G_K", full ? 100 : 40);
  config.iterations = bench::env_int("P2G_ITER", 10);

  std::printf("=== Table III: micro-benchmark of K-means in P2G ===\n");
  std::printf("n=%d, K=%d, %d iterations\n\n", config.n, config.k,
              config.iterations);

  workloads::KmeansWorkload workload;
  workload.config = config;
  Program program = workload.build();
  // The paper's columns are per instance: pin one instance per work item
  // instead of letting the runtime coarsen chunks.
  RunOptions opts;
  workload.apply_schedule(opts);
  for (const KernelDef& k : program.kernels()) {
    opts.kernel_schedules[k.name].chunk = 1;
  }
  Runtime rt(std::move(program), opts);
  const RunReport report = rt.run();

  std::printf("%s\n", report.instrumentation.to_table().c_str());
  std::printf("total wall time: %.3f s\n\n", report.wall_s);
  std::printf("Paper (n=2000, K=100, 10 iters): init 1, assign 2,024,251, "
              "refine 1000,\nprint 11; assign dispatch 4.07 us vs kernel "
              "6.95 us (dispatch-bound).\n");
  return 0;
}
