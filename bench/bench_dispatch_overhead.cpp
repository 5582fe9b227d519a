// Micro-benchmark of per-instance dispatch overhead (google-benchmark).
//
// Runs a pipeline of empty-body kernels through the full runtime and
// reports the time per kernel instance — the framework cost the paper's
// dispatch-time columns capture, isolated from any real kernel work. The
// BM_DispatchPerInstance* rows use wall time (UseRealTime): the main
// thread only waits for the run, so its CPU time says nothing about the
// cost per instance. The per-instance rows pin chunk = 1 (one instance per
// work item); BM_DispatchChunked shows what coarser chunks save.
#include <benchmark/benchmark.h>

#include <ctime>


#include "core/context.h"
#include "core/runtime.h"

namespace p2g {
namespace {

/// source -> stage(x) -> sink over `elements`-wide fields for `ages` ages.
Program dispatch_program(int elements, int ages) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "a", AgeExpr::relative(0), Slice::whole())
      .body([elements, ages](KernelContext& ctx) {
        if (ctx.age() >= ages) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({elements}));
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("stage")
      .index("x")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
      });
  return pb.build();
}

void BM_DispatchPerInstance(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  for (auto _ : state) {
    RunOptions opts;
    opts.workers = 2;
    opts.kernel_schedules["stage"].chunk = 1;
    Runtime rt(dispatch_program(elements, ages), opts);
    const RunReport report = rt.run();
    instances += report.instrumentation.find("stage")->instances;
  }
  state.SetItemsProcessed(instances);
  state.counters["sec_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DispatchPerInstance)->Arg(16)->Arg(256)->Arg(1024)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Same pipeline with telemetry enabled: the delta against
/// BM_DispatchPerInstance is the metrics hot-path cost (sharded atomics +
/// two clock reads per instance) — the acceptance target is within ~5%.
void BM_DispatchPerInstanceMetrics(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  for (auto _ : state) {
    RunOptions opts;
    opts.workers = 2;
    opts.kernel_schedules["stage"].chunk = 1;
    opts.metrics.enabled = true;
    Runtime rt(dispatch_program(elements, ages), opts);
    const RunReport report = rt.run();
    instances += report.instrumentation.find("stage")->instances;
  }
  state.SetItemsProcessed(instances);
  state.counters["sec_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DispatchPerInstanceMetrics)->Arg(16)->Arg(256)->Arg(1024)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// source -> stage(x) -> relay(x): relay consumes stage's *per-element*
/// stores, so each of relay's candidates is scanned through a constrained
/// store event. Its fetch is elementwise, so the slice rule skips that
/// fetch's region check (DependencyAnalyzer::try_enumerate): what is left
/// per candidate is the scan itself.
Program chained_program(int elements, int ages) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.field("c", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "a", AgeExpr::relative(0), Slice::whole())
      .body([elements, ages](KernelContext& ctx) {
        if (ctx.age() >= ages) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({elements}));
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("stage")
      .index("x")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
      });
  pb.kernel("relay")
      .index("x")
      .fetch("in", "b", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "c", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
      });
  return pb.build();
}

/// Whole-process CPU seconds (all threads). Dispatch cost includes the
/// analysis, which overlaps with other workers' bodies; on small or
/// oversubscribed VMs wall time is scheduler noise, while total CPU spent
/// per run is stable and sums every thread's work.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The chained pipeline with chunks pinned to one instance, so every relay
/// candidate is its own constrained scan. Manual timing reports process
/// CPU, and excludes program construction.
void BM_DispatchChainedPerInstance(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  for (auto _ : state) {
    Program program = chained_program(elements, ages);
    RunOptions opts;
    opts.workers = 2;
    opts.kernel_schedules["stage"].chunk = 1;
    opts.kernel_schedules["relay"].chunk = 1;
    const double cpu0 = process_cpu_seconds();
    Runtime rt(std::move(program), opts);
    const RunReport report = rt.run();
    state.SetIterationTime(process_cpu_seconds() - cpu0);
    instances += report.instrumentation.find("relay")->instances;
  }
  state.SetItemsProcessed(instances);
  state.counters["cpu_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DispatchChainedPerInstance)->Arg(16)->Arg(256)->Arg(1024)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_DispatchChunked(benchmark::State& state) {
  const int64_t chunk = state.range(0);
  int64_t instances = 0;
  for (auto _ : state) {
    RunOptions opts;
    opts.workers = 2;
    opts.kernel_schedules["stage"].chunk = chunk;
    Runtime rt(dispatch_program(1024, 20), opts);
    const RunReport report = rt.run();
    instances += report.instrumentation.find("stage")->instances;
  }
  state.SetItemsProcessed(instances);
}
BENCHMARK(BM_DispatchChunked)->Arg(1)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace p2g

BENCHMARK_MAIN();
