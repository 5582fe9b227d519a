// Micro-benchmark of per-instance dispatch overhead (google-benchmark).
//
// Runs a pipeline of empty-body kernels through the full runtime and
// reports the time per kernel instance — the framework cost the paper's
// dispatch-time columns capture, isolated from any real kernel work.
#include <benchmark/benchmark.h>

#include <ctime>

#include <string>

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
    ->Unit(benchmark::kMillisecond);

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
    ->Unit(benchmark::kMillisecond);

/// source -> stage(x) -> relay(x): relay consumes stage's *per-element*
/// stores, so each of relay's candidates is scanned through a constrained
/// store event and pays the fine-grained region check (resolve + interval
/// lookup) per candidate. That is the check independence certificates
/// eliminate — a whole-field producer like `a` seals on its single store
/// event and enumerates consumers unconstrained, so `stage` itself never
/// exercises the certified path (see DependencyAnalyzer::handle_store).
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

/// Whole-process CPU seconds (all threads). The certificate delta lives in
/// the analyzer thread, which overlaps with the workers; on small or
/// oversubscribed VMs wall time is scheduler noise, while total CPU spent
/// per run is stable and sums exactly the work the fast path removes.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Issue 8 baseline: the chained pipeline without certificates — every
/// relay candidate pays the per-candidate region check. Manual timing
/// reports process CPU, and excludes program construction.
void BM_DispatchChainedPerInstance(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  for (auto _ : state) {
    Program program = chained_program(elements, ages);
    RunOptions opts;
    opts.workers = 2;
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

/// Same pipeline with independence certificates embedded (Issue 8): the
/// dependence pass proves relay's elementwise fetch pointwise, so the
/// analyzer skips its region check on every constrained candidate scan.
/// certify() is a one-shot compile-time pass (it renders full diagnostic
/// reports) amortized over a whole deployment, so it stays outside the
/// timed interval along with program construction.
void BM_DispatchChainedPerInstanceCertified(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  int64_t skips = 0;
  for (auto _ : state) {
    Program program = chained_program(elements, ages);
    program.certify();
    RunOptions opts;
    opts.workers = 2;
    const double cpu0 = process_cpu_seconds();
    Runtime rt(std::move(program), opts);
    const RunReport report = rt.run();
    state.SetIterationTime(process_cpu_seconds() - cpu0);
    instances += report.instrumentation.find("relay")->instances;
    skips += rt.certified_skips();
  }
  state.SetItemsProcessed(instances);
  state.counters["cpu_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  // Deterministic proof the fast path engaged: fine-grained region checks
  // eliminated, per executed relay instance (~1.0 for this pipeline).
  state.counters["skips_per_instance"] =
      static_cast<double>(skips) / static_cast<double>(instances);
}
BENCHMARK(BM_DispatchChainedPerInstanceCertified)->Arg(16)->Arg(256)
    ->Arg(1024)->UseManualTime()->Unit(benchmark::kMillisecond);

/// `width` independent certified source -> stage -> relay chains, fields
/// grouped by role (all a's, then b's, then c's). With width a multiple of
/// the shard count the chains partition evenly across shards and stay
/// shard-local, so the benchmark measures how analyzer work divides, not
/// message overhead.
Program chained_wide_program(int width, int elements, int ages) {
  ProgramBuilder pb;
  for (const char* role : {"a", "b", "c"}) {
    for (int w = 0; w < width; ++w) {
      pb.field(role + std::to_string(w), nd::ElementType::kInt32, 1);
    }
  }
  for (int w = 0; w < width; ++w) {
    const std::string suffix = std::to_string(w);
    pb.kernel("source" + suffix)
        .store("v", "a" + suffix, AgeExpr::relative(0), Slice::whole())
        .body([elements, ages](KernelContext& ctx) {
          if (ctx.age() >= ages) return;
          nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({elements}));
          ctx.store_array("v", std::move(v));
          ctx.continue_next_age();
        });
    pb.kernel("stage" + suffix)
        .index("x")
        .fetch("in", "a" + suffix, AgeExpr::relative(0), Slice().var("x"))
        .store("out", "b" + suffix, AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
        });
    pb.kernel("relay" + suffix)
        .index("x")
        .fetch("in", "b" + suffix, AgeExpr::relative(0), Slice().var("x"))
        .store("out", "c" + suffix, AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
        });
  }
  return pb.build();
}

/// Sharded-analyzer scaling (Issue 9): the same certified chained pipeline,
/// `width` chains wide, analyzed by range(1) shards. Manual time is the
/// *maximum per-shard analyzer CPU* — the sharded analyzer's critical path.
/// On a single-vCPU host the shard threads interleave rather than overlap,
/// so wall time and process CPU cannot show the split; the per-thread CPU
/// maximum is exactly the quantity that becomes wall time once each shard
/// has its own core, and it is what must drop monotonically 1 -> 2 -> 4.
void BM_DispatchShardedPerInstance(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const int elements = 256;
  const int ages = 30;
  int64_t instances = 0;
  int64_t skips = 0;
  for (auto _ : state) {
    Program program = chained_wide_program(width, elements, ages);
    program.certify();
    RunOptions opts;
    opts.workers = 2;
    opts.analyzer_shards = shards;
    Runtime rt(std::move(program), opts);
    const RunReport report = rt.run();
    state.SetIterationTime(static_cast<double>(rt.max_analyzer_cpu_ns()) *
                           1e-9);
    for (int w = 0; w < width; ++w) {
      instances +=
          report.instrumentation.find("relay" + std::to_string(w))->instances;
    }
    skips += rt.certified_skips();
  }
  state.SetItemsProcessed(instances);
  state.counters["cpu_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  // The certified fast path must survive sharding unchanged (~1.0 skipped
  // region check per executed relay instance for this pipeline).
  state.counters["skips_per_instance"] =
      static_cast<double>(skips) / static_cast<double>(instances);
}
BENCHMARK(BM_DispatchShardedPerInstance)
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})
    ->Args({8, 1})->Args({8, 2})->Args({8, 4})
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
