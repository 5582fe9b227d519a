// Tracing-overhead micro-benchmark (ISSUE 6, google-benchmark).
//
// Measures what causal tracing costs on the dispatch hot path and on a
// real workload (MJPEG encode): collect_trace on vs off, plus the
// flight-only mode chaos runs use (flight_dir alone: a bounded collector). Acceptance: tracing enabled
// stays within ~5% of baseline; disabled is indistinguishable (the hot
// path is a single null check). No file I/O in any variant — collection
// only, like the distributed master's stitching mode.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "core/context.h"
#include "core/runtime.h"
#include "media/yuv.h"
#include "workloads/mjpeg_workload.h"

namespace p2g {
namespace {

/// source -> stage(x) -> sink over `elements`-wide fields for `ages` ages
/// (the bench_dispatch_overhead pipeline, for comparable numbers).
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

enum class Mode { kOff, kTrace, kFlight };

/// Telemetry options of a mode. Flight-only sets a flight_dir, which is
/// only written to on a fatal error.
RunOptions mode_options(Mode mode) {
  RunOptions opts;
  opts.workers = 2;
  opts.collect_trace = mode == Mode::kTrace;
  if (mode == Mode::kFlight) {
    opts.flight_dir = std::filesystem::temp_directory_path().string();
  }
  return opts;
}

void run_dispatch(benchmark::State& state, Mode mode) {
  const int elements = static_cast<int>(state.range(0));
  const int ages = 50;
  int64_t instances = 0;
  for (auto _ : state) {
    Runtime rt(dispatch_program(elements, ages), mode_options(mode));
    const RunReport report = rt.run();
    instances += report.instrumentation.find("stage")->instances;
  }
  state.SetItemsProcessed(instances);
  state.counters["sec_per_instance"] = benchmark::Counter(
      static_cast<double>(instances),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_DispatchTraceOff(benchmark::State& state) {
  run_dispatch(state, Mode::kOff);
}
BENCHMARK(BM_DispatchTraceOff)->Arg(16)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DispatchTraceOn(benchmark::State& state) {
  run_dispatch(state, Mode::kTrace);
}
BENCHMARK(BM_DispatchTraceOn)->Arg(16)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DispatchFlightOnly(benchmark::State& state) {
  run_dispatch(state, Mode::kFlight);
}
BENCHMARK(BM_DispatchFlightOnly)->Arg(16)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void run_mjpeg(benchmark::State& state, Mode mode) {
  // QCIF x 2 frames with the paper's naive DCT: ~600 blocks x ~100us of
  // kernel work per frame, so the measured delta is tracing cost relative
  // to a real workload (the dispatch benches above bound the worst case).
  const auto video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(176, 144, 2));
  int64_t frames = 0;
  for (auto _ : state) {
    workloads::MjpegWorkload workload;
    workload.video = video;
    Runtime rt(workload.build(), mode_options(mode));
    const RunReport report = rt.run();
    frames += report.instrumentation.find("vlc_write")->instances - 1;
  }
  state.SetItemsProcessed(frames);
}

void BM_MjpegTraceOff(benchmark::State& state) {
  run_mjpeg(state, Mode::kOff);
}
BENCHMARK(BM_MjpegTraceOff)->Unit(benchmark::kMillisecond);

void BM_MjpegTraceOn(benchmark::State& state) {
  run_mjpeg(state, Mode::kTrace);
}
BENCHMARK(BM_MjpegTraceOn)->Unit(benchmark::kMillisecond);

void BM_MjpegFlightOnly(benchmark::State& state) {
  run_mjpeg(state, Mode::kFlight);
}
BENCHMARK(BM_MjpegFlightOnly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace p2g

BENCHMARK_MAIN();
