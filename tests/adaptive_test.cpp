// Tests for the runtime's granularity control (paper §V-A): unless a
// kernel schedule fixes the chunk size, the analyzer probes each kernel's
// body time and coarsens dispatch-bound kernels in one step, without
// changing results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "common/error.h"
#include "core/context.h"
#include "core/dependency.h"
#include "core/runtime.h"
#include "media/yuv.h"
#include "workloads/kmeans.h"
#include "workloads/mjpeg_workload.h"

namespace p2g {
namespace {

// Bounds compare counts, never wall time. How much the runtime must
// coarsen follows the mean body time it measured, which a sanitizer or a
// debug build inflates tenfold or more. Age 0 is sized from probes whose
// first body on each worker runs on cold caches (under a sanitizer that
// one body costs as much as tens of warm ones), hence the 8x slack.
// Sub-microsecond bodies (any optimized build) must be coarsened 10x.
int64_t min_coarsening(const KernelStats& stats) {
  const double body_ns = static_cast<double>(stats.kernel_ns) /
                         static_cast<double>(stats.instances);
  const double factor = DependencyAnalyzer::kTargetItemNs / (8 * body_ns);
  return std::clamp<int64_t>(static_cast<int64_t>(factor), 1, 10);
}

TEST(AdaptiveChunking, CoarsensDispatchBoundKernel) {
  // One iteration runs age 0 only, so its chunks are sized from the probes
  // alone; six iterations also size later ages from the running mean.
  for (const int iterations : {1, 6}) {
    workloads::KmeansWorkload workload;
    workload.config = workloads::KmeansConfig{
        .n = 400, .k = 20, .dim = 2, .iterations = iterations, .seed = 13};
    RunOptions opts;
    opts.workers = 2;
    workload.apply_schedule(opts);
    Runtime rt(workload.build(), opts);
    const RunReport report = rt.run();

    const auto* assign = report.instrumentation.find("assign");
    ASSERT_NE(assign, nullptr);
    EXPECT_EQ(assign->instances, 400 * 20 * iterations);
    EXPECT_LT(assign->dispatches * min_coarsening(*assign),
              assign->instances)
        << iterations << " iterations: dispatch-bound assign bodies must be "
        << "dispatched in chunks (" << assign->avg_kernel_us()
        << " us per body)";
    EXPECT_EQ(workload.snapshots->back(),
              workloads::kmeans_sequential(workload.config));
  }
}

TEST(AdaptiveChunking, BodyBoundKernelStaysFineGrained) {
  // A DCT block takes tens of microseconds, about the target item size:
  // at most a few blocks may share an item.
  workloads::MjpegWorkload workload;
  workload.video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(176, 144, 3));
  RunOptions opts;
  opts.workers = 2;
  Runtime rt(workload.build(), opts);
  const RunReport report = rt.run();
  const auto* ydct = report.instrumentation.find("yDCT");
  ASSERT_NE(ydct, nullptr);
  EXPECT_EQ(ydct->instances, 22 * 18 * 3);
  EXPECT_GE(ydct->dispatches * 4, ydct->instances);
  EXPECT_EQ(workload.output->frame_count(), 3u);
}

TEST(AdaptiveChunking, StorelessKernelReleasesHeldInstances) {
  // `sink` is wide, not serial and stores nothing, and the source stops
  // after age 0: once the source's events are handled, only the probes'
  // done events can release the instances held back for sizing. Without
  // them the run would end (or hang) with instances never run.
  constexpr int kWidth = 2000;
  auto runs = std::make_shared<std::vector<std::atomic<int>>>(kWidth);

  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "a", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({kWidth}));
        ctx.store_array("v", std::move(v));
      });
  pb.kernel("sink")
      .index("x")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
      .body([runs](KernelContext& ctx) {
        (*runs)[static_cast<size_t>(ctx.index(0))].fetch_add(1);
      });

  RunOptions opts;
  opts.workers = 2;
  opts.watchdog = std::chrono::seconds(20);
  Runtime rt(pb.build(), opts);
  const RunReport report = rt.run();
  EXPECT_FALSE(report.timed_out);
  for (size_t i = 0; i < runs->size(); ++i) {
    ASSERT_EQ((*runs)[i].load(), 1) << "instance " << i;
  }
  const auto* sink = report.instrumentation.find("sink");
  EXPECT_EQ(sink->instances, kWidth);
  EXPECT_LT(sink->dispatches, sink->instances);
}

TEST(AdaptiveChunking, ExplicitChunkOfOneIsPerInstance) {
  workloads::KmeansWorkload workload;
  workload.config = workloads::KmeansConfig{.n = 300, .k = 10, .dim = 2,
                                            .iterations = 3, .seed = 2};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  opts.kernel_schedules["assign"].chunk = 1;  // explicit: never coarsened
  Runtime rt(workload.build(), opts);
  const RunReport report = rt.run();
  const auto* assign = report.instrumentation.find("assign");
  EXPECT_EQ(assign->dispatches, assign->instances);
  EXPECT_EQ(workload.snapshots->back(),
            workloads::kmeans_sequential(workload.config));
}

TEST(AdaptiveChunking, ExplicitScheduleWins) {
  workloads::KmeansWorkload workload;
  workload.config = workloads::KmeansConfig{.n = 300, .k = 10, .dim = 2,
                                            .iterations = 5, .seed = 2};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  opts.kernel_schedules["assign"].chunk = 3;  // explicit: must stay 3
  Runtime rt(workload.build(), opts);
  const RunReport report = rt.run();
  const auto* assign = report.instrumentation.find("assign");
  // A fixed chunk of 3 cuts every box into sub-boxes of at most 3
  // instances (a row of 10 centroids into 3+3+3+1), so dispatches never
  // fall below instances / 3.
  EXPECT_GE(assign->dispatches * 3 + 2, assign->instances);
  EXPECT_EQ(workload.snapshots->back(),
            workloads::kmeans_sequential(workload.config));
}

TEST(AdaptiveChunking, RejectsChunkBelowOne) {
  workloads::KmeansWorkload workload;
  RunOptions opts;
  workload.apply_schedule(opts);
  opts.kernel_schedules["assign"].chunk = 0;
  try {
    Runtime rt(workload.build(), opts);
    FAIL() << "chunk 0 must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
}

}  // namespace
}  // namespace p2g
