// Table II: micro-benchmark of MJPEG encoding in P2G.
//
// One instrumented run of the MJPEG workload; reports per kernel
// definition the number of dispatched instances, the average dispatch time
// (fetch resolution + store commit, i.e. field allocation/copy work) and
// the average time inside kernel code — the same columns as the paper.
//
// At full scale (P2G_BENCH_FULL=1: CIF, 50 frames) the instance counts
// reproduce the paper exactly for the DCT kernels: 1584 luma + 2x396
// chroma blocks per frame.
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "core/runtime.h"
#include "media/yuv.h"
#include "workloads/mjpeg_workload.h"

using namespace p2g;

int main() {
  const bool full = bench::full_scale();
  const int frames = bench::env_int("P2G_FRAMES", full ? 50 : 10);

  std::printf("=== Table II: micro-benchmark of MJPEG encoding in P2G ===\n");
  std::printf("synthetic CIF 352x288, %d frames, naive DCT\n\n", frames);

  workloads::MjpegWorkload workload;
  workload.video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(352, 288, frames));
  Program program = workload.build();
  // The paper's columns are per instance: pin one instance per work item
  // instead of letting the runtime coarsen chunks.
  RunOptions opts;
  for (const KernelDef& k : program.kernels()) {
    opts.kernel_schedules[k.name].chunk = 1;
  }
  Runtime rt(std::move(program), opts);
  const RunReport report = rt.run();

  std::printf("%s\n", report.instrumentation.to_table().c_str());
  std::printf("total wall time: %.3f s\n\n", report.wall_s);
  std::printf("Paper (50 frames): init 1, read/splityuv 51, yDCT 80784, "
              "uDCT 20196,\nvDCT 20196, VLC/write 51; dispatch ~3 us for "
              "DCT kernels, kernel time\n~170 us per DCT block.\n");
  return 0;
}
