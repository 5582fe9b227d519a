// Ablation: task fusion (paper §V-A / Fig. 4 Age=3).
//
// Fusing plus5 into mul2 runs the downstream body immediately on the
// upstream's stored value, skipping one full dispatch round-trip per
// element. When the intermediate field has no other consumer, the store is
// elided entirely ("storing to m_data could be circumvented in its
// entirety") — we measure both variants against the unfused baseline.
#include <cstdio>

#include "bench_util.h"
#include "core/context.h"
#include "core/runtime.h"
#include "workloads/mul2plus5.h"

using namespace p2g;

namespace {

/// A two-stage pipeline whose intermediate field has a single consumer, so
/// fusion can elide the intermediate store (unlike mul2plus5, where print
/// also reads it).
Program elidable_pipeline(int elements) {
  ProgramBuilder pb;
  pb.field("input", nd::ElementType::kInt32, 1);
  pb.field("mid", nd::ElementType::kInt32, 1);
  pb.field("output", nd::ElementType::kInt32, 1);

  pb.kernel("source")
      .store("v", "input", AgeExpr::relative(0), Slice::whole())
      .body([elements](KernelContext& ctx) {
        if (ctx.age() >= 200) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({elements}));
        for (int i = 0; i < elements; ++i) {
          v.data<int32_t>()[i] = static_cast<int32_t>(ctx.age()) + i;
        }
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("stage_a")
      .index("x")
      .fetch("in", "input", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "mid", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out",
                                  ctx.fetch_scalar<int32_t>("in") * 3);
      });
  pb.kernel("stage_b")
      .index("x")
      .fetch("in", "mid", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "output", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out",
                                  ctx.fetch_scalar<int32_t>("in") - 7);
      });
  return pb.build();
}

}  // namespace

int main() {
  const Age max_age = bench::env_int("P2G_AGES", 400);
  const int elements = bench::env_int("P2G_ELEMENTS", 64);

  std::printf("=== Ablation: task fusion (mul2/plus5 cycle, %lld ages, %d "
              "elements) ===\n\n",
              static_cast<long long>(max_age), elements);
  std::printf("%-28s  %10s  %14s\n", "configuration", "wall_s",
              "dispatches");

  for (const bool fused : {false, true}) {
    workloads::Mul2Plus5 workload;
    workload.elements = elements;
    RunOptions opts;
    opts.max_age = max_age;
    if (fused) opts.fusions.push_back(FusionRule{"mul2", "plus5"});
    Runtime rt(workload.build(), opts);
    const RunReport report = rt.run();
    int64_t dispatches = 0;
    for (const auto& k : report.instrumentation.kernels) {
      dispatches += k.dispatches;
    }
    std::printf("%-28s  %10.3f  %14lld\n",
                fused ? "mul2+plus5 fused" : "unfused baseline",
                report.wall_s, static_cast<long long>(dispatches));
  }

  std::printf("\npipeline with elidable intermediate (stage_a -> mid -> "
              "stage_b):\n");
  for (const bool fused : {false, true}) {
    Program prog = elidable_pipeline(elements);
    RunOptions opts;
    opts.max_age = 300;
    // Kept past its consumer so the bytes below show the elision, not
    // age reclamation.
    opts.retain_fields = {"mid"};
    if (fused) opts.fusions.push_back(FusionRule{"stage_a", "stage_b"});
    Runtime rt(std::move(prog), opts);
    const RunReport report = rt.run();
    // With fusion the mid field receives no stores at all.
    const size_t mid_bytes = rt.storage("mid").memory_bytes();
    int64_t dispatches = 0;
    for (const auto& k : report.instrumentation.kernels) {
      dispatches += k.dispatches;
    }
    std::printf("%-28s  %10.3f  %14lld  (mid field: %zu bytes)\n",
                fused ? "fused, store elided" : "unfused baseline",
                report.wall_s, static_cast<long long>(dispatches),
                mid_bytes);
  }
  return 0;
}
