// Property-based tests (parameterized gtest sweeps): determinism across
// scheduler configurations, quiescence of randomized pipeline programs,
// write-once enforcement under parallel stress, and the static
// first-feasible-age analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"

#include "analysis/lint.h"
#include "core/context.h"
#include "core/dependency.h"
#include "core/runtime.h"
#include "workloads/kmeans.h"
#include "workloads/mul2plus5.h"

namespace p2g {
namespace {

// ---------------------------------------------------------------------------
// Determinism: the mul2/plus5 cycle produces identical output under every
// combination of worker count, chunking and fusion.

struct SchedulerConfig {
  int workers;
  int64_t chunk;  ///< 0: unset, the runtime sizes chunks itself
  bool fuse;
};

class DeterminismSweep : public ::testing::TestWithParam<SchedulerConfig> {};

TEST_P(DeterminismSweep, Mul2Plus5OutputIsInvariant) {
  const SchedulerConfig& config = GetParam();

  workloads::Mul2Plus5 reference;
  {
    RunOptions opts;
    opts.workers = 1;
    opts.max_age = 6;
    Runtime rt(reference.build(), opts);
    rt.run();
  }

  workloads::Mul2Plus5 subject;
  RunOptions opts;
  opts.workers = config.workers;
  opts.max_age = 6;
  if (config.chunk > 0) {
    opts.kernel_schedules["mul2"].chunk = config.chunk;
    opts.kernel_schedules["plus5"].chunk = config.chunk;
  }
  if (config.fuse) opts.fusions.push_back(FusionRule{"mul2", "plus5"});
  Runtime rt(subject.build(), opts);
  rt.run();

  EXPECT_EQ(*subject.printed, *reference.printed);
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DeterminismSweep,
    ::testing::Values(SchedulerConfig{1, 1, false},
                      SchedulerConfig{2, 1, false},
                      SchedulerConfig{4, 1, false},
                      SchedulerConfig{2, 3, false},
                      SchedulerConfig{4, 5, false},
                      SchedulerConfig{4, 2, false},
                      SchedulerConfig{2, 1, true},
                      SchedulerConfig{4, 4, true},
                      SchedulerConfig{1, 0, false},
                      SchedulerConfig{2, 0, false},
                      SchedulerConfig{4, 0, false},
                      SchedulerConfig{2, 0, true}),
    [](const auto& info) {
      const SchedulerConfig& c = info.param;
      return "w" + std::to_string(c.workers) + "_c" +
             (c.chunk > 0 ? std::to_string(c.chunk) : std::string("auto")) +
             "_prio" + (c.fuse ? "_fused" : "");
    });

// ---------------------------------------------------------------------------
// Random pipeline programs drain to quiescence and compute the same values
// regardless of the worker count.

struct PipelineSpec {
  uint32_t seed;
  int stages;
  int width;
  int ages;
};

class RandomPipeline : public ::testing::TestWithParam<PipelineSpec> {
 protected:
  /// Builds source -> stage_1 -> ... -> stage_n with per-stage arithmetic
  /// derived from the seed; returns the sink field's expected content.
  static Program build(const PipelineSpec& spec) {
    ProgramBuilder pb;
    pb.field("f0", nd::ElementType::kInt64, 1);
    for (int s = 1; s <= spec.stages; ++s) {
      pb.field("f" + std::to_string(s), nd::ElementType::kInt64, 1);
    }

    const int width = spec.width;
    const int ages = spec.ages;
    pb.kernel("source")
        .store("v", "f0", AgeExpr::relative(0), Slice::whole())
        .body([width, ages](KernelContext& ctx) {
          if (ctx.age() >= ages) return;
          nd::AnyBuffer v(nd::ElementType::kInt64, nd::Extents({width}));
          for (int i = 0; i < width; ++i) {
            v.data<int64_t>()[i] = ctx.age() * 1000 + i;
          }
          ctx.store_array("v", std::move(v));
          ctx.continue_next_age();
        });

    Rng rng(spec.seed);
    for (int s = 1; s <= spec.stages; ++s) {
      const int64_t mul = 1 + static_cast<int64_t>(rng() % 5);
      const int64_t add = static_cast<int64_t>(rng() % 100);
      pb.kernel("stage" + std::to_string(s))
          .index("x")
          .fetch("in", "f" + std::to_string(s - 1), AgeExpr::relative(0),
                 Slice().var("x"))
          .store("out", "f" + std::to_string(s), AgeExpr::relative(0),
                 Slice().var("x"))
          .body([mul, add](KernelContext& ctx) {
            ctx.store_scalar<int64_t>(
                "out", ctx.fetch_scalar<int64_t>("in") * mul + add);
          });
    }
    return pb.build();
  }
};

TEST_P(RandomPipeline, DrainsAndMatchesAcrossWorkerCounts) {
  const PipelineSpec& spec = GetParam();
  std::vector<int64_t> reference;
  for (int workers : {1, 3}) {
    RunOptions opts;
    opts.workers = workers;
    opts.watchdog = std::chrono::milliseconds(20000);
    Runtime rt(build(spec), opts);
    const RunReport report = rt.run();
    ASSERT_FALSE(report.timed_out) << "pipeline did not drain";

    std::vector<int64_t> sink;
    FieldStorage& last = rt.storage("f" + std::to_string(spec.stages));
    for (int a = 0; a < spec.ages; ++a) {
      const nd::AnyBuffer buf = last.fetch_whole(a);
      sink.insert(sink.end(), buf.data<int64_t>(),
                  buf.data<int64_t>() + buf.element_count());
    }
    if (reference.empty()) {
      reference = std::move(sink);
      ASSERT_EQ(reference.size(),
                static_cast<size_t>(spec.ages) *
                    static_cast<size_t>(spec.width));
    } else {
      EXPECT_EQ(sink, reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomPipeline,
    ::testing::Values(PipelineSpec{1, 2, 4, 5}, PipelineSpec{2, 4, 8, 7},
                      PipelineSpec{3, 1, 16, 3}, PipelineSpec{4, 6, 2, 11},
                      PipelineSpec{5, 3, 5, 20}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Write-once enforcement under parallel stress: many kernels race to store
// overlapping cells; exactly one wins, the rest trigger the violation.

TEST(WriteOnceStress, ParallelOverlappingStoresAlwaysThrow) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    ProgramBuilder pb;
    pb.field("seed", nd::ElementType::kInt32, 1);
    pb.field("target", nd::ElementType::kInt32, 1);
    pb.kernel("init")
        .run_once()
        .store("v", "seed", AgeExpr::constant(0), Slice::whole())
        .body([](KernelContext& ctx) {
          nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({8}));
          ctx.store_array("v", std::move(v));
        });
    for (int k = 0; k < 4; ++k) {
      pb.kernel("writer" + std::to_string(k))
          .index("x")
          .fetch("in", "seed", AgeExpr::relative(0), Slice().var("x"))
          .store("out", "target", AgeExpr::relative(0), Slice().var("x"))
          .body([](KernelContext& ctx) {
            ctx.store_scalar<int32_t>("out", 1);
          });
    }
    RunOptions opts;
    opts.workers = 4;
    opts.max_age = 0;
    Runtime rt(pb.build(), opts);
    try {
      rt.run();
      FAIL() << "overlapping stores must be detected";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    }
  }
}

// ---------------------------------------------------------------------------
// First-feasible-age analysis.

TEST(FirstFeasible, OffsetsPropagateTransitively) {
  ProgramBuilder pb;
  pb.field("raw", nd::ElementType::kInt32, 1);
  pb.field("smooth", nd::ElementType::kInt32, 1);
  pb.field("out", nd::ElementType::kInt32, 1);
  auto body = [](KernelContext&) {};
  pb.kernel("src")
      .store("v", "raw", AgeExpr::relative(0), Slice::whole())
      .body(body);
  pb.kernel("smoother")
      .index("x")
      .fetch("cur", "raw", AgeExpr::relative(0), Slice().var("x"))
      .fetch("prev", "raw", AgeExpr::relative(-2), Slice().var("x"))
      .store("o", "smooth", AgeExpr::relative(0), Slice().var("x"))
      .body(body);
  pb.kernel("reporter")
      .serial()
      .fetch("s", "smooth", AgeExpr::relative(-1), Slice::whole())
      .body(body);
  const Program program = pb.build();
  const std::vector<Age> first =
      DependencyAnalyzer::first_feasible_ages(program);
  EXPECT_EQ(first[static_cast<size_t>(program.find_kernel("src"))], 0);
  EXPECT_EQ(first[static_cast<size_t>(program.find_kernel("smoother"))], 2);
  // reporter needs smooth(a-1), smooth starts at 2 -> a >= 3.
  EXPECT_EQ(first[static_cast<size_t>(program.find_kernel("reporter"))], 3);
}

TEST(FirstFeasible, UnproducedFieldIsInfeasible) {
  ProgramBuilder pb;
  pb.field("ghost", nd::ElementType::kInt32, 1);
  pb.kernel("consumer")
      .index("x")
      .fetch("in", "ghost", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext&) {});
  const Program program = pb.build();
  const std::vector<Age> first =
      DependencyAnalyzer::first_feasible_ages(program);
  EXPECT_GE(first[0], DependencyAnalyzer::kInfeasible);
}

TEST(FirstFeasible, SerialKernelWithLeadingGapDrains) {
  // The scenario that used to hang: a serial observer of a field whose
  // first age is 1 (structural a-1 offset upstream).
  ProgramBuilder pb;
  pb.field("raw", nd::ElementType::kInt32, 1);
  pb.field("delta", nd::ElementType::kInt32, 1);
  pb.kernel("src")
      .store("v", "raw", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        if (ctx.age() >= 4) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({2}));
        v.data<int32_t>()[0] = static_cast<int32_t>(ctx.age());
        v.data<int32_t>()[1] = static_cast<int32_t>(ctx.age() * 2);
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("diff")
      .index("x")
      .fetch("cur", "raw", AgeExpr::relative(0), Slice().var("x"))
      .fetch("prev", "raw", AgeExpr::relative(-1), Slice().var("x"))
      .store("o", "delta", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("o",
                                  ctx.fetch_scalar<int32_t>("cur") -
                                      ctx.fetch_scalar<int32_t>("prev"));
      });
  auto seen = std::make_shared<std::vector<Age>>();
  pb.kernel("observe")
      .serial()
      .fetch("d", "delta", AgeExpr::relative(0), Slice::whole())
      .body([seen](KernelContext& ctx) { seen->push_back(ctx.age()); });

  RunOptions opts;
  opts.workers = 2;
  opts.watchdog = std::chrono::milliseconds(10000);
  Runtime rt(pb.build(), opts);
  const RunReport report = rt.run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(*seen, (std::vector<Age>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// K-means invariance across chunk sizes (granularity must not change the
// arithmetic).

class KmeansChunkSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(KmeansChunkSweep, ResultInvariantUnderChunking) {
  workloads::KmeansWorkload workload;
  workload.config = workloads::KmeansConfig{.n = 60, .k = 6, .dim = 2,
                                            .iterations = 3, .seed = 11};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  opts.kernel_schedules["assign"].chunk = GetParam();
  Runtime rt(workload.build(), opts);
  rt.run();
  EXPECT_EQ(workload.snapshots->back(),
            workloads::kmeans_sequential(workload.config));
}

// ---------------------------------------------------------------------------
// p2g-lint: randomized disjoint slice partitions must never produce a
// P2G-W001 false positive, and introducing a genuine overlap must always
// be caught.

namespace lintprop {

/// Builds a program where `writers` kernels write disjoint constant rows
/// of a rank-2 field. When `shared_row` is set, two kernels additionally
/// write that same row — the only genuine conflict.
Program partition_program(Rng& rng, int writers, int rows,
                          std::optional<int64_t> shared_row) {
  std::vector<int64_t> perm(static_cast<size_t>(rows));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);

  const auto nop = [](KernelContext&) {};
  ProgramBuilder pb;
  pb.field("src", nd::ElementType::kInt32, 2);
  pb.field("dst", nd::ElementType::kInt32, 2);
  pb.kernel("seed")
      .store("out", "src", AgeExpr::relative(0), Slice())
      .body(nop);
  std::vector<KernelBuilder*> kernels;
  for (int w = 0; w < writers; ++w) {
    kernels.push_back(
        &pb.kernel("writer" + std::to_string(w))
             .index("x")
             .fetch("in", "src", AgeExpr::relative(0),
                    Slice().at(0).var("x"))
             .body(nop));
  }
  for (size_t i = 0; i < perm.size(); ++i) {
    kernels[i % kernels.size()]->store(
        "s" + std::to_string(perm[i]), "dst", AgeExpr::relative(0),
        Slice().at(perm[i]).var("x"));
  }
  if (shared_row.has_value()) {
    kernels[0]->store("shared0", "dst", AgeExpr::relative(0),
                      Slice().at(*shared_row).var("x"));
    kernels[1]->store("shared1", "dst", AgeExpr::relative(0),
                      Slice().at(*shared_row).var("x"));
  }
  return pb.build();
}

}  // namespace lintprop

TEST(LintProperty, DisjointConstantPartitionsNeverReportW001) {
  Rng rng(20260806);
  for (int trial = 0; trial < 40; ++trial) {
    const int writers = 2 + static_cast<int>(rng() % 4);
    const int rows = writers + static_cast<int>(rng() % 8);
    const Program program =
        lintprop::partition_program(rng, writers, rows, std::nullopt);
    const analysis::LintReport report = analysis::lint(program);
    EXPECT_EQ(report.count(analysis::kWriteConflict), 0u)
        << "trial " << trial << " (" << writers << " writers, " << rows
        << " rows):\n"
        << report.to_text();
  }
}

TEST(LintProperty, SharedRowIsAlwaysReported) {
  Rng rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const int writers = 2 + static_cast<int>(rng() % 4);
    const int rows = writers + static_cast<int>(rng() % 8);
    const auto shared = static_cast<int64_t>(rng() % rows + 100);  // fresh row
    const Program program =
        lintprop::partition_program(rng, writers, rows, shared);
    const analysis::LintReport report = analysis::lint(program);
    EXPECT_GE(report.count(analysis::kWriteConflict), 1u)
        << "trial " << trial;
    const analysis::Diagnostic* d = report.find(analysis::kWriteConflict);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, analysis::Severity::kError);
  }
}

TEST(LintProperty, WorkloadProgramsAreClean) {
  // The shipped workloads must stay free of findings — the zero-false-
  // positive guarantee on real programs.
  workloads::Mul2Plus5 m2p5;
  EXPECT_TRUE(analysis::lint(m2p5.build()).empty());
  workloads::KmeansWorkload kmeans;
  EXPECT_TRUE(analysis::lint(kmeans.build()).empty());
}

INSTANTIATE_TEST_SUITE_P(Chunks, KmeansChunkSweep,
                         ::testing::Values(1, 2, 7, 32, 1024));

}  // namespace
}  // namespace p2g
