// Age reclamation: the analyzer releases each (field, age) once every local
// reader and writer has retired it. These tests check that stream memory
// stops growing with stream length, that nothing is released early (held
// views, constant-age fetches, captured fields on a cluster), and what a
// released age answers afterwards.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/context.h"
#include "dist/master.h"
#include "workloads/kmeans.h"
#include "workloads/pipeline.h"

namespace p2g {
namespace {

/// Peak resident set size of this process so far (KiB).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// The pipeline's `out` ages 0..frames, computed without the runtime
/// (PipelineWorkload: frame(0) is xorshift bytes, out = frame * 2 + 1,
/// next frame = out + 3, all mod 256).
std::vector<std::vector<uint8_t>> pipeline_reference(
    const workloads::PipelineConfig& config) {
  std::vector<uint8_t> frame(static_cast<size_t>(config.frame_bytes));
  uint32_t state = config.seed * 2654435761u + 1;
  for (uint8_t& b : frame) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    b = static_cast<uint8_t>(state);
  }
  std::vector<std::vector<uint8_t>> out;
  for (int a = 0; a <= config.frames; ++a) {
    std::vector<uint8_t> o(frame.size());
    for (size_t i = 0; i < frame.size(); ++i) {
      o[i] = static_cast<uint8_t>(frame[i] * 2 + 1);
      frame[i] = static_cast<uint8_t>(o[i] + 3);
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// Runs the whole-frame pipeline for `frames` ages on one runtime and
/// checks that both fields end with at most a few ages held.
void run_pipeline(int frames) {
  const workloads::PipelineWorkload workload{
      workloads::PipelineConfig{4096, frames, 1}};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  Runtime rt(workload.build(), opts);
  const RunReport report = rt.run();
  ASSERT_FALSE(report.timed_out);
  EXPECT_LE(rt.storage("frame").live_ages().size(), 4u) << frames;
  EXPECT_LE(rt.storage("out").live_ages().size(), 4u) << frames;
}

// Under a sanitizer the process's RSS is not the program's memory:
// AddressSanitizer quarantines freed blocks, and ThreadSanitizer's shadow
// and metadata grow with the run while its heap stays flat.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(AgeReclaim, StreamMemoryStaysFlatWithStreamLength) {
  run_pipeline(2000);
  const long after_short = peak_rss_kib();
  run_pipeline(20000);
  const long after_long = peak_rss_kib();
  if (kSanitized) GTEST_SKIP() << "peak RSS is the sanitizer's, not ours";
  // Without reclamation the long run alone would hold 2 x 20000 x 4 KiB.
  EXPECT_LE(after_long, after_short + after_short / 10)
      << "peak RSS " << after_short << " KiB after 2000 frames, "
      << after_long << " KiB after 20000";
}

TEST(AgeReclaim, LateDuplicateStoreIntoReleasedAgeThrows) {
  const workloads::PipelineWorkload workload{
      workloads::PipelineConfig{64, 8, 1}};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  Runtime rt(workload.build(), opts);
  rt.run();

  const FieldId frame = rt.program().find_field("frame");
  FieldStorage& storage = rt.storage(frame);
  ASSERT_TRUE(storage.live_ages().empty());
  EXPECT_TRUE(storage.is_sealed(1)) << "a released age stays sealed";
  EXPECT_TRUE(storage.is_complete(1));

  const std::vector<uint8_t> payload(64, 0);
  const nd::Region whole = nd::Region::whole(nd::Extents({64}));
  try {
    rt.inject_store(frame, 1, whole, rt.program().find_kernel("pump"), 0,
                    /*whole=*/true,
                    reinterpret_cast<const std::byte*>(payload.data()));
    FAIL() << "a store into a released age must not re-create it";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    const std::string what = e.what();
    EXPECT_NE(what.find("released age 1 of field frame"), std::string::npos)
        << what;
    EXPECT_NE(what.find("kernel 'pump'"), std::string::npos) << what;
  }
  EXPECT_TRUE(storage.live_ages().empty());

  try {
    (void)storage.fetch_whole(1);
    FAIL() << "a fetch of a released age must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_NE(std::string(e.what()).find("age 1 of field frame"),
              std::string::npos);
  }
}

TEST(AgeReclaim, HeldViewSurvivesReleaseOfItsAge) {
  // The pipeline with an xform that keeps every fetched view: each view
  // outlives the release of its age and must still read that age's bytes.
  constexpr int kFrames = 16;
  constexpr int kBytes = 256;
  auto held = std::make_shared<std::vector<std::optional<nd::ConstView>>>(
      kFrames + 1);

  ProgramBuilder pb;
  pb.field("frame", nd::ElementType::kUInt8, 1);
  pb.field("out", nd::ElementType::kUInt8, 1);
  const workloads::PipelineConfig config{kBytes, kFrames, 5};
  const Program reference_program =
      workloads::PipelineWorkload{config}.build();
  pb.kernel("src")
      .run_once()
      .store("f", "frame", AgeExpr::constant(0), Slice::whole())
      .body(reference_program.kernel(reference_program.find_kernel("src"))
                .body);
  pb.kernel("xform")
      .fetch("in", "frame", AgeExpr::relative(0), Slice::whole())
      .store("out", "out", AgeExpr::relative(0), Slice::whole())
      .body([held](KernelContext& ctx) {
        const nd::ConstView& in = ctx.fetch_view("in");
        (*held)[static_cast<size_t>(ctx.age())] = in;  // one writer per age
        nd::AnyBuffer result(nd::ElementType::kUInt8, in.extents());
        for (int64_t i = 0; i < in.element_count(); ++i) {
          result.data<uint8_t>()[i] =
              static_cast<uint8_t>(in.at_flat<uint8_t>(i) * 2 + 1);
        }
        ctx.store_array("out", std::move(result));
      });
  pb.kernel("pump")
      .fetch("in", "out", AgeExpr::relative(0), Slice::whole())
      .store("next", "frame", AgeExpr::relative(1), Slice::whole())
      .body(reference_program.kernel(reference_program.find_kernel("pump"))
                .body);

  RunOptions opts;
  opts.workers = 3;
  opts.max_age = kFrames;
  Runtime rt(pb.build(), opts);
  rt.run();
  EXPECT_TRUE(rt.storage("frame").live_ages().empty())
      << "every frame age was released while xform held a view of it";

  const std::vector<std::vector<uint8_t>> out = pipeline_reference(config);
  for (int a = 0; a <= kFrames; ++a) {
    const std::optional<nd::ConstView>& view =
        (*held)[static_cast<size_t>(a)];
    ASSERT_TRUE(view.has_value()) << a;
    ASSERT_EQ(view->element_count(), kBytes);
    for (int64_t i = 0; i < kBytes; ++i) {
      // frame(a) = (out(a) - 1) / 2 is ambiguous mod 256; compare forward.
      ASSERT_EQ(static_cast<uint8_t>(view->at_flat<uint8_t>(i) * 2 + 1),
                out[static_cast<size_t>(a)][static_cast<size_t>(i)])
          << "age " << a << " byte " << i;
    }
  }
}

TEST(AgeReclaim, HeldElementwiseViewSurvivesReleaseOfItsAge) {
  // The pipeline with an elementwise xform run in boxes of 8 instances
  // that keeps every fetched view: each instance's view is a window of
  // its box's footprint, and it too must outlive the release of its age.
  constexpr int kFrames = 16;
  constexpr int kBytes = 64;
  constexpr int64_t kChunk = 8;
  auto held = std::make_shared<std::vector<std::optional<nd::ConstView>>>(
      (kFrames + 1) * kBytes);

  ProgramBuilder pb;
  pb.field("frame", nd::ElementType::kUInt8, 1);
  pb.field("out", nd::ElementType::kUInt8, 1);
  const workloads::PipelineConfig config{kBytes, kFrames, 5};
  const Program reference_program =
      workloads::PipelineWorkload{config}.build();
  pb.kernel("src")
      .run_once()
      .store("f", "frame", AgeExpr::constant(0), Slice::whole())
      .body(reference_program.kernel(reference_program.find_kernel("src"))
                .body);
  pb.kernel("xform")
      .index("x")
      .fetch("in", "frame", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "out", AgeExpr::relative(0), Slice().var("x"))
      .body([held](KernelContext& ctx) {
        const nd::ConstView& in = ctx.fetch_view("in");
        // One writer per (age, x).
        (*held)[static_cast<size_t>(ctx.age() * kBytes + ctx.index(0))] = in;
        ctx.store_scalar<uint8_t>(
            "out", static_cast<uint8_t>(in.at_flat<uint8_t>(0) * 2 + 1));
      });
  pb.kernel("pump")
      .fetch("in", "out", AgeExpr::relative(0), Slice::whole())
      .store("next", "frame", AgeExpr::relative(1), Slice::whole())
      .body(reference_program.kernel(reference_program.find_kernel("pump"))
                .body);

  RunOptions opts;
  opts.workers = 3;
  opts.max_age = kFrames;
  opts.kernel_schedules["xform"].chunk = kChunk;
  Runtime rt(pb.build(), opts);
  const RunReport report = rt.run();
  EXPECT_TRUE(rt.storage("frame").live_ages().empty())
      << "every frame age was released while xform held views of it";
  const KernelStats* xform = report.instrumentation.find("xform");
  ASSERT_NE(xform, nullptr);
  EXPECT_EQ(xform->instances, (kFrames + 1) * kBytes);
  EXPECT_GE(xform->dispatches * kChunk, xform->instances);
  EXPECT_LT(xform->dispatches, xform->instances) << "items ran boxes";

  const std::vector<std::vector<uint8_t>> out = pipeline_reference(config);
  for (int a = 0; a <= kFrames; ++a) {
    for (int x = 0; x < kBytes; ++x) {
      const std::optional<nd::ConstView>& view =
          (*held)[static_cast<size_t>(a * kBytes + x)];
      ASSERT_TRUE(view.has_value()) << a << ", " << x;
      ASSERT_EQ(view->element_count(), 1);
      EXPECT_NE(view->keepalive(), nullptr)
          << "a window must hold its footprint's buffer";
      ASSERT_EQ(static_cast<uint8_t>(view->at_flat<uint8_t>(0) * 2 + 1),
                out[static_cast<size_t>(a)][static_cast<size_t>(x)])
          << "age " << a << " x " << x;
    }
  }
}

TEST(AgeReclaim, ConstantAgeFetchPinsItsAge) {
  // k-means fetches datapoints(0) from every assign and refine age: that
  // age must outlive them all, while the per-iteration fields go.
  workloads::KmeansWorkload workload;
  workload.config = workloads::KmeansConfig{.n = 40, .k = 4, .dim = 2,
                                            .iterations = 6, .seed = 3};
  RunOptions opts;
  opts.workers = 2;
  workload.apply_schedule(opts);
  Runtime rt(workload.build(), opts);
  rt.run();

  FieldStorage& points = rt.storage("datapoints");
  EXPECT_EQ(points.live_ages(), (std::vector<Age>{0}));
  EXPECT_EQ(points.fetch_whole(0).element_count(), 40 * 2);
  EXPECT_TRUE(rt.storage("centroids").live_ages().empty());
  EXPECT_TRUE(rt.storage("dist").live_ages().empty());
  ASSERT_FALSE(workload.snapshots->empty());
  EXPECT_EQ(workload.snapshots->back(),
            workloads::kmeans_sequential(workload.config));
}

TEST(AgeReclaim, ElidedIntermediateAgesGoWhenTheirPipelineRetires) {
  // stage_b is fused into stage_a and is mid's only consumer, so mid's
  // store is elided: its ages are sealed but never stored, hence never
  // complete. They must still go once the fused pair has retired them.
  constexpr int kElements = 16;
  constexpr Age kAges = 120;
  auto outputs = std::make_shared<std::vector<int32_t>>();
  ProgramBuilder pb;
  pb.field("input", nd::ElementType::kInt32, 1);
  pb.field("mid", nd::ElementType::kInt32, 1);
  pb.field("output", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "input", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        if (ctx.age() >= kAges) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({kElements}));
        for (int i = 0; i < kElements; ++i) {
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
        ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in") * 3);
      });
  pb.kernel("stage_b")
      .index("x")
      .fetch("in", "mid", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "output", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in") - 7);
      });
  pb.kernel("sink")
      .serial()
      .fetch("all", "output", AgeExpr::relative(0), Slice::whole())
      .body([outputs](KernelContext& ctx) {
        const nd::ConstView& all = ctx.fetch_view("all");
        outputs->push_back(all.at_flat<int32_t>(kElements - 1));
      });
  RunOptions opts;
  opts.workers = 2;
  opts.max_age = kAges;
  opts.fusions.push_back(FusionRule{"stage_a", "stage_b"});
  Runtime rt(pb.build(), opts);
  const RunReport report = rt.run();
  ASSERT_FALSE(report.timed_out);
  EXPECT_LE(rt.storage("mid").live_ages().size(), 4u);
  EXPECT_EQ(rt.storage("mid").memory_bytes(), 0u);
  EXPECT_LE(rt.storage("input").live_ages().size(), 4u);
  ASSERT_EQ(outputs->size(), static_cast<size_t>(kAges));
  for (Age a = 0; a < kAges; ++a) {
    EXPECT_EQ((*outputs)[static_cast<size_t>(a)],
              static_cast<int32_t>((a + kElements - 1) * 3 - 7))
        << "age " << a;
  }
}

TEST(AgeReclaim, RetainedFieldsKeepEveryAge) {
  const workloads::PipelineWorkload workload{
      workloads::PipelineConfig{64, 8, 1}};
  {
    RunOptions opts;
    opts.workers = 2;
    workload.apply_schedule(opts);
    opts.retain_fields = {"out"};
    Runtime rt(workload.build(), opts);
    rt.run();
    EXPECT_EQ(rt.storage("out").live_ages().size(), 9u);
    EXPECT_TRUE(rt.storage("frame").live_ages().empty());
  }
  {
    // Checked runs keep every field: writer provenance reads old ages.
    RunOptions opts;
    opts.workers = 2;
    workload.apply_schedule(opts);
    opts.checked = true;
    Runtime rt(workload.build(), opts);
    rt.run();
    EXPECT_EQ(rt.storage("out").live_ages().size(), 9u);
    EXPECT_EQ(rt.storage("frame").live_ages().size(), 10u);
  }
  RunOptions bad;
  bad.retain_fields = {"nope"};
  try {
    Runtime rt(workload.build(), bad);
    FAIL() << "an unknown retained field must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
}

/// The node that runs `kernel` in a finished master run.
size_t owner_of(const dist::Master& master,
                const dist::DistributedRunReport& report,
                const std::string& kernel) {
  const auto& names = master.final_graph().kernel_names;
  for (size_t k = 0; k < names.size(); ++k) {
    if (names[k] == kernel) {
      return report.placement[static_cast<size_t>(
          report.partition.assignment[k])];
    }
  }
  ADD_FAILURE() << "no kernel " << kernel;
  return 0;
}

TEST(AgeReclaimCluster, ThreeNodePipelineIsBitExactAndBoundsFrames) {
  const workloads::PipelineConfig config{512, 300, 7};
  dist::MasterOptions options;
  options.nodes = 3;
  options.workers_per_node = 1;
  workloads::PipelineWorkload{config}.apply_schedule(options.base_options);
  options.capture_fields = {"out"};
  options.program_factory = [config] {
    return workloads::PipelineWorkload{config}.build();
  };
  dist::Master master(options);
  dist::ThreadLauncher launcher;
  const dist::DistributedRunReport report = master.run(launcher);
  ASSERT_FALSE(report.timed_out);
  ASSERT_NE(owner_of(master, report, "xform"),
            owner_of(master, report, "pump"))
      << "the partition kept xform and pump together; nothing crossed nodes";

  const std::vector<std::vector<uint8_t>> reference =
      pipeline_reference(config);
  const auto& captured = report.captured.at("out");
  ASSERT_EQ(captured.size(), reference.size());
  for (size_t a = 0; a < reference.size(); ++a) {
    const auto it = captured.find(static_cast<Age>(a));
    ASSERT_NE(it, captured.end()) << a;
    EXPECT_EQ(it->second, reference[a]) << "age " << a;
  }

  size_t out_holders = 0;
  for (dist::ExecutionNode* node : launcher.local_nodes()) {
    Runtime& rt = node->runtime();
    EXPECT_LE(rt.storage("frame").live_ages().size(), 4u) << node->name();
    const size_t out_ages = rt.storage("out").live_ages().size();
    if (out_ages > 4) {
      EXPECT_EQ(out_ages, reference.size()) << node->name();
      ++out_holders;
    }
  }
  EXPECT_EQ(out_holders, 1u) << "only out's producer retains it";
}

TEST(AgeReclaimCluster, CapturedFieldWithProducersOnTwoNodesStaysComplete) {
  // pair(a) = {2 * tick(a), tick(a) + 1}, written half by `left` and half
  // by `right`; join folds it into tick(a + 1). Only join's node sees
  // complete pair ages, so it must retain them for the capture.
  constexpr Age kAges = 20;
  const auto build = [] {
    ProgramBuilder pb;
    pb.field("tick", nd::ElementType::kInt32, 1);
    pb.field("pair", nd::ElementType::kInt32, 1);
    pb.kernel("init")
        .run_once()
        .store("t", "tick", AgeExpr::constant(0), Slice::whole())
        .body([](KernelContext& ctx) {
          nd::AnyBuffer t(nd::ElementType::kInt32, nd::Extents({1}));
          t.data<int32_t>()[0] = 1;
          ctx.store_array("t", std::move(t));
        });
    pb.kernel("left")
        .fetch("t", "tick", AgeExpr::relative(0), Slice::whole())
        .store("p", "pair", AgeExpr::relative(0), Slice().at(0))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>(
              "p", 2 * ctx.fetch_view("t").at_flat<int32_t>(0));
        });
    pb.kernel("right")
        .fetch("t", "tick", AgeExpr::relative(0), Slice::whole())
        .store("p", "pair", AgeExpr::relative(0), Slice().at(1))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>(
              "p", ctx.fetch_view("t").at_flat<int32_t>(0) + 1);
        });
    pb.kernel("join")
        .fetch("p", "pair", AgeExpr::relative(0), Slice::whole())
        .store("t", "tick", AgeExpr::relative(1), Slice::whole())
        .body([](KernelContext& ctx) {
          const nd::ConstView& p = ctx.fetch_view("p");
          nd::AnyBuffer t(nd::ElementType::kInt32, nd::Extents({1}));
          t.data<int32_t>()[0] =
              (p.at_flat<int32_t>(0) + p.at_flat<int32_t>(1)) % 1000;
          ctx.store_array("t", std::move(t));
        });
    return pb.build();
  };

  dist::MasterOptions options;
  options.nodes = 4;
  options.workers_per_node = 1;
  options.base_options.max_age = kAges;
  options.capture_fields = {"pair"};
  options.program_factory = build;
  dist::Master master(options);
  dist::ThreadLauncher launcher;
  const dist::DistributedRunReport report = master.run(launcher);
  ASSERT_FALSE(report.timed_out);
  ASSERT_NE(owner_of(master, report, "left"),
            owner_of(master, report, "right"))
      << "the partition put both producers of pair on one node";
  ASSERT_NE(owner_of(master, report, "left"), owner_of(master, report, "join"));
  ASSERT_NE(owner_of(master, report, "right"),
            owner_of(master, report, "join"));

  const auto& captured = report.captured.at("pair");
  ASSERT_EQ(captured.size(), static_cast<size_t>(kAges + 1));
  int32_t tick = 1;
  for (Age a = 0; a <= kAges; ++a) {
    const std::vector<uint8_t>& bytes = captured.at(a);
    ASSERT_EQ(bytes.size(), 2 * sizeof(int32_t)) << a;
    int32_t pair[2];
    std::memcpy(pair, bytes.data(), sizeof(pair));
    EXPECT_EQ(pair[0], 2 * tick) << a;
    EXPECT_EQ(pair[1], tick + 1) << a;
    tick = (pair[0] + pair[1]) % 1000;
  }
}

}  // namespace
}  // namespace p2g
