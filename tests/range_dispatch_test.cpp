// Range dispatch: the analyzer dispatches boxes of index coordinates and a
// worker runs each box in one context, committing each store declaration
// once. These tests check that results stay bit-exact across worker counts
// and chunk sizes, that boxes fall back to per-instance commits where an
// image cannot be one store, that a partly written footprint still
// dispatches every coordinate exactly once, that write-once violations
// still name the offending instance, and that the slice rule (the
// constraining fetch's check is skipped only when that fetch is
// elementwise) never dispatches an instance before its data is there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/context.h"
#include "core/dependency.h"
#include "core/runtime.h"
#include "media/yuv.h"
#include "workloads/kmeans.h"
#include "workloads/mjpeg_workload.h"
#include "workloads/standalone_mjpeg.h"

namespace p2g {
namespace {

/// Pinned chunk sizes to run with; nullopt leaves sizing to the runtime.
const std::vector<std::optional<int64_t>> kChunks = {1, 7, std::nullopt};

std::string chunk_name(const std::optional<int64_t>& chunk) {
  return chunk ? "chunk " + std::to_string(*chunk) : "chunk auto";
}

TEST(RangeDispatch, KmeansSnapshotsAreBitExactAcrossWorkersAndChunks) {
  const workloads::KmeansConfig config{
      .n = 150, .k = 12, .dim = 2, .iterations = 4, .seed = 5};
  // Every age's snapshot, computed without the runtime.
  std::vector<std::vector<double>> reference;
  for (int it = 0; it <= config.iterations; ++it) {
    workloads::KmeansConfig upto = config;
    upto.iterations = it;
    reference.push_back(workloads::kmeans_sequential(upto));
  }
  for (const int workers : {1, 3, 4}) {
    for (const std::optional<int64_t>& chunk : kChunks) {
      workloads::KmeansWorkload workload;
      workload.config = config;
      RunOptions opts;
      opts.workers = workers;
      opts.watchdog = std::chrono::seconds(30);
      workload.apply_schedule(opts);
      opts.kernel_schedules["assign"].chunk = chunk;
      Runtime rt(workload.build(), opts);
      const RunReport report = rt.run();
      ASSERT_FALSE(report.timed_out);
      EXPECT_EQ(*workload.snapshots, reference)
          << workers << " workers, " << chunk_name(chunk);
      const auto* assign = report.instrumentation.find("assign");
      ASSERT_NE(assign, nullptr);
      EXPECT_EQ(assign->instances,
                config.n * config.k * config.iterations);
      if (chunk) {
        EXPECT_GE(assign->dispatches * *chunk, assign->instances)
            << "a pinned chunk bounds every box";
      }
    }
  }
}

TEST(RangeDispatch, InstancesThatDoNotStoreCommitTheOthersOneByOne) {
  // `even` stores only at even x, so no box's image is complete and each
  // stored instance commits on its own; `copy` runs exactly on the
  // elements that were written.
  constexpr int kWidth = 40;
  auto copies = std::make_shared<std::vector<std::atomic<int>>>(kWidth);
  ProgramBuilder pb;
  pb.field("in", nd::ElementType::kInt32, 1);
  pb.field("half", nd::ElementType::kInt32, 1);
  pb.field("copied", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "in", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({kWidth}));
        for (int i = 0; i < kWidth; ++i) v.data<int32_t>()[i] = 100 + i;
        ctx.store_array("v", std::move(v));
      });
  pb.kernel("even")
      .index("x")
      .fetch("in", "in", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "half", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        if (ctx.index(0) % 2 == 0) {
          ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("in"));
        }
      });
  pb.kernel("copy")
      .index("x")
      .fetch("in", "half", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "copied", AgeExpr::relative(0), Slice().var("x"))
      .body([copies](KernelContext& ctx) {
        (*copies)[static_cast<size_t>(ctx.index(0))].fetch_add(1);
        ctx.store_scalar<int32_t>("out", -ctx.fetch_scalar<int32_t>("in"));
      });
  for (const std::optional<int64_t>& chunk : kChunks) {
    for (auto& c : *copies) c.store(0);
    RunOptions opts;
    opts.workers = 3;
    opts.max_age = 0;
    opts.watchdog = std::chrono::seconds(30);
    opts.retain_fields = {"half"};
    opts.kernel_schedules["even"].chunk = chunk;
    Runtime rt(pb.build(), opts);
    const RunReport report = rt.run();
    ASSERT_FALSE(report.timed_out);
    FieldStorage& half = rt.storage("half");
    FieldStorage& copied = rt.storage("copied");
    EXPECT_EQ(half.written_count(0), kWidth / 2) << chunk_name(chunk);
    for (int x = 0; x < kWidth; ++x) {
      const nd::Region cell(std::vector<nd::Interval>{{x, x + 1}});
      const bool even = x % 2 == 0;
      EXPECT_EQ(half.region_written(0, cell), even) << x;
      EXPECT_EQ((*copies)[static_cast<size_t>(x)].load(), even ? 1 : 0)
          << x << ", " << chunk_name(chunk);
      if (even) {
        EXPECT_EQ(half.fetch(0, cell).at<int32_t>(0), 100 + x);
        EXPECT_EQ(copied.fetch(0, cell).at<int32_t>(0), -(100 + x));
      }
    }
  }
}

TEST(RangeDispatch, PartlyWrittenFootprintDispatchesEachCoordinateOnce) {
  // `rows` writes mid one row per instance, so the first seal of mid(a)
  // finds the cell box's footprint only partly written: the analyzer
  // splits it, dispatches the written rows and picks the rest up from
  // later row stores. Every cell must run exactly once.
  constexpr int kRows = 13;
  constexpr int kCols = 6;
  constexpr Age kAges = 4;
  auto runs = std::make_shared<std::vector<std::atomic<int>>>(
      static_cast<size_t>((kAges + 1) * kRows * kCols));
  ProgramBuilder pb;
  pb.field("in", nd::ElementType::kInt32, 1);
  pb.field("mid", nd::ElementType::kInt32, 2);
  pb.field("out", nd::ElementType::kInt32, 2);
  pb.kernel("source")
      .store("v", "in", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        if (ctx.age() > kAges) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({kRows}));
        for (int r = 0; r < kRows; ++r) v.data<int32_t>()[r] = r;
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("rows")
      .index("r")
      .fetch("in", "in", AgeExpr::relative(0), Slice().var("r"))
      .store("row", "mid", AgeExpr::relative(0), Slice().var("r").all())
      .body([](KernelContext& ctx) {
        const int32_t r = ctx.fetch_scalar<int32_t>("in");
        nd::AnyBuffer row(nd::ElementType::kInt32, nd::Extents({kCols}));
        for (int c = 0; c < kCols; ++c) {
          row.data<int32_t>()[c] =
              static_cast<int32_t>(ctx.age()) * 1000 + r * 10 + c;
        }
        ctx.store_array("row", std::move(row));
      });
  pb.kernel("cell")
      .index("x")
      .index("y")
      .fetch("v", "mid", AgeExpr::relative(0), Slice().var("x").var("y"))
      .store("o", "out", AgeExpr::relative(0), Slice().var("x").var("y"))
      .body([runs](KernelContext& ctx) {
        const size_t slot = static_cast<size_t>(
            (ctx.age() * kRows + ctx.index(0)) * kCols + ctx.index(1));
        (*runs)[slot].fetch_add(1);
        ctx.store_scalar<int32_t>("o", ctx.fetch_scalar<int32_t>("v") + 1);
      });
  for (const std::optional<int64_t>& chunk : kChunks) {
    for (auto& r : *runs) r.store(0);
    RunOptions opts;
    opts.workers = 4;
    opts.max_age = kAges;
    opts.watchdog = std::chrono::seconds(30);
    opts.retain_fields = {"out"};
    opts.kernel_schedules["rows"].chunk = 1;  // rows land one at a time
    opts.kernel_schedules["cell"].chunk = chunk;
    Runtime rt(pb.build(), opts);
    const RunReport report = rt.run();
    ASSERT_FALSE(report.timed_out);
    for (Age a = 0; a <= kAges; ++a) {
      const nd::AnyBuffer out = rt.storage("out").fetch_whole(a);
      for (int x = 0; x < kRows; ++x) {
        for (int y = 0; y < kCols; ++y) {
          const size_t slot =
              static_cast<size_t>((a * kRows + x) * kCols + y);
          EXPECT_EQ((*runs)[slot].load(), 1)
              << "age " << a << " cell " << x << "," << y << ", "
              << chunk_name(chunk);
          EXPECT_EQ(out.at<int32_t>(x * kCols + y),
                    static_cast<int32_t>(a) * 1000 + x * 10 + y + 1);
        }
      }
    }
    const auto* cell = report.instrumentation.find("cell");
    EXPECT_EQ(cell->instances, (kAges + 1) * kRows * kCols);
    const auto stats = rt.analyzer().memory_stats();
    EXPECT_EQ(stats.open_ages, 0u);
    EXPECT_EQ(stats.open_boxes, 0u);
  }
}

/// Two kernels store the same elements of `b`: writer_a only x >= 3,
/// writer_b every x. The second commit to land must raise
/// kWriteOnceViolation naming its kernel, age and the indices of the
/// instance behind its first conflicting element, x = 3 (not the box's
/// first instance).
Program overlapping_writers() {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        ctx.store_array("v",
                        nd::AnyBuffer(nd::ElementType::kInt32, nd::Extents({6})));
      });
  for (const int64_t from : {3, 0}) {
    pb.kernel(from == 3 ? "writer_a" : "writer_b")
        .index("x")
        .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
        .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
        .body([from](KernelContext& ctx) {
          if (ctx.index(0) >= from) ctx.store_scalar<int32_t>("out", 1);
        });
  }
  return pb.build();
}

/// A kernel over (x, j) whose store addresses x alone: instances (x, 0)
/// and (x, 1) store the same element, so a box holding both cannot commit
/// as one image and its second instance is the violation.
Program colliding_instances() {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 2);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        ctx.store_array("v", nd::AnyBuffer(nd::ElementType::kInt32,
                                           nd::Extents({3, 2})));
      });
  pb.kernel("fold")
      .index("x")
      .index("j")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("x").var("j"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) { ctx.store_scalar<int32_t>("out", 1); });
  return pb.build();
}

/// Runs `program` and returns the message of the write-once violation it
/// must raise.
std::string violation_of(Program program, bool checked,
                         std::optional<int64_t> chunk,
                         const std::string& kernel) {
  RunOptions opts;
  opts.workers = 1;
  opts.max_age = 0;
  opts.checked = checked;
  opts.watchdog = std::chrono::seconds(30);
  if (chunk) opts.kernel_schedules[kernel].chunk = chunk;
  Runtime rt(std::move(program), opts);
  try {
    rt.run();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected a write-once violation";
  return {};
}

TEST(RangeDispatch, OverlappingBoxStoreNamesTheConflictingInstance) {
  for (const bool checked : {false, true}) {
    // writer_b's box of six commits as one image and conflicts at x = 3.
    const std::string two =
        violation_of(overlapping_writers(), checked, 6, "writer_b");
    EXPECT_TRUE(std::regex_search(
        two, std::regex("writer: kernel 'writer_[ab]' instance age 0 \\(3\\)")))
        << two;
    // Instances of one box collide: (0,1) after (0,0).
    const std::string one =
        violation_of(colliding_instances(), checked, 6, "fold");
    EXPECT_NE(one.find("writer: kernel 'fold' instance age 0 (0,1)"),
              std::string::npos)
        << one;
    if (checked) {
      EXPECT_NE(two.find("previously written by kernel 'writer_"),
                std::string::npos)
          << two;
      EXPECT_NE(one.find("previously written by kernel 'fold' instance age "
                         "0 (0,0)"),
                std::string::npos)
          << one;
    }
  }
}

TEST(RangeDispatch, DiagonalStoreCannotFeedAFusedBox) {
  // A fused downstream runs over the box its upstream box maps to; a
  // diagonal store [i][i] feeds only the diagonal of that box.
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("mid", nd::ElementType::kInt32, 2);
  pb.field("out", nd::ElementType::kInt32, 2);
  pb.kernel("diag")
      .index("i")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("i"))
      .store("d", "mid", AgeExpr::relative(0), Slice().var("i").var("i"))
      .body([](KernelContext&) {});
  pb.kernel("cell")
      .index("x")
      .index("y")
      .fetch("v", "mid", AgeExpr::relative(0), Slice().var("x").var("y"))
      .store("o", "out", AgeExpr::relative(0), Slice().var("x").var("y"))
      .body([](KernelContext&) {});
  const Program program = pb.build();
  const FusionVerdict v =
      fusion_verdict(program, program.kernel(program.find_kernel("diag")),
                     program.kernel(program.find_kernel("cell")),
                     program.find_field("mid"));
  EXPECT_FALSE(v.legal);
  EXPECT_NE(v.blocker.find("follow one producer variable"), std::string::npos)
      << v.blocker;
}

TEST(RangeDispatch, MjpegDctBoxStoresGiveTheSameBytes) {
  // The DCT kernels store [by][bx][all()]: a box's image holds whole
  // 8x8 coefficient blocks, in box order.
  const auto video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(96, 64, 3));
  const std::vector<uint8_t> reference =
      workloads::encode_mjpeg_standalone(*video).stream();
  for (const int workers : {1, 3}) {
    for (const std::optional<int64_t>& chunk : kChunks) {
      workloads::MjpegWorkload workload;
      workload.video = video;
      RunOptions opts;
      opts.workers = workers;
      opts.watchdog = std::chrono::seconds(30);
      for (const char* dct : {"yDCT", "uDCT", "vDCT"}) {
        opts.kernel_schedules[dct].chunk = chunk;
      }
      Runtime rt(workload.build(), opts);
      const RunReport report = rt.run();
      ASSERT_FALSE(report.timed_out);
      EXPECT_EQ(workload.output->stream(), reference)
          << workers << " workers, " << chunk_name(chunk);
    }
  }
}

// ---------------------------------------------------------------- slice rule

// A store event constrains its consumers' candidates through the fetch it
// arrives by, and that fetch's footprint check is skipped when its slice
// is elementwise. Each program below has a consumer input that arrives
// late, so a skip where the rule does not hold dispatches an instance
// before its data is there, and its output differs from the reference.

constexpr int kLen = 8;
constexpr Age kLastAge = 3;

int32_t input_at(Age a, int i) { return static_cast<int32_t>(a * 100 + i); }

/// Adds `source`, storing in(a)[i] = input_at(a, i) whole for ages
/// 0..kLastAge.
void add_input(ProgramBuilder& pb) {
  pb.field("in", nd::ElementType::kInt32, 1);
  pb.kernel("source")
      .store("v", "in", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        if (ctx.age() > kLastAge) return;
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({kLen}));
        for (int i = 0; i < kLen; ++i) {
          v.data<int32_t>()[i] = input_at(ctx.age(), i);
        }
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
}

/// Delays the body of the producer whose data is meant to arrive last.
void arrive_late() {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
}

/// Runs `build()` at workers {1, 4} x chunk {1, auto} (the chunk applies
/// to every kernel named in `kernels`) and hands each finished runtime to
/// `check` with a label naming the configuration.
void for_each_config(
    const std::function<Program()>& build,
    const std::vector<std::string>& kernels,
    const std::function<void(Runtime&, const std::string&)>& check) {
  for (const int workers : {1, 4}) {
    for (const std::optional<int64_t> chunk :
         {std::optional<int64_t>(1), std::optional<int64_t>()}) {
      RunOptions opts;
      opts.workers = workers;
      opts.max_age = kLastAge;
      opts.watchdog = std::chrono::seconds(30);
      for (const std::string& k : kernels) {
        opts.kernel_schedules[k].chunk = chunk;
      }
      Runtime rt(build(), opts);
      const RunReport report = rt.run();
      ASSERT_FALSE(report.timed_out);
      check(rt, std::to_string(workers) + " workers, " + chunk_name(chunk));
    }
  }
}

/// The int32 content of a terminal field's age, flattened.
std::vector<int32_t> ints_of(Runtime& rt, const std::string& field, Age a) {
  const nd::AnyBuffer buf = rt.storage(field).fetch_whole(a);
  const int32_t* p = buf.data<int32_t>();
  return std::vector<int32_t>(p, p + buf.element_count());
}

TEST(SliceRule, ConstantAndRowFetchesWaitForTheLateColumn) {
  // grid(a)[r][0] and grid(a)[r][1] come from two producers, one slow.
  // `pick` reads column 1 through a constant dimension (elementwise: a
  // column-1 store covers it, a column-0 store cannot constrain it);
  // `rowsum` reads the row through all() and must wait for both columns.
  for (const int late : {0, 1}) {
    const auto build = [late] {
      ProgramBuilder pb;
      add_input(pb);
      pb.field("grid", nd::ElementType::kInt32, 2);
      pb.field("picked", nd::ElementType::kInt32, 1);
      pb.field("sums", nd::ElementType::kInt32, 1);
      for (const int col : {0, 1}) {
        pb.kernel(col == 0 ? "left" : "right")
            .index("r")
            .fetch("v", "in", AgeExpr::relative(0), Slice().var("r"))
            .store("g", "grid", AgeExpr::relative(0),
                   Slice().var("r").at(col))
            .body([late, col](KernelContext& ctx) {
              if (col == late) arrive_late();
              const int32_t v = ctx.fetch_scalar<int32_t>("v");
              ctx.store_scalar<int32_t>("g", col == 0 ? v * 2 : v * 3 + 1);
            });
      }
      pb.kernel("pick")
          .index("r")
          .fetch("c", "grid", AgeExpr::relative(0), Slice().var("r").at(1))
          .store("o", "picked", AgeExpr::relative(0), Slice().var("r"))
          .body([](KernelContext& ctx) {
            ctx.store_scalar<int32_t>("o", ctx.fetch_scalar<int32_t>("c") + 7);
          });
      pb.kernel("rowsum")
          .index("r")
          .fetch("row", "grid", AgeExpr::relative(0), Slice().var("r").all())
          .store("o", "sums", AgeExpr::relative(0), Slice().var("r"))
          .body([](KernelContext& ctx) {
            const nd::ConstView& row = ctx.fetch_view("row");
            ctx.store_scalar<int32_t>(
                "o", row.at_flat<int32_t>(0) + row.at_flat<int32_t>(1));
          });
      return pb.build();
    };
    for_each_config(
        build, {"left", "right", "pick", "rowsum"},
        [late](Runtime& rt, const std::string& label) {
          for (Age a = 0; a <= kLastAge; ++a) {
            std::vector<int32_t> picked(kLen);
            std::vector<int32_t> sums(kLen);
            for (int r = 0; r < kLen; ++r) {
              const int32_t v = input_at(a, r);
              picked[static_cast<size_t>(r)] = v * 3 + 1 + 7;
              sums[static_cast<size_t>(r)] = v * 2 + v * 3 + 1;
            }
            EXPECT_EQ(ints_of(rt, "picked", a), picked)
                << "age " << a << ", late column " << late << ", " << label;
            EXPECT_EQ(ints_of(rt, "sums", a), sums)
                << "age " << a << ", late column " << late << ", " << label;
          }
        });
  }
}

TEST(SliceRule, DiagonalFetchReadsOnlyWrittenCells) {
  // `outer` writes sq(a)[i][j] cell by cell or box by box; `diag` reads
  // sq(a)[x][x]. A store of a box I x J admits x in I and J only, so
  // each diagonal cell is read once it is there.
  const auto build = [] {
    ProgramBuilder pb;
    add_input(pb);
    pb.field("sq", nd::ElementType::kInt32, 2);
    pb.field("diag", nd::ElementType::kInt32, 1);
    pb.kernel("outer")
        .index("i")
        .index("j")
        .fetch("u", "in", AgeExpr::relative(0), Slice().var("i"))
        .fetch("w", "in", AgeExpr::relative(0), Slice().var("j"))
        .store("c", "sq", AgeExpr::relative(0), Slice().var("i").var("j"))
        .body([](KernelContext& ctx) {
          if (ctx.index(1) == ctx.index(0)) arrive_late();
          ctx.store_scalar<int32_t>("c", ctx.fetch_scalar<int32_t>("u") * 1000 +
                                             ctx.fetch_scalar<int32_t>("w"));
        });
    pb.kernel("diag")
        .index("x")
        .fetch("d", "sq", AgeExpr::relative(0), Slice().var("x").var("x"))
        .store("o", "diag", AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("o", ctx.fetch_scalar<int32_t>("d"));
        });
    return pb.build();
  };
  for_each_config(build, {"outer", "diag"},
                  [](Runtime& rt, const std::string& label) {
                    for (Age a = 0; a <= kLastAge; ++a) {
                      std::vector<int32_t> diag(kLen);
                      for (int x = 0; x < kLen; ++x) {
                        diag[static_cast<size_t>(x)] =
                            input_at(a, x) * 1000 + input_at(a, x);
                      }
                      EXPECT_EQ(ints_of(rt, "diag", a), diag)
                          << "age " << a << ", " << label;
                    }
                  });
}

TEST(SliceRule, TwoElementwiseFetchesWaitForTheLateField) {
  // `add` fetches p(a)[x] and q(a)[x]. The store of whichever arrives
  // first covers only its own fetch; the other is checked and blocks.
  for (const std::string late : {"p", "q"}) {
    const auto build = [late] {
      ProgramBuilder pb;
      add_input(pb);
      pb.field("p", nd::ElementType::kInt32, 1);
      pb.field("q", nd::ElementType::kInt32, 1);
      pb.field("sum", nd::ElementType::kInt32, 1);
      for (const std::string field : {"p", "q"}) {
        const int32_t scale = field == "p" ? 2 : 5;
        pb.kernel("make_" + field)
            .index("x")
            .fetch("v", "in", AgeExpr::relative(0), Slice().var("x"))
            .store("o", field, AgeExpr::relative(0), Slice().var("x"))
            .body([slow = field == late, scale](KernelContext& ctx) {
              if (slow) arrive_late();
              ctx.store_scalar<int32_t>(
                  "o", ctx.fetch_scalar<int32_t>("v") * scale + 3);
            });
      }
      pb.kernel("add")
          .index("x")
          .fetch("a", "p", AgeExpr::relative(0), Slice().var("x"))
          .fetch("b", "q", AgeExpr::relative(0), Slice().var("x"))
          .store("o", "sum", AgeExpr::relative(0), Slice().var("x"))
          .body([](KernelContext& ctx) {
            ctx.store_scalar<int32_t>("o", ctx.fetch_scalar<int32_t>("a") +
                                               ctx.fetch_scalar<int32_t>("b"));
          });
      return pb.build();
    };
    for_each_config(
        build, {"make_p", "make_q", "add"},
        [&late](Runtime& rt, const std::string& label) {
          for (Age a = 0; a <= kLastAge; ++a) {
            std::vector<int32_t> sum(kLen);
            for (int x = 0; x < kLen; ++x) {
              const int32_t v = input_at(a, x);
              sum[static_cast<size_t>(x)] = (v * 2 + 3) + (v * 5 + 3);
            }
            EXPECT_EQ(ints_of(rt, "sum", a), sum)
                << "age " << a << ", " << late << " late, " << label;
          }
        });
  }
}

}  // namespace
}  // namespace p2g
