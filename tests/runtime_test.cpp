// Integration tests for the execution node: the paper's mul2/plus5 cycle,
// sources, chunking, fusion, serial ordering and failure handling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/runtime.h"

namespace p2g {
namespace {

/// Builds the paper's example program (Fig. 5): init seeds m_data(0) with
/// {10..14}; mul2 doubles into p_data(a); plus5 adds 5 into m_data(a+1);
/// print captures both fields per age.
struct Mul2Plus5 {
  std::shared_ptr<std::vector<std::vector<int32_t>>> printed =
      std::make_shared<std::vector<std::vector<int32_t>>>();

  Program build() {
    ProgramBuilder pb;
    pb.field("m_data", nd::ElementType::kInt32, 1);
    pb.field("p_data", nd::ElementType::kInt32, 1);

    pb.kernel("init")
        .run_once()
        .store("values", "m_data", AgeExpr::constant(0), Slice::whole())
        .body([](KernelContext& ctx) {
          nd::AnyBuffer values(nd::ElementType::kInt32, nd::Extents({5}));
          for (int i = 0; i < 5; ++i) {
            values.data<int32_t>()[i] = i + 10;
          }
          ctx.store_array("values", std::move(values));
        });

    pb.kernel("mul2")
        .index("x")
        .fetch("value", "m_data", AgeExpr::relative(0), Slice().var("x"))
        .store("out", "p_data", AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out",
                                    ctx.fetch_scalar<int32_t>("value") * 2);
        });

    pb.kernel("plus5")
        .index("x")
        .fetch("value", "p_data", AgeExpr::relative(0), Slice().var("x"))
        .store("out", "m_data", AgeExpr::relative(1), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out",
                                    ctx.fetch_scalar<int32_t>("value") + 5);
        });

    auto printed_ref = printed;
    pb.kernel("print")
        .serial()
        .fetch("m", "m_data", AgeExpr::relative(0), Slice::whole())
        .fetch("p", "p_data", AgeExpr::relative(0), Slice::whole())
        .body([printed_ref](KernelContext& ctx) {
          const nd::AnyBuffer& m = ctx.fetch_array("m");
          const nd::AnyBuffer& p = ctx.fetch_array("p");
          std::vector<int32_t> row;
          for (int64_t i = 0; i < m.element_count(); ++i) {
            row.push_back(m.at<int32_t>(i));
          }
          for (int64_t i = 0; i < p.element_count(); ++i) {
            row.push_back(p.at<int32_t>(i));
          }
          printed_ref->push_back(std::move(row));
        });

    return pb.build();
  }
};

TEST(RuntimeMul2Plus5, ReproducesThePaperSequence) {
  Mul2Plus5 workload;
  RunOptions opts;
  opts.workers = 2;
  opts.max_age = 2;
  Runtime rt(workload.build(), opts);
  RunReport report = rt.run();
  EXPECT_FALSE(report.timed_out);

  // Paper §V: first age prints {10..14} and {20,22,24,26,28}; second age
  // {25,27,29,31,33} and {50,54,58,62,66}.
  ASSERT_EQ(workload.printed->size(), 3u);
  EXPECT_EQ((*workload.printed)[0],
            (std::vector<int32_t>{10, 11, 12, 13, 14, 20, 22, 24, 26, 28}));
  EXPECT_EQ((*workload.printed)[1],
            (std::vector<int32_t>{25, 27, 29, 31, 33, 50, 54, 58, 62, 66}));
  EXPECT_EQ((*workload.printed)[2],
            (std::vector<int32_t>{55, 59, 63, 67, 71, 110, 118, 126, 134,
                                  142}));
}

TEST(RuntimeMul2Plus5, InstanceCountsMatchUnrolledDag) {
  Mul2Plus5 workload;
  RunOptions opts;
  opts.workers = 3;
  opts.max_age = 9;
  Runtime rt(workload.build(), opts);
  RunReport report = rt.run();

  const auto* init = report.instrumentation.find("init");
  const auto* mul2 = report.instrumentation.find("mul2");
  const auto* plus5 = report.instrumentation.find("plus5");
  const auto* print = report.instrumentation.find("print");
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->instances, 1);
  EXPECT_EQ(mul2->instances, 10 * 5);   // ages 0..9, 5 elements
  EXPECT_EQ(plus5->instances, 10 * 5);  // stores m_data(1..10)
  EXPECT_EQ(print->instances, 10);
}

TEST(RuntimeMul2Plus5, DeterministicAcrossWorkerCounts) {
  std::vector<std::vector<std::vector<int32_t>>> outputs;
  for (int workers : {1, 2, 4}) {
    Mul2Plus5 workload;
    RunOptions opts;
    opts.workers = workers;
    opts.max_age = 5;
    Runtime rt(workload.build(), opts);
    rt.run();
    outputs.push_back(*workload.printed);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[1], outputs[2]);
}

TEST(RuntimeMul2Plus5, ChunkingPreservesResults) {
  Mul2Plus5 baseline;
  {
    RunOptions opts;
    opts.workers = 2;
    opts.max_age = 4;
    Runtime rt(baseline.build(), opts);
    rt.run();
  }
  Mul2Plus5 chunked;
  {
    RunOptions opts;
    opts.workers = 2;
    opts.max_age = 4;
    opts.kernel_schedules["mul2"].chunk = 5;
    opts.kernel_schedules["plus5"].chunk = 3;
    Runtime rt(chunked.build(), opts);
    RunReport report = rt.run();
    // 5 bodies per age but fewer dispatches for mul2.
    const auto* mul2 = report.instrumentation.find("mul2");
    EXPECT_EQ(mul2->instances, 5 * 5);
    EXPECT_LT(mul2->dispatches, mul2->instances);
  }
  EXPECT_EQ(*baseline.printed, *chunked.printed);
}

TEST(RuntimeMul2Plus5, FusionPreservesResults) {
  Mul2Plus5 baseline;
  {
    RunOptions opts;
    opts.workers = 2;
    opts.max_age = 4;
    Runtime rt(baseline.build(), opts);
    rt.run();
  }
  Mul2Plus5 fused;
  {
    RunOptions opts;
    opts.workers = 2;
    opts.max_age = 4;
    opts.fusions.push_back(FusionRule{"mul2", "plus5"});
    Runtime rt(fused.build(), opts);
    RunReport report = rt.run();
    const auto* plus5 = report.instrumentation.find("plus5");
    EXPECT_EQ(plus5->instances, 5 * 5) << "fused bodies still instrumented";
  }
  EXPECT_EQ(*baseline.printed, *fused.printed);
}

TEST(Runtime, SourceKernelStopsWhenItStopsContinuing) {
  ProgramBuilder pb;
  pb.field("frames", nd::ElementType::kInt32, 1);
  pb.field("out", nd::ElementType::kInt32, 1);

  pb.kernel("reader")
      .store("frame", "frames", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext& ctx) {
        if (ctx.age() < 5) {  // "end of file" after 5 frames
          nd::AnyBuffer frame(nd::ElementType::kInt32, nd::Extents({4}));
          for (int i = 0; i < 4; ++i) {
            frame.data<int32_t>()[i] = static_cast<int32_t>(ctx.age());
          }
          ctx.store_array("frame", std::move(frame));
          ctx.continue_next_age();
        }
      });

  pb.kernel("stage")
      .index("x")
      .fetch("v", "frames", AgeExpr::relative(0), Slice().var("x"))
      .store("o", "out", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("o", ctx.fetch_scalar<int32_t>("v") + 1);
      });

  Runtime rt(pb.build(), RunOptions{});
  RunReport report = rt.run();
  const auto* reader = report.instrumentation.find("reader");
  const auto* stage = report.instrumentation.find("stage");
  EXPECT_EQ(reader->instances, 6) << "5 frames + 1 EOF probe";
  EXPECT_EQ(stage->instances, 5 * 4);
  EXPECT_EQ(rt.storage("out").fetch_whole(4).at<int32_t>(0), 5);
}

TEST(Runtime, WriteOnceViolationSurfacesFromRun) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({2}));
        ctx.store_array("v", std::move(v));
      });
  // Both consumers store to the same cells of b(0).
  for (const char* name : {"k1", "k2"}) {
    pb.kernel(name)
        .index("x")
        .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
        .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out", 1);
        });
  }
  RunOptions opts;
  opts.max_age = 0;
  Runtime rt(pb.build(), opts);
  try {
    rt.run();
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
  }
}

TEST(Runtime, CheckedModeNamesBothWriters) {
  // Same double-write as above, but with RunOptions::checked the error
  // must carry provenance: the current writer AND the previous one, each
  // with its kernel instance.
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({2}));
        ctx.store_array("v", std::move(v));
      });
  for (const char* name : {"writer_a", "writer_b"}) {
    pb.kernel(name)
        .index("x")
        .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
        .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
        .body([](KernelContext& ctx) {
          ctx.store_scalar<int32_t>("out", 1);
        });
  }
  RunOptions opts;
  opts.max_age = 0;
  opts.workers = 1;
  opts.checked = true;
  Runtime rt(pb.build(), opts);
  try {
    rt.run();
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    const std::string what = e.what();
    EXPECT_NE(what.find("writer_a"), std::string::npos) << what;
    EXPECT_NE(what.find("writer_b"), std::string::npos) << what;
    EXPECT_NE(what.find("previously written by"), std::string::npos) << what;
  }
}

TEST(Runtime, BodyExceptionPropagates) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.kernel("boom")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext&) { throw std::runtime_error("kaboom"); });
  Runtime rt(pb.build(), RunOptions{});
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(Runtime, WatchdogAbortsSlowRun) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.kernel("slow")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({1}));
        ctx.store_array("v", std::move(v));
      });
  RunOptions opts;
  opts.watchdog = std::chrono::milliseconds(50);
  Runtime rt(pb.build(), opts);
  RunReport report = rt.run();
  EXPECT_TRUE(report.timed_out);
}

TEST(Runtime, RunOnceAggregatorWithConstFetch) {
  ProgramBuilder pb;
  pb.field("data", nd::ElementType::kInt32, 1);
  pb.field("sum", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "data", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({4}));
        for (int i = 0; i < 4; ++i) v.data<int32_t>()[i] = i + 1;
        ctx.store_array("v", std::move(v));
      });
  pb.kernel("agg")
      .run_once()
      .fetch("in", "data", AgeExpr::constant(0), Slice::whole())
      .store("out", "sum", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        const nd::AnyBuffer& in = ctx.fetch_array("in");
        int32_t total = 0;
        for (int64_t i = 0; i < in.element_count(); ++i) {
          total += in.at<int32_t>(i);
        }
        nd::AnyBuffer out(nd::ElementType::kInt32, nd::Extents({1}));
        out.data<int32_t>()[0] = total;
        ctx.store_array("out", std::move(out));
      });
  Runtime rt(pb.build(), RunOptions{});
  rt.run();
  EXPECT_EQ(rt.storage("sum").fetch_whole(0).at<int32_t>(0), 10);
}

TEST(Runtime, RunTwiceThrows) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "a", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({1}));
        ctx.store_array("v", std::move(v));
      });
  Runtime rt(pb.build(), RunOptions{});
  rt.run();
  EXPECT_THROW(rt.run(), Error);
}

TEST(Runtime, NotIdleUntilRunBootstraps) {
  // A distributed node answers the master's termination probe with
  // idle(): before run() has created the initial instances the node has
  // not started, so it must not look drained.
  Mul2Plus5 workload;
  RunOptions options;
  options.max_age = 1;
  Runtime rt(workload.build(), options);
  EXPECT_FALSE(rt.idle());
  rt.run();
  EXPECT_TRUE(rt.idle());
}

TEST(Runtime, EmptyProgramReturnsImmediately) {
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  Program p = pb.build();
  Runtime rt(std::move(p), RunOptions{});
  RunReport report = rt.run();
  EXPECT_FALSE(report.timed_out);
}

// --- run-to-completion analysis ---------------------------------------------
//
// There is no analyzer thread: the thread that pushes an event analyzes
// the backlog unless another thread is analyzing already.

/// `init` stores data(0) = {1, 2, 3, 4}; `agg` sums it into sum(0).
Program init_and_sum() {
  ProgramBuilder pb;
  pb.field("data", nd::ElementType::kInt32, 1);
  pb.field("sum", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "data", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({4}));
        for (int i = 0; i < 4; ++i) v.data<int32_t>()[i] = i + 1;
        ctx.store_array("v", std::move(v));
      });
  pb.kernel("agg")
      .run_once()
      .fetch("in", "data", AgeExpr::constant(0), Slice::whole())
      .store("out", "sum", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        const nd::AnyBuffer& in = ctx.fetch_array("in");
        nd::AnyBuffer out(nd::ElementType::kInt32, nd::Extents({1}));
        out.data<int32_t>()[0] = 0;
        for (int64_t i = 0; i < in.element_count(); ++i) {
          out.data<int32_t>()[0] += in.at<int32_t>(i);
        }
        ctx.store_array("out", std::move(out));
      });
  return pb.build();
}

int64_t analyzer_events(const obs::MetricsSnapshot& snapshot) {
  const obs::CounterValue* c = snapshot.find_counter("analyzer_events_total");
  return c != nullptr ? c->value : 0;
}

TEST(RunToCompletion, StoreInjectedBeforeRunIsHandledOnceAfterBootstrap) {
  // `init` runs elsewhere: its store arrives from another thread before
  // run(), as a peer node's would. It waits for run() to bootstrap.
  RunOptions options;
  options.disabled_kernels = {"init"};
  options.metrics.enabled = true;
  Runtime rt(init_and_sum(), options);
  const KernelId init = rt.program().find_kernel("init");
  std::thread peer([&rt, init] {
    const std::vector<int32_t> data{1, 2, 3, 4};
    rt.inject_store(rt.program().find_field("data"), 0,
                    nd::Region::whole(nd::Extents({4})), init, 0, true,
                    reinterpret_cast<const std::byte*>(data.data()));
  });
  peer.join();
  EXPECT_EQ(analyzer_events(rt.metrics_snapshot()), 0);
  EXPECT_FALSE(rt.idle());

  const RunReport report = rt.run();
  EXPECT_EQ(rt.storage("sum").fetch_whole(0).at<int32_t>(0), 10);
  ASSERT_NE(report.instrumentation.find("agg"), nullptr);
  EXPECT_EQ(report.instrumentation.find("agg")->instances, 1);
  // The injected store and agg's done event, each handled once.
  EXPECT_EQ(analyzer_events(report.metrics), 2);
}

TEST(RunToCompletion, KernelThrowingInsideACombinedBatchFailsWithItsError) {
  // Four workers push done events and analyze while one instance throws:
  // the run ends promptly with that instance's own error, because shutdown
  // closes the event gate and the stream is analyzed no further.
  auto highest = std::make_shared<std::atomic<Age>>(0);
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("gen")
      .store("v", "a", AgeExpr::relative(0), Slice::whole())
      .body([highest](KernelContext& ctx) {
        Age seen = highest->load();
        while (ctx.age() > seen &&
               !highest->compare_exchange_weak(seen, ctx.age())) {
        }
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({64}));
        for (int i = 0; i < 64; ++i) v.data<int32_t>()[i] = i;
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  pb.kernel("step")
      .index("x")
      .fetch("in", "a", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        const int32_t v = ctx.fetch_scalar<int32_t>("in");
        if (ctx.age() == 5 && v == 37) {
          throw std::runtime_error("step failed at age 5, x 37");
        }
        ctx.store_scalar<int32_t>("out", v + 1);
      });
  RunOptions options;
  options.workers = 4;
  options.max_age = 100000;
  options.kernel_schedules["step"].chunk = 1;
  options.watchdog = std::chrono::milliseconds(20000);
  Runtime rt(pb.build(), options);
  try {
    rt.run();
    FAIL() << "expected the kernel's error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "step failed at age 5, x 37");
  }
  EXPECT_LT(highest->load(), 100) << "the stream was analyzed on after the "
                                     "failure";
}

TEST(RunToCompletion, TwoRuntimesDeliveringToEachOtherByDirectCallQuiesce) {
  // mul2 runs on `a`, plus5 on `b`; each store the other reads is handed
  // over by direct call from the producing worker, which then analyzes
  // the consumer's events itself. The cycle crosses both ways every age.
  static constexpr Age kMaxAge = 40;
  const auto options_for = [](std::set<std::string> disabled) {
    RunOptions options;
    options.workers = 2;
    options.max_age = kMaxAge;
    options.keep_alive = true;
    options.disabled_kernels = std::move(disabled);
    options.retain_fields = {"m_data", "p_data"};
    return options;
  };
  Mul2Plus5 wa;
  Mul2Plus5 wb;
  RunOptions oa = options_for({"plus5", "print"});
  RunOptions ob = options_for({"init", "mul2", "print"});
  Runtime* a_ptr = nullptr;
  Runtime* b_ptr = nullptr;
  std::atomic<int64_t> forwarded{0};
  const auto forward = [&forwarded](Runtime*& from, Runtime*& to,
                                    const char* field) {
    return [&forwarded, &from, &to, field](const StoreEvent& event) {
      if (from->program().field(event.field).name != field) return;
      forwarded.fetch_add(1);
      const nd::AnyBuffer data =
          from->storage(event.field).fetch(event.age, event.region);
      to->inject_store(event.field, event.age, event.region, event.producer,
                       event.store_decl, event.whole, data.raw());
    };
  };
  oa.store_tap = forward(a_ptr, b_ptr, "p_data");
  ob.store_tap = forward(b_ptr, a_ptr, "m_data");
  Runtime a(wa.build(), oa);
  Runtime b(wb.build(), ob);
  a_ptr = &a;
  b_ptr = &b;

  std::thread run_b([&b] { b.run(); });
  std::thread run_a([&a] { a.run(); });
  // Two rounds: both idle, and no store crossed between the rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool quiet = false;
  while (!quiet && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!a.idle() || !b.idle()) continue;
    const int64_t crossed = forwarded.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    quiet = a.idle() && b.idle() && forwarded.load() == crossed;
  }
  a.stop();
  b.stop();
  run_a.join();
  run_b.join();
  ASSERT_TRUE(quiet) << "the two runtimes never quiesced";

  RunOptions ro;
  ro.max_age = kMaxAge;
  ro.retain_fields = {"m_data", "p_data"};
  Mul2Plus5 wr;
  Runtime reference(wr.build(), ro);
  reference.run();
  for (const char* field : {"m_data", "p_data"}) {
    const std::vector<Age> ages = reference.storage(field).live_ages();
    ASSERT_FALSE(ages.empty());
    for (const Age age : ages) {
      const nd::AnyBuffer want = reference.storage(field).fetch_whole(age);
      const nd::AnyBuffer got = a.storage(field).fetch_whole(age);
      ASSERT_EQ(got.extents(), want.extents()) << field << " age " << age;
      for (int64_t i = 0; i < want.element_count(); ++i) {
        EXPECT_EQ(got.at<int32_t>(i), want.at<int32_t>(i))
            << field << " age " << age << " element " << i;
      }
    }
  }
}

size_t process_threads() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}

TEST(RunToCompletion, RuntimeStartsItsWorkersAndNoAnalyzerThread) {
  const size_t before = process_threads();
  auto most = std::make_shared<std::atomic<size_t>>(0);
  ProgramBuilder pb;
  pb.field("a", nd::ElementType::kInt32, 1);
  pb.kernel("src")
      .store("v", "a", AgeExpr::relative(0), Slice::whole())
      .body([most](KernelContext& ctx) {
        // Later ages run once every worker has started.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        size_t seen = most->load();
        const size_t now = process_threads();
        while (now > seen && !most->compare_exchange_weak(seen, now)) {
        }
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({1}));
        ctx.store_array("v", std::move(v));
        ctx.continue_next_age();
      });
  RunOptions options;
  options.workers = 3;
  options.max_age = 20;
  Runtime rt(pb.build(), options);
  rt.run();
  EXPECT_EQ(most->load(), before + 3);
}

TEST(TimerSetTest, ElapsedAndExpired) {
  TimerSet timers;
  timers.set_now("t1");
  EXPECT_FALSE(timers.expired("t1", std::chrono::milliseconds(10000)));
  EXPECT_TRUE(timers.expired("t1", std::chrono::milliseconds(0)));
  EXPECT_GE(timers.elapsed_ms("t1"), 0.0);
  EXPECT_GT(timers.remaining_ms("t1", std::chrono::milliseconds(10000)),
            0.0);
}

}  // namespace
}  // namespace p2g
