// Focused unit tests for runtime internals: contiguous-span detection,
// ready-queue ordering, store-event coalescing, instrumentation report
// formatting and context behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "core/context.h"
#include "core/ready_queue.h"
#include "core/runtime.h"
#include "nd/region.h"

namespace p2g {
namespace {

using nd::Extents;
using nd::Interval;
using nd::Region;

TEST(ContiguousSpan, WholeFieldIsOneSpan) {
  const Extents ext({4, 6});
  const auto span = Region::whole(ext).contiguous_span(ext);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->offset, 0);
  EXPECT_EQ(span->length, 24);
}

TEST(ContiguousSpan, SingleElement) {
  const Extents ext({4, 6});
  const auto span = Region::point({2, 3}).contiguous_span(ext);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->offset, 2 * 6 + 3);
  EXPECT_EQ(span->length, 1);
}

TEST(ContiguousSpan, TrailingBlockDimension) {
  // The MJPEG layout: [bh][bw][64] with a (by, bx, all) slice.
  const Extents ext({36, 44, 64});
  const Region block(std::vector<Interval>{{10, 11}, {20, 21}, {0, 64}});
  const auto span = block.contiguous_span(ext);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->offset, (10 * 44 + 20) * 64);
  EXPECT_EQ(span->length, 64);
}

TEST(ContiguousSpan, FullRowsAreContiguous) {
  const Extents ext({8, 5});
  const Region rows(std::vector<Interval>{{2, 5}, {0, 5}});
  const auto span = rows.contiguous_span(ext);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->offset, 10);
  EXPECT_EQ(span->length, 15);
}

TEST(ContiguousSpan, PartialColumnIsNot) {
  const Extents ext({8, 5});
  const Region column(std::vector<Interval>{{0, 8}, {2, 3}});
  EXPECT_FALSE(column.contiguous_span(ext).has_value());
  const Region box(std::vector<Interval>{{0, 2}, {0, 3}});
  EXPECT_FALSE(box.contiguous_span(ext).has_value());
}

TEST(ContiguousSpan, OutsideExtentsIsNot) {
  const Extents ext({4});
  const Region region(std::vector<Interval>{{2, 6}});
  EXPECT_FALSE(region.contiguous_span(ext).has_value());
}

TEST(ReadyQueueTest, AgePriorityOrder) {
  ReadyQueue queue;
  auto item = [](KernelId k, Age a) {
    WorkItem w;
    w.kernel = k;
    w.age = a;
    return w;
  };
  queue.push(item(0, 5));
  queue.push(item(1, 2));
  queue.push(item(2, 2));
  queue.push(item(3, 0));
  EXPECT_EQ(queue.pop()->kernel, 3);  // age 0 first
  EXPECT_EQ(queue.pop()->kernel, 1);  // FIFO within age 2
  EXPECT_EQ(queue.pop()->kernel, 2);
  EXPECT_EQ(queue.pop()->kernel, 0);
}

TEST(ReadyQueueTest, CloseUnblocksWaiters) {
  ReadyQueue queue;
  std::thread waiter([&] { EXPECT_FALSE(queue.pop().has_value()); });
  queue.close();
  waiter.join();
}

TEST(ReadyQueueTest, PushBatchPreservesAgeOrderAcrossBatches) {
  ReadyQueue queue;
  auto item = [](KernelId k, Age a) {
    WorkItem w;
    w.kernel = k;
    w.age = a;
    return w;
  };
  std::vector<WorkItem> first;
  first.push_back(item(0, 4));
  first.push_back(item(1, 1));
  queue.push_batch(std::move(first));
  std::vector<WorkItem> second;
  second.push_back(item(2, 0));
  second.push_back(item(3, 1));
  queue.push_batch(std::move(second));
  queue.push_batch({});  // empty batch is a no-op

  EXPECT_EQ(queue.pop()->kernel, 2);  // age 0
  EXPECT_EQ(queue.pop()->kernel, 1);  // age 1, pushed before kernel 3
  EXPECT_EQ(queue.pop()->kernel, 3);
  EXPECT_EQ(queue.pop()->kernel, 0);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ReadyQueueTest, BonusPopHandsOverSecondItemWhenAlone) {
  ReadyQueue queue;
  auto item = [](KernelId k, Age a) {
    WorkItem w;
    w.kernel = k;
    w.age = a;
    return w;
  };
  queue.push(item(0, 1));
  queue.push(item(1, 0));
  queue.push(item(2, 2));

  // Single consumer: pop grants the best item plus the next-best bonus.
  std::optional<WorkItem> bonus;
  const auto first = queue.pop(&bonus);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kernel, 1);  // age 0
  ASSERT_TRUE(bonus.has_value());
  EXPECT_EQ(bonus->kernel, 0);  // age 1
  const auto last = queue.pop(&bonus);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->kernel, 2);
  EXPECT_FALSE(bonus.has_value()) << "no bonus when the queue runs dry";
}

TEST(ReadyQueueTest, BatchedPushWakesBlockedConsumers) {
  ReadyQueue queue;
  constexpr int kItems = 256;
  constexpr int kConsumers = 4;
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int t = 0; t < kConsumers; ++t) {
    consumers.emplace_back([&queue, &popped] {
      std::optional<WorkItem> bonus;
      while (auto w = queue.pop(&bonus)) {
        popped.fetch_add(1);
        if (bonus) {
          popped.fetch_add(1);
          bonus.reset();
        }
      }
    });
  }
  for (int i = 0; i < kItems; i += 8) {
    std::vector<WorkItem> batch;
    for (int j = i; j < i + 8; ++j) {
      WorkItem w;
      w.kernel = 0;
      w.age = j;
      batch.push_back(std::move(w));
    }
    queue.push_batch(std::move(batch));
  }
  // Workers must drain everything even though each batch wakes at most one
  // of them (the hand-off chain in pop covers the rest).
  while (popped.load() < kItems) std::this_thread::yield();
  queue.close();
  for (std::thread& c : consumers) c.join();
  EXPECT_EQ(popped.load(), kItems);
}

TEST(InstrumentationTable, FormatsLikeThePaper) {
  InstrumentationReport report;
  KernelStats stats;
  stats.name = "yDCT";
  stats.dispatches = 80784;
  stats.instances = 80784;
  stats.dispatch_ns = 80784LL * 3070;
  stats.kernel_ns = 80784LL * 170300;
  report.kernels.push_back(stats);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("Kernel"), std::string::npos);
  EXPECT_NE(table.find("Dispatch Time"), std::string::npos);
  EXPECT_NE(table.find("80,784"), std::string::npos);
  EXPECT_NE(table.find("3.07 us"), std::string::npos);
  EXPECT_NE(table.find("170.30 us"), std::string::npos);
  EXPECT_EQ(report.find("yDCT"), &report.kernels[0]);
  EXPECT_EQ(report.find("nope"), nullptr);
}

TEST(StoreEventCoalescing, ChunkedScalarStoresMergeIntoOneEvent) {
  // A chunked elementwise kernel writing consecutive cells should reach
  // the analyzer as O(1) merged events per chunk; indirectly observable
  // through correctness plus the absence of per-element analyzer work,
  // and directly through the field's written state after the run.
  ProgramBuilder pb;
  pb.field("src", nd::ElementType::kInt32, 1);
  pb.field("dst", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "src", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({64}));
        for (int i = 0; i < 64; ++i) v.data<int32_t>()[i] = i;
        ctx.store_array("v", std::move(v));
      });
  pb.kernel("stage")
      .index("x")
      .fetch("in", "src", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "dst", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("out",
                                  ctx.fetch_scalar<int32_t>("in") + 1);
      });
  RunOptions opts;
  opts.max_age = 0;
  opts.kernel_schedules["stage"].chunk = 64;
  Runtime rt(pb.build(), opts);
  const RunReport report = rt.run();
  EXPECT_EQ(report.instrumentation.find("stage")->dispatches, 1);
  const nd::AnyBuffer out = rt.storage("dst").fetch_whole(0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out.at<int32_t>(i), i + 1);
}

TEST(KernelContextTest, SlotLookupsAndErrors) {
  ProgramBuilder pb;
  pb.field("f", nd::ElementType::kInt32, 1);
  pb.field("g", nd::ElementType::kInt32, 1);
  pb.kernel("k")
      .index("x")
      .fetch("in", "f", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "f", AgeExpr::relative(1), Slice().var("x"))
      .store("all", "g", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext&) {});
  const Program program = pb.build();
  TimerSet timers;
  KernelContext ctx(program.kernel(0), 3, nd::Region::point({7}), &timers);

  EXPECT_EQ(ctx.age(), 3);
  EXPECT_EQ(ctx.index(0), 7);
  EXPECT_EQ(ctx.index("x"), 7);
  EXPECT_THROW(ctx.index("y"), Error);
  EXPECT_THROW(ctx.fetch_array("nope"), Error);
  EXPECT_THROW(ctx.store_scalar<int32_t>("nope", 1), Error);
  EXPECT_FALSE(ctx.payload(0).has_value());

  // An elementwise store is staged in the box's image; storing the slot
  // again in the same instance is a write-once violation.
  ctx.store_scalar<int32_t>("out", 1);
  try {
    ctx.store_scalar<int32_t>("out", 2);
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
  }
  EXPECT_TRUE(ctx.pending_stores().empty());
  EXPECT_EQ(ctx.staged(0).count, 1);
  const auto staged = ctx.payload(0);
  ASSERT_TRUE(staged.has_value());
  EXPECT_EQ(staged->type, nd::ElementType::kInt32);
  int32_t value = 0;
  std::memcpy(&value, staged->data, sizeof(value));
  EXPECT_EQ(value, 1) << "the second store must not reach the image";

  // A whole-field store goes pending, and is write-once too.
  nd::AnyBuffer whole(nd::ElementType::kInt32, nd::Extents({2}));
  ctx.store_array("all", whole);
  EXPECT_THROW(ctx.store_array("all", whole), Error);
  EXPECT_EQ(ctx.pending_stores().size(), 1u);
  EXPECT_NE(ctx.pending_store(1), nullptr);
  EXPECT_EQ(ctx.pending_store(0), nullptr);
  ASSERT_TRUE(ctx.payload(1).has_value());
  EXPECT_EQ(ctx.payload(1)->extents->element_count(), 2);

  EXPECT_FALSE(ctx.continue_requested());
  ctx.continue_next_age();
  EXPECT_TRUE(ctx.continue_requested());
}

TEST(KernelContextTest, OwnedFetchSlotViewsAliasTheBuffer) {
  ProgramBuilder pb;
  pb.field("f", nd::ElementType::kInt32, 1);
  pb.kernel("k")
      .index("x")
      .fetch("in", "f", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext&) {});
  const Program program = pb.build();
  KernelContext ctx(program.kernel(0), 0, nd::Region::point({0}), nullptr);

  EXPECT_THROW(ctx.fetch_view("in"), Error) << "slot not prepared yet";

  nd::AnyBuffer data(nd::ElementType::kInt32, nd::Extents({3}));
  for (int i = 0; i < 3; ++i) data.data<int32_t>()[i] = 10 * i;
  ctx.set_fetch(0, std::move(data));

  const nd::ConstView& view = ctx.fetch_view("in");
  const nd::AnyBuffer& arr = ctx.fetch_array("in");
  EXPECT_EQ(view.raw(), arr.raw()) << "view must alias the owned copy";
  EXPECT_EQ(view.at_flat<int32_t>(0), 0);
  EXPECT_EQ(view.at_flat<int32_t>(2), 20);
}

TEST(KernelContextTest, StorageViewSlotMaterializesArrayOnce) {
  ProgramBuilder pb;
  pb.field("f", nd::ElementType::kInt32, 1);
  pb.kernel("k")
      .index("x")
      .fetch("in", "f", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext&) {});
  const Program program = pb.build();
  KernelContext ctx(program.kernel(0), 0, nd::Region::point({0}), nullptr);

  // A zero-copy slot over caller-managed memory.
  const int32_t backing[4] = {1, 2, 3, 4};
  ctx.set_fetch(0, nd::ConstView(nd::ElementType::kInt32, nd::Extents({4}),
                                 reinterpret_cast<const std::byte*>(backing),
                                 nullptr));
  EXPECT_EQ(ctx.fetch_view("in").raw(),
            reinterpret_cast<const std::byte*>(backing));

  // fetch_array materializes lazily and caches: same object, one copy.
  const nd::AnyBuffer& first = ctx.fetch_array("in");
  const nd::AnyBuffer& second = ctx.fetch_array("in");
  EXPECT_EQ(&first, &second);
  EXPECT_NE(first.raw(), reinterpret_cast<const std::byte*>(backing));
  EXPECT_EQ(first.at<int32_t>(3), 4);
}

TEST(RunOptionsValidation, UnknownNamesAreRejected) {
  ProgramBuilder pb;
  pb.field("f", nd::ElementType::kInt32, 1);
  pb.kernel("k")
      .run_once()
      .store("v", "f", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext&) {});
  {
    RunOptions opts;
    opts.kernel_schedules["ghost"].chunk = 4;
    EXPECT_THROW(Runtime(pb.build(), opts), Error);
  }
  {
    RunOptions opts;
    opts.disabled_kernels.insert("ghost");
    EXPECT_THROW(Runtime(pb.build(), opts), Error);
  }
  {
    RunOptions opts;
    opts.fusions.push_back(FusionRule{"k", "ghost"});
    EXPECT_THROW(Runtime(pb.build(), opts), Error);
  }
}

}  // namespace
}  // namespace p2g
