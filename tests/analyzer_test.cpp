// Dispatch and bookkeeping tests for the dependency analyzer: a wide
// program of independent source -> stage -> serial sink chains must
// dispatch every instance exactly once and in age order, and a long
// streaming run must retire all per-age analyzer state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/dependency.h"
#include "core/runtime.h"

namespace p2g {
namespace {

/// `width` source -> stage -> sink chains. The serial sink appends one row
/// per age to its chain's output vector, which both captures the data for
/// checking and exercises serial gating.
struct ChainedWide {
  int width = 5;
  int elements = 8;
  int ages = 12;
  /// outputs[w] = rows appended by sink_w, one per age, in age order.
  std::shared_ptr<std::vector<std::vector<std::vector<int32_t>>>> outputs =
      std::make_shared<std::vector<std::vector<std::vector<int32_t>>>>();

  Program build() const {
    outputs->assign(static_cast<size_t>(width), {});
    ProgramBuilder pb;
    for (int w = 0; w < width; ++w) {
      pb.field("a" + std::to_string(w), nd::ElementType::kInt32, 1);
    }
    for (int w = 0; w < width; ++w) {
      pb.field("b" + std::to_string(w), nd::ElementType::kInt32, 1);
    }
    for (int w = 0; w < width; ++w) {
      const std::string suffix = std::to_string(w);
      const int n = elements;
      const int last = ages;
      pb.kernel("source" + suffix)
          .store("v", "a" + suffix, AgeExpr::relative(0), Slice::whole())
          .body([n, last, w](KernelContext& ctx) {
            if (ctx.age() >= last) return;
            nd::AnyBuffer v(nd::ElementType::kInt32, nd::Extents({n}));
            for (int i = 0; i < n; ++i) {
              v.data<int32_t>()[i] = static_cast<int32_t>(
                  w * 1000 + static_cast<int>(ctx.age()) * 100 + i);
            }
            ctx.store_array("v", std::move(v));
            ctx.continue_next_age();
          });
      pb.kernel("stage" + suffix)
          .index("x")
          .fetch("in", "a" + suffix, AgeExpr::relative(0), Slice().var("x"))
          .store("out", "b" + suffix, AgeExpr::relative(0), Slice().var("x"))
          .body([](KernelContext& ctx) {
            ctx.store_scalar<int32_t>("out",
                                      ctx.fetch_scalar<int32_t>("in") * 2);
          });
      auto outputs_ref = outputs;
      pb.kernel("sink" + suffix)
          .serial()
          .fetch("in", "b" + suffix, AgeExpr::relative(0), Slice::whole())
          .body([outputs_ref, n, w](KernelContext& ctx) {
            const nd::AnyBuffer& view = ctx.fetch_array("in");
            std::vector<int32_t> row(view.data<int32_t>(),
                                     view.data<int32_t>() + n);
            (*outputs_ref)[static_cast<size_t>(w)].push_back(std::move(row));
          });
    }
    return pb.build();
  }
};

TEST(Analyzer, ChainedWideDispatchesEveryAgeInOrder) {
  ChainedWide program;
  RunOptions opts;
  opts.workers = 2;
  Runtime rt(program.build(), opts);
  const RunReport report = rt.run();

  // Every age of every chain was captured, in age order.
  const auto& outputs = *program.outputs;
  ASSERT_EQ(outputs.size(), 5u);
  for (int w = 0; w < 5; ++w) {
    ASSERT_EQ(outputs[w].size(), 12u) << "chain " << w;
    for (int a = 0; a < 12; ++a) {
      EXPECT_EQ(outputs[w][a][0], (w * 1000 + a * 100) * 2)
          << "chain " << w << " age " << a;
    }
    EXPECT_EQ(outputs[w][3][2], (w * 1000 + 302) * 2) << "chain " << w;
  }
  // Sources run ages 0..12 (age 12 stores nothing and ends the chain);
  // every stored age dispatches one stage instance per element and one
  // sink instance.
  for (int w = 0; w < 5; ++w) {
    const std::string suffix = std::to_string(w);
    const auto* source = report.instrumentation.find("source" + suffix);
    const auto* stage = report.instrumentation.find("stage" + suffix);
    const auto* sink = report.instrumentation.find("sink" + suffix);
    ASSERT_NE(source, nullptr);
    ASSERT_NE(stage, nullptr);
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(source->instances, 13) << "chain " << w;
    EXPECT_EQ(stage->instances, 12 * 8) << "chain " << w;
    EXPECT_EQ(sink->instances, 12) << "chain " << w;
  }
  EXPECT_EQ(rt.analyzer().dispatched_count(), 5 * (13 + 12 * 8 + 12));
}

TEST(Analyzer, StreamingRunRetiresAnalyzerState) {
  ChainedWide program;
  program.width = 2;
  program.elements = 16;
  program.ages = 40;
  RunOptions opts;
  opts.workers = 2;
  Runtime rt(program.build(), opts);
  rt.run();

  // Streaming memory: sealed ages drop their bookkeeping and fully
  // dispatched ages retire their dispatched boxes, so a long run ends
  // with nothing accumulated.
  const auto stats = rt.analyzer().memory_stats();
  EXPECT_EQ(stats.fa_states, 0u);
  EXPECT_EQ(stats.open_ages, 0u);
  EXPECT_EQ(stats.open_boxes, 0u);
  EXPECT_EQ(stats.retry_entries, 0u);
  EXPECT_EQ(stats.running_ages, 0u);
}

}  // namespace
}  // namespace p2g
