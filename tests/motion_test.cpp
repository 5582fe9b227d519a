// Tests for the motion-estimation workload.
#include <gtest/gtest.h>

#include "core/runtime.h"
#include "workloads/motion.h"

namespace p2g::workloads {
namespace {

class MotionTest : public ::testing::Test {
 protected:
  static constexpr int kWidth = 64;
  static constexpr int kHeight = 48;
  static constexpr int kFrames = 4;

  std::shared_ptr<media::YuvVideo> make_video() {
    return std::make_shared<media::YuvVideo>(
        media::generate_synthetic_video(kWidth, kHeight, kFrames));
  }

  MotionConfig small_config() {
    MotionConfig config;
    config.block = 16;
    config.search = 4;
    return config;
  }
};

TEST_F(MotionTest, SequentialReferenceFindsKnownShift) {
  // prev = pattern, cur = pattern shifted right by 3 and down by 2.
  const int w = 64;
  const int h = 48;
  std::vector<uint8_t> prev(static_cast<size_t>(w) * h);
  std::vector<uint8_t> cur(prev.size());
  for (int r = 0; r < h; ++r) {
    for (int c = 0; c < w; ++c) {
      prev[static_cast<size_t>(r) * w + c] =
          static_cast<uint8_t>((r * 31 + c * 17) & 0xFF);
    }
  }
  const int shift_x = 3;
  const int shift_y = 2;
  for (int r = 0; r < h; ++r) {
    for (int c = 0; c < w; ++c) {
      const int pr = r - shift_y;
      const int pc = c - shift_x;
      cur[static_cast<size_t>(r) * w + c] =
          (pr >= 0 && pr < h && pc >= 0 && pc < w)
              ? prev[static_cast<size_t>(pr) * w + pc]
              : 0;
    }
  }
  MotionConfig config;
  config.block = 16;
  config.search = 4;
  const std::vector<int> vectors =
      motion_estimate_frame(cur.data(), prev.data(), w, h, config);
  // Interior blocks must find exactly (-3, -2): the content moved from
  // (r - 2, c - 3) in the previous frame.
  const int bw = w / config.block;
  // Block (1,1) is fully interior.
  const size_t i = (1 * static_cast<size_t>(bw) + 1) * 2;
  EXPECT_EQ(vectors[i], -shift_x);
  EXPECT_EQ(vectors[i + 1], -shift_y);
}

TEST_F(MotionTest, P2gMatchesSequentialReference) {
  auto video = make_video();
  MotionWorkload workload;
  workload.video = video;
  workload.config = small_config();

  RunOptions opts;
  opts.workers = 2;
  opts.retain_fields = {"vectors"};  // read back below
  Runtime rt(workload.build(), opts);
  const RunReport report = rt.run();
  EXPECT_FALSE(report.timed_out);

  const int bw = kWidth / workload.config.block;
  const int bh = kHeight / workload.config.block;
  for (int a = 1; a < kFrames; ++a) {
    const std::vector<int> expected = motion_estimate_frame(
        video->frames[static_cast<size_t>(a)].y.data(),
        video->frames[static_cast<size_t>(a - 1)].y.data(), kWidth,
        kHeight, workload.config);
    const nd::AnyBuffer actual = rt.storage("vectors").fetch_whole(a);
    ASSERT_EQ(actual.element_count(),
              static_cast<int64_t>(expected.size()));
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual.get_as_int(static_cast<int64_t>(i)), expected[i])
          << "frame " << a << " entry " << i;
    }
  }

  // Instance counts: motion runs for frames 1..3 only (a-1 fetch), one
  // instance per block.
  EXPECT_EQ(report.instrumentation.find("motion")->instances,
            static_cast<int64_t>(bw) * bh * (kFrames - 1));
  // trace starts at age 1 too (serial with a leading structural gap).
  EXPECT_EQ(report.instrumentation.find("trace")->instances, kFrames - 1);
  ASSERT_EQ(workload.activity->size(), static_cast<size_t>(kFrames - 1));
  for (double a : *workload.activity) EXPECT_GE(a, 0.0);
}

TEST_F(MotionTest, DeterministicAcrossWorkerCounts) {
  auto video = make_video();
  std::vector<double> reference;
  for (int workers : {1, 4}) {
    MotionWorkload workload;
    workload.video = video;
    workload.config = small_config();
    RunOptions opts;
    opts.workers = workers;
    Runtime rt(workload.build(), opts);
    rt.run();
    if (reference.empty()) {
      reference = *workload.activity;
    } else {
      EXPECT_EQ(*workload.activity, reference);
    }
  }
}

TEST_F(MotionTest, RejectsUnalignedDimensions) {
  MotionWorkload workload;
  workload.video = std::make_shared<media::YuvVideo>(
      media::generate_synthetic_video(50, 48, 2));
  workload.config.block = 16;
  EXPECT_THROW(workload.build(), Error);
}

}  // namespace
}  // namespace p2g::workloads
