#include "workloads/motion.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "core/context.h"

namespace p2g::workloads {

namespace {

int64_t sad_at(const uint8_t* cur_block, int block, const uint8_t* prev,
               int width, int height, int top, int left) {
  int64_t sad = 0;
  for (int r = 0; r < block; ++r) {
    const int prow = top + r;
    for (int c = 0; c < block; ++c) {
      const int pcol = left + c;
      int prev_pixel = 0;
      if (prow >= 0 && prow < height && pcol >= 0 && pcol < width) {
        prev_pixel = prev[static_cast<size_t>(prow) *
                              static_cast<size_t>(width) +
                          static_cast<size_t>(pcol)];
      }
      sad += std::abs(static_cast<int>(cur_block[r * block + c]) -
                      prev_pixel);
    }
  }
  return sad;
}

/// Full search around (block_top, block_left); scan order dy-major so ties
/// resolve identically everywhere.
void best_vector(const uint8_t* cur_block, int block, const uint8_t* prev,
                 int width, int height, int block_top, int block_left,
                 int search, int* dx, int* dy) {
  int64_t best = std::numeric_limits<int64_t>::max();
  *dx = 0;
  *dy = 0;
  for (int cand_dy = -search; cand_dy <= search; ++cand_dy) {
    for (int cand_dx = -search; cand_dx <= search; ++cand_dx) {
      const int64_t sad =
          sad_at(cur_block, block, prev, width, height,
                 block_top + cand_dy, block_left + cand_dx);
      if (sad < best) {
        best = sad;
        *dx = cand_dx;
        *dy = cand_dy;
      }
    }
  }
}

}  // namespace

std::vector<int> motion_estimate_frame(const uint8_t* cur,
                                       const uint8_t* prev, int width,
                                       int height,
                                       const MotionConfig& config) {
  const int block = config.block;
  const int bw = width / block;
  const int bh = height / block;
  std::vector<int> out(static_cast<size_t>(bw) * static_cast<size_t>(bh) *
                       2);
  std::vector<uint8_t> cur_block(static_cast<size_t>(block) *
                                 static_cast<size_t>(block));
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      for (int r = 0; r < block; ++r) {
        std::memcpy(&cur_block[static_cast<size_t>(r * block)],
                    cur + static_cast<size_t>(by * block + r) *
                              static_cast<size_t>(width) +
                        static_cast<size_t>(bx * block),
                    static_cast<size_t>(block));
      }
      int dx = 0;
      int dy = 0;
      best_vector(cur_block.data(), block, prev, width, height, by * block,
                  bx * block, config.search, &dx, &dy);
      const size_t i =
          (static_cast<size_t>(by) * static_cast<size_t>(bw) +
           static_cast<size_t>(bx)) *
          2;
      out[i] = dx;
      out[i + 1] = dy;
    }
  }
  return out;
}

Program MotionWorkload::build() const {
  P2G_CHECK_ARGUMENT(video != nullptr, "MotionWorkload needs a video");
  const int block = config.block;
  const int search = config.search;
  const int width = video->width;
  const int height = video->height;
  P2G_CHECK_ARGUMENT(width % block == 0 && height % block == 0,
                     "frame dimensions must be multiples of the block size");

  ProgramBuilder pb;
  pb.field("planes", nd::ElementType::kUInt8, 2);   // [h][w]
  pb.field("blocks", nd::ElementType::kUInt8, 3);   // [bh][bw][block^2]
  pb.field("vectors", nd::ElementType::kInt32, 3);  // [bh][bw][2]

  auto video_ref = video;
  pb.kernel("read")
      .store("plane", "planes", AgeExpr::relative(0), Slice::whole())
      .store("blk", "blocks", AgeExpr::relative(0), Slice::whole())
      .body([video_ref, block, width, height](KernelContext& ctx) {
        const auto index = static_cast<size_t>(ctx.age());
        if (index >= video_ref->frames.size()) return;
        const media::YuvFrame& frame = video_ref->frames[index];

        nd::AnyBuffer plane(nd::ElementType::kUInt8,
                            nd::Extents({height, width}));
        std::memcpy(plane.raw(), frame.y.data(), frame.y.size());

        const int bw = width / block;
        const int bh = height / block;
        nd::AnyBuffer blocks(nd::ElementType::kUInt8,
                             nd::Extents({bh, bw, block * block}));
        uint8_t* dst = blocks.data<uint8_t>();
        for (int by = 0; by < bh; ++by) {
          for (int bx = 0; bx < bw; ++bx) {
            for (int r = 0; r < block; ++r) {
              std::memcpy(
                  dst, frame.y.data() +
                           static_cast<size_t>(by * block + r) *
                               static_cast<size_t>(width) +
                           static_cast<size_t>(bx * block),
                  static_cast<size_t>(block));
              dst += block;
            }
          }
        }
        ctx.store_array("plane", std::move(plane));
        ctx.store_array("blk", std::move(blocks));
        ctx.continue_next_age();
      });

  pb.kernel("motion")
      .index("by")
      .index("bx")
      .fetch("blk", "blocks", AgeExpr::relative(0),
             Slice().var("by").var("bx").all())
      .fetch("prev", "planes", AgeExpr::relative(-1), Slice::whole())
      .store("mv", "vectors", AgeExpr::relative(0),
             Slice().var("by").var("bx").all())
      .body([block, search, width, height](KernelContext& ctx) {
        // Both fetches alias field storage: the block row is contiguous by
        // construction and the previous plane is a whole sealed age.
        const nd::ConstView& blk = ctx.fetch_view("blk");
        const nd::ConstView& prev = ctx.fetch_view("prev");
        int dx = 0;
        int dy = 0;
        best_vector(blk.data<uint8_t>(), block, prev.data<uint8_t>(),
                    width, height,
                    static_cast<int>(ctx.index("by")) * block,
                    static_cast<int>(ctx.index("bx")) * block, search,
                    &dx, &dy);
        nd::AnyBuffer mv(nd::ElementType::kInt32, nd::Extents({2}));
        mv.data<int32_t>()[0] = dx;
        mv.data<int32_t>()[1] = dy;
        ctx.store_array("mv", std::move(mv));
      });

  auto sink = activity;
  pb.kernel("trace")
      .serial()
      .fetch("mvs", "vectors", AgeExpr::relative(0), Slice::whole())
      .body([sink](KernelContext& ctx) {
        const nd::ConstView& mvs = ctx.fetch_view("mvs");
        double total = 0.0;
        const int64_t blocks = mvs.element_count() / 2;
        for (int64_t b = 0; b < blocks; ++b) {
          const double dx = mvs.get_as_double(2 * b);
          const double dy = mvs.get_as_double(2 * b + 1);
          total += std::sqrt(dx * dx + dy * dy);
        }
        sink->push_back(blocks > 0 ? total / static_cast<double>(blocks)
                                   : 0.0);
      });

  return pb.build();
}

}  // namespace p2g::workloads
