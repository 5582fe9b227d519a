#include "workloads/mjpeg_workload.h"

#include <cstring>

#include "common/error.h"
#include "core/context.h"

namespace p2g::workloads {

using media::kBlockDim;
using media::kBlockSize;

nd::AnyBuffer plane_to_blocks(const uint8_t* plane, int width, int height) {
  const int bw = (width + kBlockDim - 1) / kBlockDim;
  const int bh = (height + kBlockDim - 1) / kBlockDim;
  nd::AnyBuffer out(nd::ElementType::kUInt8, nd::Extents({bh, bw, 64}));
  uint8_t* dst = out.data<uint8_t>();
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      media::extract_block(plane, width, height, by, bx,
                           dst + (static_cast<size_t>(by) *
                                      static_cast<size_t>(bw) +
                                  static_cast<size_t>(bx)) *
                                     kBlockSize);
    }
  }
  return out;
}

namespace {

/// Builds one DCT kernel definition: input(a)[by][bx] -> result(a)[by][bx].
void add_dct_kernel(ProgramBuilder& pb, const std::string& name,
                    const std::string& input, const std::string& result,
                    media::QuantTable table, bool fast_dct) {
  pb.kernel(name)
      .index("by")
      .index("bx")
      .fetch("block", input, AgeExpr::relative(0),
             Slice().var("by").var("bx").all())
      .store("out", result, AgeExpr::relative(0),
             Slice().var("by").var("bx").all())
      .body([table, fast_dct](KernelContext& ctx) {
        const nd::AnyBuffer& block = ctx.fetch_array("block");
        P2G_CHECK_INTERNAL(block.element_count() == kBlockSize,
                           "DCT kernel expects one 8x8 block");
        nd::AnyBuffer out(nd::ElementType::kInt16, nd::Extents({64}));
        media::dct_quantize_block(block.data<uint8_t>(), table, fast_dct,
                                  out.data<int16_t>());
        ctx.store_array("out", std::move(out));
      });
}

/// Rebuilds a CoeffGrid from a [bh][bw][64] int16 field buffer (identical
/// memory layout, so one memcpy).
media::CoeffGrid grid_from_buffer(const nd::AnyBuffer& buf) {
  const auto& ext = buf.extents();
  media::CoeffGrid grid(static_cast<int>(ext.dim(0)),
                        static_cast<int>(ext.dim(1)));
  std::memcpy(grid.coeffs.data(), buf.data<int16_t>(),
              grid.coeffs.size() * sizeof(int16_t));
  return grid;
}

}  // namespace

Program MjpegWorkload::build() const {
  P2G_CHECK_ARGUMENT(video != nullptr, "MjpegWorkload needs a video");

  ProgramBuilder pb;
  pb.field("yInput", nd::ElementType::kUInt8, 3);
  pb.field("uInput", nd::ElementType::kUInt8, 3);
  pb.field("vInput", nd::ElementType::kUInt8, 3);
  pb.field("yResult", nd::ElementType::kInt16, 3);
  pb.field("uResult", nd::ElementType::kInt16, 3);
  pb.field("vResult", nd::ElementType::kInt16, 3);

  const media::QuantTable luma =
      media::scale_table(media::standard_luma_table(), config.quality);
  const media::QuantTable chroma =
      media::scale_table(media::standard_chroma_table(), config.quality);

  // read + splitYUV: one source instance per age; the instance that finds
  // no frame left stores nothing and does not continue (paper: "the read
  // loop ends when the kernel stops storing to the next age").
  auto video_ref = video;
  pb.kernel("read_splityuv")
      .store("y", "yInput", AgeExpr::relative(0), Slice::whole())
      .store("u", "uInput", AgeExpr::relative(0), Slice::whole())
      .store("v", "vInput", AgeExpr::relative(0), Slice::whole())
      .body([video_ref](KernelContext& ctx) {
        const auto frame_index = static_cast<size_t>(ctx.age());
        if (frame_index >= video_ref->frames.size()) return;  // EOF
        const media::YuvFrame& frame = video_ref->frames[frame_index];
        ctx.store_array("y", plane_to_blocks(frame.y.data(), frame.width,
                                             frame.height));
        ctx.store_array("u",
                        plane_to_blocks(frame.u.data(), frame.chroma_width(),
                                        frame.chroma_height()));
        ctx.store_array("v",
                        plane_to_blocks(frame.v.data(), frame.chroma_width(),
                                        frame.chroma_height()));
        ctx.continue_next_age();
      });

  add_dct_kernel(pb, "yDCT", "yInput", "yResult", luma, config.fast_dct);
  add_dct_kernel(pb, "uDCT", "uInput", "uResult", chroma, config.fast_dct);
  add_dct_kernel(pb, "vDCT", "vInput", "vResult", chroma, config.fast_dct);

  auto out_ref = output;
  const int width = video->width;
  const int height = video->height;
  pb.kernel("vlc_write")
      .serial()
      .fetch("y", "yResult", AgeExpr::relative(0), Slice::whole())
      .fetch("u", "uResult", AgeExpr::relative(0), Slice::whole())
      .fetch("v", "vResult", AgeExpr::relative(0), Slice::whole())
      .body([out_ref, width, height, luma, chroma](KernelContext& ctx) {
        const media::CoeffGrid y = grid_from_buffer(ctx.fetch_array("y"));
        const media::CoeffGrid u = grid_from_buffer(ctx.fetch_array("u"));
        const media::CoeffGrid v = grid_from_buffer(ctx.fetch_array("v"));
        out_ref->add_frame(media::encode_jpeg_from_coeffs(
            width, height, y, u, v, luma, chroma));
      });

  return pb.build();
}

}  // namespace p2g::workloads
