#include "media/jpeg.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace p2g::media {

void extract_block(const uint8_t* plane, int width, int height, int by,
                   int bx, uint8_t out[kBlockSize]) {
  for (int r = 0; r < kBlockDim; ++r) {
    const int row = std::min(by * kBlockDim + r, height - 1);
    for (int c = 0; c < kBlockDim; ++c) {
      const int col = std::min(bx * kBlockDim + c, width - 1);
      out[r * kBlockDim + c] =
          plane[static_cast<size_t>(row) * static_cast<size_t>(width) +
                static_cast<size_t>(col)];
    }
  }
}

void dct_quantize_block(const uint8_t pixels[kBlockSize],
                        const QuantTable& table, bool fast_dct,
                        int16_t out[kBlockSize]) {
  double dct[kBlockSize];
  if (fast_dct) {
    forward_dct_aan(pixels, dct);
    quantize_aan(dct, table, out);
  } else {
    forward_dct_naive(pixels, dct);
    quantize(dct, table, out);
  }
}

CoeffGrid dct_quantize_plane(const uint8_t* plane, int width, int height,
                             const QuantTable& table, bool fast_dct) {
  const int bw = (width + kBlockDim - 1) / kBlockDim;
  const int bh = (height + kBlockDim - 1) / kBlockDim;
  CoeffGrid grid(bh, bw);
  uint8_t pixels[kBlockSize];
  for (int by = 0; by < bh; ++by) {
    for (int bx = 0; bx < bw; ++bx) {
      extract_block(plane, width, height, by, bx, pixels);
      dct_quantize_block(pixels, table, fast_dct, grid.block(by, bx));
    }
  }
  return grid;
}

namespace {

enum Marker : uint8_t {
  kSOI = 0xD8,
  kEOI = 0xD9,
  kAPP0 = 0xE0,
  kDQT = 0xDB,
  kSOF0 = 0xC0,
  kDHT = 0xC4,
  kSOS = 0xDA,
  kCOM = 0xFE,
};

void write_marker(BitWriter& w, uint8_t marker) {
  w.put_byte(0xFF);
  w.put_byte(marker);
}

void write_app0(BitWriter& w) {
  write_marker(w, kAPP0);
  w.put_u16(16);
  for (char ch : {'J', 'F', 'I', 'F', '\0'}) {
    w.put_byte(static_cast<uint8_t>(ch));
  }
  w.put_byte(1);  // version 1.1
  w.put_byte(1);
  w.put_byte(0);  // density units: none
  w.put_u16(1);
  w.put_u16(1);
  w.put_byte(0);  // no thumbnail
  w.put_byte(0);
}

void write_dqt(BitWriter& w, int id, const QuantTable& table) {
  write_marker(w, kDQT);
  w.put_u16(2 + 1 + kBlockSize);
  w.put_byte(static_cast<uint8_t>(id));  // 8-bit precision, table id
  const auto& zz = zigzag_order();
  for (int k = 0; k < kBlockSize; ++k) {
    w.put_byte(static_cast<uint8_t>(table[static_cast<size_t>(
        zz[static_cast<size_t>(k)])]));
  }
}

void write_sof0(BitWriter& w, int width, int height) {
  write_marker(w, kSOF0);
  w.put_u16(8 + 3 * 3);
  w.put_byte(8);  // sample precision
  w.put_u16(static_cast<uint16_t>(height));
  w.put_u16(static_cast<uint16_t>(width));
  w.put_byte(3);
  // Y: id 1, 2x2 sampling, qtable 0. Cb/Cr: 1x1, qtable 1.
  w.put_byte(1); w.put_byte(0x22); w.put_byte(0);
  w.put_byte(2); w.put_byte(0x11); w.put_byte(1);
  w.put_byte(3); w.put_byte(0x11); w.put_byte(1);
}

void write_dht(BitWriter& w, int table_class, int id,
               const HuffTable& table) {
  const std::vector<uint8_t> payload = table.dht_payload();
  write_marker(w, kDHT);
  w.put_u16(static_cast<uint16_t>(2 + 1 + payload.size()));
  w.put_byte(static_cast<uint8_t>((table_class << 4) | id));
  for (uint8_t b : payload) w.put_byte(b);
}

void write_sos(BitWriter& w) {
  write_marker(w, kSOS);
  w.put_u16(6 + 2 * 3);
  w.put_byte(3);
  w.put_byte(1); w.put_byte(0x00);  // Y: DC 0 / AC 0
  w.put_byte(2); w.put_byte(0x11);  // Cb: DC 1 / AC 1
  w.put_byte(3); w.put_byte(0x11);  // Cr
  w.put_byte(0);   // spectral start
  w.put_byte(63);  // spectral end
  w.put_byte(0);   // successive approximation
}

const int16_t kZeroBlock[kBlockSize] = {};

/// Returns the block or an all-zero block when (by, bx) is out of range
/// (padding MCUs at the right/bottom edges).
const int16_t* block_or_zero(const CoeffGrid& grid, int by, int bx) {
  if (by >= grid.blocks_h || bx >= grid.blocks_w) return kZeroBlock;
  return grid.block(by, bx);
}

}  // namespace

std::vector<uint8_t> encode_jpeg_from_coeffs(
    int width, int height, const CoeffGrid& y, const CoeffGrid& u,
    const CoeffGrid& v, const QuantTable& luma_table,
    const QuantTable& chroma_table) {
  P2G_CHECK_ARGUMENT(width > 0 && height > 0, "bad frame dimensions");
  P2G_CHECK_ARGUMENT(u.blocks_h == v.blocks_h && u.blocks_w == v.blocks_w,
                     "chroma grids must agree");

  BitWriter w(/*stuffing=*/true);
  write_marker(w, kSOI);
  write_app0(w);
  write_dqt(w, 0, luma_table);
  write_dqt(w, 1, chroma_table);
  write_sof0(w, width, height);
  write_dht(w, 0, 0, std_dc_luma());
  write_dht(w, 1, 0, std_ac_luma());
  write_dht(w, 0, 1, std_dc_chroma());
  write_dht(w, 1, 1, std_ac_chroma());
  write_sos(w);

  // Interleaved 4:2:0 MCU scan: 4 Y blocks, 1 Cb, 1 Cr per MCU.
  const int mcus_w = (width + 15) / 16;
  const int mcus_h = (height + 15) / 16;
  int dc_y = 0;
  int dc_u = 0;
  int dc_v = 0;
  for (int my = 0; my < mcus_h; ++my) {
    for (int mx = 0; mx < mcus_w; ++mx) {
      for (int sy = 0; sy < 2; ++sy) {
        for (int sx = 0; sx < 2; ++sx) {
          encode_block(block_or_zero(y, 2 * my + sy, 2 * mx + sx), dc_y,
                       std_dc_luma(), std_ac_luma(), w);
        }
      }
      encode_block(block_or_zero(u, my, mx), dc_u, std_dc_chroma(),
                   std_ac_chroma(), w);
      encode_block(block_or_zero(v, my, mx), dc_v, std_dc_chroma(),
                   std_ac_chroma(), w);
    }
  }
  w.flush();
  write_marker(w, kEOI);
  return w.take();
}

std::vector<uint8_t> encode_jpeg(const YuvFrame& frame,
                                 const EncoderConfig& config) {
  const QuantTable luma = scale_table(standard_luma_table(), config.quality);
  const QuantTable chroma =
      scale_table(standard_chroma_table(), config.quality);
  const CoeffGrid y = dct_quantize_plane(frame.y.data(), frame.width,
                                         frame.height, luma,
                                         config.fast_dct);
  const CoeffGrid u =
      dct_quantize_plane(frame.u.data(), frame.chroma_width(),
                         frame.chroma_height(), chroma, config.fast_dct);
  const CoeffGrid v =
      dct_quantize_plane(frame.v.data(), frame.chroma_width(),
                         frame.chroma_height(), chroma, config.fast_dct);
  return encode_jpeg_from_coeffs(frame.width, frame.height, y, u, v, luma,
                                 chroma);
}

namespace {

/// Streaming decoder state.
struct Decoder {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t pos = 0;

  int width = 0;
  int height = 0;
  QuantTable qtables[4] = {};
  bool has_qtable[4] = {};
  std::vector<HuffTable> dc_tables{};
  std::vector<HuffTable> ac_tables{};
  int dc_ids[4] = {-1, -1, -1, -1};  // slot -> index into dc_tables
  int ac_ids[4] = {-1, -1, -1, -1};

  struct Component {
    int id = 0;
    int h = 1, v = 1;
    int qtable = 0;
    int dc_slot = 0, ac_slot = 0;
  };
  Component comps[3];
  int comp_count = 0;

  uint8_t u8() {
    if (pos >= size) throw_error(ErrorKind::kIo, "truncated JPEG");
    return data[pos++];
  }
  uint16_t u16() {
    const uint16_t hi = u8();
    return static_cast<uint16_t>((hi << 8) | u8());
  }
};

void parse_dqt(Decoder& d, size_t segment_end) {
  while (d.pos < segment_end) {
    const uint8_t pq_tq = d.u8();
    P2G_CHECK_ARGUMENT((pq_tq >> 4) == 0, "only 8-bit quant tables supported");
    const int id = pq_tq & 0x0F;
    const auto& zz = zigzag_order();
    for (int k = 0; k < kBlockSize; ++k) {
      d.qtables[id][static_cast<size_t>(zz[static_cast<size_t>(k)])] =
          d.u8();
    }
    d.has_qtable[id] = true;
  }
}

void parse_dht(Decoder& d, size_t segment_end) {
  while (d.pos < segment_end) {
    const uint8_t tc_th = d.u8();
    const int table_class = tc_th >> 4;
    const int id = tc_th & 0x0F;
    std::array<uint8_t, 16> bits{};
    size_t total = 0;
    for (auto& b : bits) {
      b = d.u8();
      total += b;
    }
    std::vector<uint8_t> values(total);
    for (auto& v : values) v = d.u8();
    if (table_class == 0) {
      d.dc_ids[id] = static_cast<int>(d.dc_tables.size());
      d.dc_tables.emplace_back(bits, values);
    } else {
      d.ac_ids[id] = static_cast<int>(d.ac_tables.size());
      d.ac_tables.emplace_back(bits, values);
    }
  }
}

void parse_sof0(Decoder& d) {
  const int precision = d.u8();
  P2G_CHECK_ARGUMENT(precision == 8, "only 8-bit precision supported");
  d.height = d.u16();
  d.width = d.u16();
  d.comp_count = d.u8();
  P2G_CHECK_ARGUMENT(d.comp_count == 3, "only 3-component JPEGs supported");
  for (int i = 0; i < d.comp_count; ++i) {
    auto& c = d.comps[i];
    c.id = d.u8();
    const uint8_t hv = d.u8();
    c.h = hv >> 4;
    c.v = hv & 0x0F;
    c.qtable = d.u8();
  }
  P2G_CHECK_ARGUMENT(d.comps[0].h == 2 && d.comps[0].v == 2 &&
                         d.comps[1].h == 1 && d.comps[1].v == 1 &&
                         d.comps[2].h == 1 && d.comps[2].v == 1,
                     "only 4:2:0 (2x2 / 1x1 / 1x1) sampling supported");
}

}  // namespace

YuvFrame decode_jpeg(const uint8_t* data, size_t size) {
  Decoder d;
  d.data = data;
  d.size = size;
  P2G_CHECK_ARGUMENT(d.u8() == 0xFF && d.u8() == kSOI, "missing SOI marker");

  bool in_scan = false;
  while (!in_scan) {
    uint8_t byte = d.u8();
    P2G_CHECK_ARGUMENT(byte == 0xFF, "expected marker");
    uint8_t marker = d.u8();
    while (marker == 0xFF) marker = d.u8();  // fill bytes
    if (marker == kEOI) {
      throw_error(ErrorKind::kIo, "EOI before scan data");
    }
    const size_t length = d.u16();
    const size_t segment_end = d.pos + length - 2;
    switch (marker) {
      case kDQT: parse_dqt(d, segment_end); break;
      case kDHT: parse_dht(d, segment_end); break;
      case kSOF0: parse_sof0(d); break;
      case kSOS: {
        const int n = d.u8();
        P2G_CHECK_ARGUMENT(n == d.comp_count, "SOS component count mismatch");
        for (int i = 0; i < n; ++i) {
          const int id = d.u8();
          const uint8_t slots = d.u8();
          for (int c = 0; c < d.comp_count; ++c) {
            if (d.comps[c].id == id) {
              d.comps[c].dc_slot = slots >> 4;
              d.comps[c].ac_slot = slots & 0x0F;
            }
          }
        }
        d.pos += 3;  // spectral selection bytes
        in_scan = true;
        break;
      }
      case kSOF0 + 1: case kSOF0 + 2: case kSOF0 + 3:
        throw_error(ErrorKind::kIo, "only baseline (SOF0) supported");
      default:
        d.pos = segment_end;  // skip APPn / COM / others
        break;
    }
  }

  P2G_CHECK_ARGUMENT(d.width > 0 && d.height > 0, "missing SOF0 before SOS");
  YuvFrame frame(d.width + (d.width % 2), d.height + (d.height % 2));
  frame.width = d.width;
  frame.height = d.height;

  const QuantTable& qy = d.qtables[d.comps[0].qtable];
  const QuantTable& qc = d.qtables[d.comps[1].qtable];
  const HuffTable& dc_y = d.dc_tables[static_cast<size_t>(
      d.dc_ids[d.comps[0].dc_slot])];
  const HuffTable& ac_y = d.ac_tables[static_cast<size_t>(
      d.ac_ids[d.comps[0].ac_slot])];
  const HuffTable& dc_c = d.dc_tables[static_cast<size_t>(
      d.dc_ids[d.comps[1].dc_slot])];
  const HuffTable& ac_c = d.ac_tables[static_cast<size_t>(
      d.ac_ids[d.comps[1].ac_slot])];

  BitReader reader(data + d.pos, size - d.pos, /*stuffing=*/true);
  const int mcus_w = (d.width + 15) / 16;
  const int mcus_h = (d.height + 15) / 16;
  int pred_y = 0;
  int pred_u = 0;
  int pred_v = 0;

  auto place_block = [](std::vector<uint8_t>& plane, int plane_w,
                        int plane_h, int by, int bx,
                        const uint8_t pixels[kBlockSize]) {
    for (int r = 0; r < kBlockDim; ++r) {
      const int row = by * kBlockDim + r;
      if (row >= plane_h) break;
      for (int c = 0; c < kBlockDim; ++c) {
        const int col = bx * kBlockDim + c;
        if (col >= plane_w) break;
        plane[static_cast<size_t>(row) * static_cast<size_t>(plane_w) +
              static_cast<size_t>(col)] = pixels[r * kBlockDim + c];
      }
    }
  };

  int16_t quantized[kBlockSize];
  double coeffs[kBlockSize];
  uint8_t pixels[kBlockSize];
  for (int my = 0; my < mcus_h; ++my) {
    for (int mx = 0; mx < mcus_w; ++mx) {
      for (int sy = 0; sy < 2; ++sy) {
        for (int sx = 0; sx < 2; ++sx) {
          decode_block(reader, pred_y, dc_y, ac_y, quantized);
          dequantize(quantized, qy, coeffs);
          inverse_dct_naive(coeffs, pixels);
          place_block(frame.y, frame.width, frame.height, 2 * my + sy,
                      2 * mx + sx, pixels);
        }
      }
      decode_block(reader, pred_u, dc_c, ac_c, quantized);
      dequantize(quantized, qc, coeffs);
      inverse_dct_naive(coeffs, pixels);
      place_block(frame.u, frame.chroma_width(), frame.chroma_height(), my,
                  mx, pixels);
      decode_block(reader, pred_v, dc_c, ac_c, quantized);
      dequantize(quantized, qc, coeffs);
      inverse_dct_naive(coeffs, pixels);
      place_block(frame.v, frame.chroma_width(), frame.chroma_height(), my,
                  mx, pixels);
    }
  }
  return frame;
}

}  // namespace p2g::media
