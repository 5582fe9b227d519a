#include "media/quant.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace p2g::media {

const QuantTable& standard_luma_table() {
  static const QuantTable table = {
      16, 11, 10, 16, 24,  40,  51,  61,
      12, 12, 14, 19, 26,  58,  60,  55,
      14, 13, 16, 24, 40,  57,  69,  56,
      14, 17, 22, 29, 51,  87,  80,  62,
      18, 22, 37, 56, 68,  109, 103, 77,
      24, 35, 55, 64, 81,  104, 113, 92,
      49, 64, 78, 87, 103, 121, 120, 101,
      72, 92, 95, 98, 112, 100, 103, 99};
  return table;
}

const QuantTable& standard_chroma_table() {
  static const QuantTable table = {
      17, 18, 24, 47, 99, 99, 99, 99,
      18, 21, 26, 66, 99, 99, 99, 99,
      24, 26, 56, 99, 99, 99, 99, 99,
      47, 66, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99,
      99, 99, 99, 99, 99, 99, 99, 99};
  return table;
}

QuantTable scale_table(const QuantTable& base, int quality) {
  P2G_CHECK_ARGUMENT(quality >= 1 && quality <= 100,
                     "quality must be in [1, 100]");
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  QuantTable out;
  for (int i = 0; i < kBlockSize; ++i) {
    const int v = (static_cast<int>(base[static_cast<size_t>(i)]) * scale +
                   50) /
                  100;
    out[static_cast<size_t>(i)] =
        static_cast<uint16_t>(std::clamp(v, 1, 255));
  }
  return out;
}

const std::array<int, kBlockSize>& zigzag_order() {
  static const std::array<int, kBlockSize> order = {
      0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
      12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
      35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
      58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};
  return order;
}

const std::array<int, kBlockSize>& zigzag_inverse() {
  static const std::array<int, kBlockSize> inverse = [] {
    std::array<int, kBlockSize> inv{};
    const auto& order = zigzag_order();
    for (int k = 0; k < kBlockSize; ++k) {
      inv[static_cast<size_t>(order[static_cast<size_t>(k)])] = k;
    }
    return inv;
  }();
  return inverse;
}

void quantize(const double dct[kBlockSize], const QuantTable& table,
              int16_t out[kBlockSize]) {
  for (int i = 0; i < kBlockSize; ++i) {
    out[i] = static_cast<int16_t>(
        std::lround(dct[i] / static_cast<double>(table[static_cast<size_t>(i)])));
  }
}

void quantize_aan(const double scaled_dct[kBlockSize],
                  const QuantTable& table, int16_t out[kBlockSize]) {
  for (int u = 0; u < kBlockDim; ++u) {
    for (int v = 0; v < kBlockDim; ++v) {
      const int i = u * kBlockDim + v;
      const double divisor =
          static_cast<double>(table[static_cast<size_t>(i)]) *
          aan_scale_factor(u, v);
      out[i] = static_cast<int16_t>(std::lround(scaled_dct[i] / divisor));
    }
  }
}

void dequantize(const int16_t quantized[kBlockSize], const QuantTable& table,
                double out[kBlockSize]) {
  for (int i = 0; i < kBlockSize; ++i) {
    out[i] = static_cast<double>(quantized[i]) *
             static_cast<double>(table[static_cast<size_t>(i)]);
  }
}

}  // namespace p2g::media
