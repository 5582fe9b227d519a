#include "media/yuv.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"

namespace p2g::media {

YuvFrame::YuvFrame(int w, int h) : width(w), height(h) {
  P2G_CHECK_ARGUMENT(w > 0 && h > 0 && w % 2 == 0 && h % 2 == 0,
                     "frame dimensions must be positive and even");
  y.assign(static_cast<size_t>(w) * static_cast<size_t>(h), 0);
  u.assign(static_cast<size_t>(w / 2) * static_cast<size_t>(h / 2), 0);
  v.assign(static_cast<size_t>(w / 2) * static_cast<size_t>(h / 2), 0);
}

namespace {

/// Small deterministic integer hash (xorshift-style) for texture noise.
inline uint32_t hash3(uint32_t x, uint32_t y, uint32_t t) {
  uint32_t h = x * 374761393u + y * 668265263u + t * 2246822519u;
  h = (h ^ (h >> 13)) * 1274126177u;
  return h ^ (h >> 16);
}

}  // namespace

YuvVideo generate_synthetic_video(int width, int height, int frames,
                                  uint32_t seed) {
  P2G_CHECK_ARGUMENT(frames >= 0, "frame count must be non-negative");
  YuvVideo video;
  video.width = width;
  video.height = height;
  video.frames.reserve(static_cast<size_t>(frames));

  for (int t = 0; t < frames; ++t) {
    YuvFrame frame(width, height);
    // Luma: diagonal gradient sweeping with time, a moving bright square
    // and hash noise in the lower third (keeps the DCT busy).
    for (int r = 0; r < height; ++r) {
      for (int c = 0; c < width; ++c) {
        int value = ((c + 2 * t) * 255 / (width + 2 * frames) +
                     (r * 255) / height) /
                    2;
        const int sq = std::min({48, width / 2, height / 2});
        const int sx = (t * 7) % std::max(1, width - sq);
        const int sy = (t * 5) % std::max(1, height - sq);
        if (c >= sx && c < sx + sq && r >= sy && r < sy + sq) {
          value = 255 - value;
        }
        if (r > 2 * height / 3) {
          value = (value + static_cast<int>(
                               hash3(static_cast<uint32_t>(c),
                                     static_cast<uint32_t>(r),
                                     static_cast<uint32_t>(t) ^ seed) &
                               0x3F)) &
                  0xFF;
        }
        frame.y[static_cast<size_t>(r) * static_cast<size_t>(width) +
                static_cast<size_t>(c)] = static_cast<uint8_t>(value);
      }
    }
    // Chroma: slow radial sweep.
    const int cw = frame.chroma_width();
    const int ch = frame.chroma_height();
    for (int r = 0; r < ch; ++r) {
      for (int c = 0; c < cw; ++c) {
        const size_t i = static_cast<size_t>(r) * static_cast<size_t>(cw) +
                         static_cast<size_t>(c);
        frame.u[i] = static_cast<uint8_t>(128 + ((c - cw / 2 + t) * 80) / cw);
        frame.v[i] = static_cast<uint8_t>(128 + ((r - ch / 2 - t) * 80) / ch);
      }
    }
    video.frames.push_back(std::move(frame));
  }
  return video;
}

void write_yuv_file(const std::string& path, const YuvVideo& video) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  }
  for (const YuvFrame& frame : video.frames) {
    std::fwrite(frame.y.data(), 1, frame.y.size(), f);
    std::fwrite(frame.u.data(), 1, frame.u.size(), f);
    std::fwrite(frame.v.data(), 1, frame.v.size(), f);
  }
  std::fclose(f);
}

YuvVideo read_yuv_file(const std::string& path, int width, int height) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for reading");
  }
  YuvVideo video;
  video.width = width;
  video.height = height;
  while (true) {
    YuvFrame frame(width, height);
    const size_t got_y = std::fread(frame.y.data(), 1, frame.y.size(), f);
    if (got_y == 0) break;  // clean end of file
    const size_t got_u = std::fread(frame.u.data(), 1, frame.u.size(), f);
    const size_t got_v = std::fread(frame.v.data(), 1, frame.v.size(), f);
    if (got_y != frame.y.size() || got_u != frame.u.size() ||
        got_v != frame.v.size()) {
      std::fclose(f);
      throw_error(ErrorKind::kIo, "truncated YUV frame in '" + path + "'");
    }
    video.frames.push_back(std::move(frame));
  }
  std::fclose(f);
  return video;
}

double psnr(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  P2G_CHECK_ARGUMENT(a.size() == b.size() && !a.empty(),
                     "psnr requires equal non-empty planes");
  double mse = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.size());
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace p2g::media
