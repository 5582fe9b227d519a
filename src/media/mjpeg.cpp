#include "media/mjpeg.h"

#include <cstdio>

#include "common/error.h"

namespace p2g::media {

void MjpegWriter::add_frame(std::vector<uint8_t> jpeg_bytes) {
  P2G_CHECK_ARGUMENT(jpeg_bytes.size() >= 4 && jpeg_bytes[0] == 0xFF &&
                         jpeg_bytes[1] == 0xD8,
                     "frame does not start with SOI");
  offsets_.push_back(stream_.size());
  stream_.insert(stream_.end(), jpeg_bytes.begin(), jpeg_bytes.end());
}

void MjpegWriter::write_file(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  }
  std::fwrite(stream_.data(), 1, stream_.size(), f);
  std::fclose(f);
}

std::vector<std::vector<uint8_t>> split_mjpeg(
    const std::vector<uint8_t>& stream) {
  std::vector<std::vector<uint8_t>> frames;
  size_t start = SIZE_MAX;
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    if (stream[i] != 0xFF) continue;
    if (stream[i + 1] == 0xD8 && start == SIZE_MAX) {
      start = i;
    } else if (stream[i + 1] == 0xD9 && start != SIZE_MAX) {
      frames.emplace_back(stream.begin() + static_cast<ptrdiff_t>(start),
                          stream.begin() + static_cast<ptrdiff_t>(i + 2));
      start = SIZE_MAX;
      ++i;  // skip the D9
    }
  }
  if (start != SIZE_MAX) {
    throw_error(ErrorKind::kIo, "truncated final frame in MJPEG stream");
  }
  return frames;
}

std::vector<std::vector<uint8_t>> read_mjpeg_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for reading");
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> stream(static_cast<size_t>(len));
  const size_t got = std::fread(stream.data(), 1, stream.size(), f);
  std::fclose(f);
  if (got != stream.size()) {
    throw_error(ErrorKind::kIo, "short read on '" + path + "'");
  }
  return split_mjpeg(stream);
}

}  // namespace p2g::media
