#include "media/avi.h"

#include <cstdio>
#include <cstring>

#include "common/error.h"

namespace p2g::media {

namespace {

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
}

void put_fourcc(std::vector<uint8_t>& out, const char* cc) {
  // Byte-wise on purpose: range insert here trips GCC 12's
  // -Wstringop-overflow false positive under -O2.
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(cc[i]));
  }
}

/// Patches a previously reserved little-endian u32.
void patch_u32(std::vector<uint8_t>& out, size_t at, uint32_t v) {
  out[at] = static_cast<uint8_t>(v & 0xFF);
  out[at + 1] = static_cast<uint8_t>((v >> 8) & 0xFF);
  out[at + 2] = static_cast<uint8_t>((v >> 16) & 0xFF);
  out[at + 3] = static_cast<uint8_t>((v >> 24) & 0xFF);
}

uint32_t get_u32(const std::vector<uint8_t>& data, size_t at) {
  P2G_CHECK_ARGUMENT(at + 4 <= data.size(), "truncated AVI");
  return static_cast<uint32_t>(data[at]) |
         (static_cast<uint32_t>(data[at + 1]) << 8) |
         (static_cast<uint32_t>(data[at + 2]) << 16) |
         (static_cast<uint32_t>(data[at + 3]) << 24);
}

bool fourcc_at(const std::vector<uint8_t>& data, size_t at,
               const char* cc) {
  return at + 4 <= data.size() && std::memcmp(&data[at], cc, 4) == 0;
}

constexpr uint32_t kAvifHasIndex = 0x00000010;
constexpr uint32_t kAviIndexKeyframe = 0x00000010;

}  // namespace

std::vector<uint8_t> write_avi(
    const std::vector<std::vector<uint8_t>>& frames, const AviInfo& info) {
  P2G_CHECK_ARGUMENT(info.width > 0 && info.height > 0 && info.fps > 0,
                     "invalid AVI geometry");
  uint32_t max_frame = 0;
  for (const auto& frame : frames) {
    max_frame = std::max(max_frame, static_cast<uint32_t>(frame.size()));
  }

  std::vector<uint8_t> out;
  put_fourcc(out, "RIFF");
  const size_t riff_size_at = out.size();
  put_u32(out, 0);  // patched at the end
  put_fourcc(out, "AVI ");

  // ---- LIST hdrl ----------------------------------------------------------
  put_fourcc(out, "LIST");
  const size_t hdrl_size_at = out.size();
  put_u32(out, 0);
  const size_t hdrl_start = out.size();
  put_fourcc(out, "hdrl");

  // avih: main header.
  put_fourcc(out, "avih");
  put_u32(out, 56);
  put_u32(out, static_cast<uint32_t>(1'000'000 / info.fps));  // us/frame
  put_u32(out, max_frame * static_cast<uint32_t>(info.fps));  // bytes/sec
  put_u32(out, 0);                                            // padding
  put_u32(out, kAvifHasIndex);
  put_u32(out, static_cast<uint32_t>(frames.size()));
  put_u32(out, 0);  // initial frames
  put_u32(out, 1);  // streams
  put_u32(out, max_frame);
  put_u32(out, static_cast<uint32_t>(info.width));
  put_u32(out, static_cast<uint32_t>(info.height));
  for (int i = 0; i < 4; ++i) put_u32(out, 0);  // reserved

  // LIST strl { strh, strf }.
  put_fourcc(out, "LIST");
  const size_t strl_size_at = out.size();
  put_u32(out, 0);
  const size_t strl_start = out.size();
  put_fourcc(out, "strl");

  put_fourcc(out, "strh");
  put_u32(out, 56);
  put_fourcc(out, "vids");
  put_fourcc(out, "MJPG");
  put_u32(out, 0);  // flags
  put_u16(out, 0);  // priority
  put_u16(out, 0);  // language
  put_u32(out, 0);  // initial frames
  put_u32(out, 1);  // scale
  put_u32(out, static_cast<uint32_t>(info.fps));  // rate
  put_u32(out, 0);  // start
  put_u32(out, static_cast<uint32_t>(frames.size()));  // length
  put_u32(out, max_frame);  // suggested buffer
  put_u32(out, 0xFFFFFFFF); // quality (default)
  put_u32(out, 0);  // sample size
  put_u16(out, 0);  // rcFrame
  put_u16(out, 0);
  put_u16(out, static_cast<uint16_t>(info.width));
  put_u16(out, static_cast<uint16_t>(info.height));

  put_fourcc(out, "strf");
  put_u32(out, 40);  // BITMAPINFOHEADER
  put_u32(out, 40);
  put_u32(out, static_cast<uint32_t>(info.width));
  put_u32(out, static_cast<uint32_t>(info.height));
  put_u16(out, 1);   // planes
  put_u16(out, 24);  // bit count
  put_fourcc(out, "MJPG");
  put_u32(out, static_cast<uint32_t>(info.width * info.height * 3));
  put_u32(out, 0);
  put_u32(out, 0);
  put_u32(out, 0);
  put_u32(out, 0);

  patch_u32(out, strl_size_at,
            static_cast<uint32_t>(out.size() - strl_start));
  patch_u32(out, hdrl_size_at,
            static_cast<uint32_t>(out.size() - hdrl_start));

  // ---- LIST movi ----------------------------------------------------------
  put_fourcc(out, "LIST");
  const size_t movi_size_at = out.size();
  put_u32(out, 0);
  const size_t movi_start = out.size();
  put_fourcc(out, "movi");

  std::vector<std::pair<uint32_t, uint32_t>> index;  // offset, size
  for (const auto& frame : frames) {
    // idx1 offsets are relative to the 'movi' fourcc position.
    index.emplace_back(static_cast<uint32_t>(out.size() - movi_start),
                       static_cast<uint32_t>(frame.size()));
    put_fourcc(out, "00dc");
    put_u32(out, static_cast<uint32_t>(frame.size()));
    out.insert(out.end(), frame.begin(), frame.end());
    if (frame.size() % 2 != 0) out.push_back(0);  // even padding
  }
  patch_u32(out, movi_size_at,
            static_cast<uint32_t>(out.size() - movi_start));

  // ---- idx1 ---------------------------------------------------------------
  put_fourcc(out, "idx1");
  put_u32(out, static_cast<uint32_t>(index.size() * 16));
  for (const auto& [offset, size] : index) {
    put_fourcc(out, "00dc");
    put_u32(out, kAviIndexKeyframe);
    put_u32(out, offset);
    put_u32(out, size);
  }

  patch_u32(out, riff_size_at, static_cast<uint32_t>(out.size() - 8));
  return out;
}

void write_avi_file(const std::string& path,
                    const std::vector<std::vector<uint8_t>>& frames,
                    const AviInfo& info) {
  const std::vector<uint8_t> bytes = write_avi(frames, info);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::vector<std::vector<uint8_t>> read_avi(const std::vector<uint8_t>& bytes,
                                           AviInfo* info) {
  P2G_CHECK_ARGUMENT(fourcc_at(bytes, 0, "RIFF") && fourcc_at(bytes, 8, "AVI "),
                     "not an AVI file");
  std::vector<std::vector<uint8_t>> frames;

  size_t pos = 12;
  while (pos + 8 <= bytes.size()) {
    const bool is_list = fourcc_at(bytes, pos, "LIST");
    const uint32_t size = get_u32(bytes, pos + 4);
    if (is_list && fourcc_at(bytes, pos + 8, "hdrl") && info != nullptr) {
      // avih follows immediately inside hdrl.
      const size_t avih = pos + 12;
      if (fourcc_at(bytes, avih, "avih")) {
        info->fps = static_cast<int>(
            1'000'000 / std::max<uint32_t>(1, get_u32(bytes, avih + 8)));
        info->width = static_cast<int>(get_u32(bytes, avih + 8 + 32));
        info->height = static_cast<int>(get_u32(bytes, avih + 8 + 36));
      }
    }
    if (is_list && fourcc_at(bytes, pos + 8, "movi")) {
      size_t cursor = pos + 12;
      const size_t end = pos + 8 + size;
      while (cursor + 8 <= end && cursor + 8 <= bytes.size()) {
        const uint32_t chunk_size = get_u32(bytes, cursor + 4);
        if (fourcc_at(bytes, cursor, "00dc") ||
            fourcc_at(bytes, cursor, "00db")) {
          P2G_CHECK_ARGUMENT(cursor + 8 + chunk_size <= bytes.size(),
                             "truncated frame chunk");
          frames.emplace_back(
              bytes.begin() + static_cast<ptrdiff_t>(cursor + 8),
              bytes.begin() +
                  static_cast<ptrdiff_t>(cursor + 8 + chunk_size));
        }
        cursor += 8 + chunk_size + (chunk_size % 2);  // even alignment
      }
    }
    pos += 8 + size + (size % 2);  // lists are skipped whole at top level
  }
  return frames;
}

std::vector<std::vector<uint8_t>> read_avi_file(const std::string& path,
                                                AviInfo* info) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) {
    throw_error(ErrorKind::kIo, "short read on '" + path + "'");
  }
  return read_avi(bytes, info);
}

}  // namespace p2g::media
