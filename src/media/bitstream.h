// MSB-first bit I/O with JPEG 0xFF byte stuffing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace p2g::media {

/// Writes bits MSB-first. When `stuffing` is enabled (JPEG entropy-coded
/// segments), every emitted 0xFF byte is followed by a 0x00 stuff byte.
class BitWriter {
 public:
  explicit BitWriter(bool stuffing = true) : stuffing_(stuffing) {}

  /// Appends the low `count` bits of `bits` (0 <= count <= 32), MSB first.
  void put_bits(uint32_t bits, int count);

  /// Pads the current byte with 1-bits (JPEG end-of-scan convention).
  void flush();

  /// Appends a raw byte (must be byte-aligned; used for markers).
  void put_byte(uint8_t byte);
  void put_u16(uint16_t value);  ///< big-endian, byte-aligned

  bool aligned() const { return bit_count_ == 0; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  void emit(uint8_t byte);

  std::vector<uint8_t> bytes_;
  uint32_t bit_buffer_ = 0;
  int bit_count_ = 0;
  bool stuffing_;
};

/// Reads bits MSB-first, transparently removing 0xFF00 stuffing.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size, bool stuffing = true)
      : data_(data), size_(size), stuffing_(stuffing) {}

  /// Next `count` bits (0 <= count <= 25). Throws kIo past the end.
  uint32_t get_bits(int count);

  /// Single bit.
  int get_bit();

  /// True when fewer than `count` bits remain.
  bool exhausted() const { return pos_ >= size_ && bit_count_ == 0; }

 private:
  void refill();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint32_t bit_buffer_ = 0;
  int bit_count_ = 0;
  bool stuffing_;
};

}  // namespace p2g::media
