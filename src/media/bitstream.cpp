#include "media/bitstream.h"

namespace p2g::media {

void BitWriter::emit(uint8_t byte) {
  bytes_.push_back(byte);
  if (stuffing_ && byte == 0xFF) bytes_.push_back(0x00);
}

void BitWriter::put_bits(uint32_t bits, int count) {
  P2G_CHECK_ARGUMENT(count >= 0 && count <= 32, "put_bits count out of range");
  if (count < 32) bits &= (uint32_t{1} << count) - 1;
  // Feed bit by bit into the byte accumulator (simple and branch-light
  // enough; entropy coding dominates elsewhere).
  for (int i = count - 1; i >= 0; --i) {
    bit_buffer_ = (bit_buffer_ << 1) | ((bits >> i) & 1u);
    if (++bit_count_ == 8) {
      emit(static_cast<uint8_t>(bit_buffer_ & 0xFF));
      bit_buffer_ = 0;
      bit_count_ = 0;
    }
  }
}

void BitWriter::flush() {
  while (bit_count_ != 0) put_bits(1, 1);  // pad with 1-bits
}

void BitWriter::put_byte(uint8_t byte) {
  P2G_CHECK_INTERNAL(aligned(), "put_byte requires byte alignment");
  bytes_.push_back(byte);  // markers are never stuffed
}

void BitWriter::put_u16(uint16_t value) {
  put_byte(static_cast<uint8_t>(value >> 8));
  put_byte(static_cast<uint8_t>(value & 0xFF));
}

void BitReader::refill() {
  while (bit_count_ <= 24 && pos_ < size_) {
    uint8_t byte = data_[pos_++];
    if (stuffing_ && byte == 0xFF) {
      if (pos_ < size_ && data_[pos_] == 0x00) {
        ++pos_;  // skip stuff byte
      } else {
        // A real marker: treat as end of entropy-coded data by feeding
        // 1-padding (JPEG decoders do the same).
        --pos_;
        byte = 0xFF;
        bit_buffer_ = (bit_buffer_ << 8) | byte;
        bit_count_ += 8;
        return;
      }
    }
    bit_buffer_ = (bit_buffer_ << 8) | byte;
    bit_count_ += 8;
  }
}

uint32_t BitReader::get_bits(int count) {
  P2G_CHECK_ARGUMENT(count >= 0 && count <= 25, "get_bits count out of range");
  if (count == 0) return 0;
  refill();
  if (bit_count_ < count) {
    throw_error(ErrorKind::kIo, "bitstream exhausted");
  }
  const uint32_t value =
      (bit_buffer_ >> (bit_count_ - count)) & ((uint32_t{1} << count) - 1);
  bit_count_ -= count;
  bit_buffer_ &= (bit_count_ > 0) ? ((uint32_t{1} << bit_count_) - 1) : 0;
  return value;
}

int BitReader::get_bit() { return static_cast<int>(get_bits(1)); }

}  // namespace p2g::media
