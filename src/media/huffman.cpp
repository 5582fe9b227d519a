#include "media/huffman.h"

#include "common/error.h"
#include "media/quant.h"

namespace p2g::media {

HuffTable::HuffTable(const std::array<uint8_t, 16>& bits,
                     const std::vector<uint8_t>& values)
    : bits_(bits), values_(values) {
  length_of_.fill(-1);

  // Canonical code assignment (T.81 C.2): codes of each length are
  // consecutive, starting from (previous length's last code + 1) << 1.
  uint16_t code = 0;
  size_t k = 0;
  for (int len = 1; len <= 16; ++len) {
    min_code_[static_cast<size_t>(len)] = code;
    val_offset_[static_cast<size_t>(len)] =
        static_cast<int32_t>(k) - code;
    const int count = bits_[static_cast<size_t>(len - 1)];
    for (int i = 0; i < count; ++i) {
      P2G_CHECK_ARGUMENT(k < values_.size(),
                         "huffman BITS counts exceed HUFFVAL size");
      const uint8_t symbol = values_[k];
      code_of_[symbol] = code;
      length_of_[symbol] = static_cast<int8_t>(len);
      ++code;
      ++k;
    }
    max_code_[static_cast<size_t>(len)] =
        count > 0 ? code - 1 : -1;
    code = static_cast<uint16_t>(code << 1);
  }
  P2G_CHECK_ARGUMENT(k == values_.size(),
                     "huffman HUFFVAL has more symbols than BITS counts");
}

void HuffTable::encode(BitWriter& writer, uint8_t symbol) const {
  const int len = length_of_[symbol];
  P2G_CHECK_INTERNAL(len > 0, "symbol has no huffman code");
  writer.put_bits(code_of_[symbol], len);
}

uint8_t HuffTable::decode(BitReader& reader) const {
  int32_t code = reader.get_bit();
  for (int len = 1; len <= 16; ++len) {
    if (max_code_[static_cast<size_t>(len)] >= 0 &&
        code <= max_code_[static_cast<size_t>(len)]) {
      const int32_t index = code + val_offset_[static_cast<size_t>(len)];
      return values_[static_cast<size_t>(index)];
    }
    code = (code << 1) | reader.get_bit();
  }
  throw_error(ErrorKind::kIo, "invalid huffman code in stream");
}

std::vector<uint8_t> HuffTable::dht_payload() const {
  std::vector<uint8_t> out(bits_.begin(), bits_.end());
  out.insert(out.end(), values_.begin(), values_.end());
  return out;
}

namespace {

std::vector<uint8_t> iota_values(int count) {
  std::vector<uint8_t> v(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) v[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  return v;
}

}  // namespace

const HuffTable& std_dc_luma() {
  static const HuffTable table(
      {0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0}, iota_values(12));
  return table;
}

const HuffTable& std_dc_chroma() {
  static const HuffTable table(
      {0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0}, iota_values(12));
  return table;
}

const HuffTable& std_ac_luma() {
  static const HuffTable table(
      {0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d},
      {0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
       0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
       0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24,
       0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a,
       0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38,
       0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53,
       0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65, 0x66,
       0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
       0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93,
       0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
       0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7,
       0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
       0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1,
       0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2,
       0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
  return table;
}

const HuffTable& std_ac_chroma() {
  static const HuffTable table(
      {0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
      {0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
       0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
       0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15,
       0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17,
       0x18, 0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37,
       0x38, 0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a,
       0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65,
       0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
       0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a,
       0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
       0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5,
       0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
       0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9,
       0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2,
       0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa});
  return table;
}

int bit_category(int value) {
  int magnitude = value < 0 ? -value : value;
  int bits = 0;
  while (magnitude != 0) {
    magnitude >>= 1;
    ++bits;
  }
  return bits;
}

namespace {

/// JPEG amplitude encoding: negatives are stored as value - 1 in `size`
/// low bits (one's-complement style).
uint32_t amplitude_bits(int value, int size) {
  if (value < 0) value += (1 << size) - 1;
  return static_cast<uint32_t>(value);
}

int amplitude_decode(uint32_t bits, int size) {
  const int value = static_cast<int>(bits);
  // A leading 0 bit marks a negative amplitude.
  if (size > 0 && value < (1 << (size - 1))) {
    return value - (1 << size) + 1;
  }
  return value;
}

}  // namespace

void encode_block(const int16_t coeffs[kBlockSize], int& prev_dc,
                  const HuffTable& dc_table, const HuffTable& ac_table,
                  BitWriter& writer) {
  const auto& zz = zigzag_order();

  // DC: difference against the predictor.
  const int dc = coeffs[0];
  const int diff = dc - prev_dc;
  prev_dc = dc;
  const int dc_size = bit_category(diff);
  dc_table.encode(writer, static_cast<uint8_t>(dc_size));
  if (dc_size > 0) writer.put_bits(amplitude_bits(diff, dc_size), dc_size);

  // AC: zero-run coding over the zig-zag scan.
  int run = 0;
  for (int k = 1; k < kBlockSize; ++k) {
    const int value = coeffs[zz[static_cast<size_t>(k)]];
    if (value == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_table.encode(writer, 0xF0);  // ZRL: sixteen zeros
      run -= 16;
    }
    const int size = bit_category(value);
    ac_table.encode(writer,
                    static_cast<uint8_t>((run << 4) | size));
    writer.put_bits(amplitude_bits(value, size), size);
    run = 0;
  }
  if (run > 0) ac_table.encode(writer, 0x00);  // EOB
}

void decode_block(BitReader& reader, int& prev_dc, const HuffTable& dc_table,
                  const HuffTable& ac_table, int16_t coeffs[kBlockSize]) {
  const auto& zz = zigzag_order();
  for (int i = 0; i < kBlockSize; ++i) coeffs[i] = 0;

  const int dc_size = dc_table.decode(reader);
  int diff = 0;
  if (dc_size > 0) {
    diff = amplitude_decode(reader.get_bits(dc_size), dc_size);
  }
  prev_dc += diff;
  coeffs[0] = static_cast<int16_t>(prev_dc);

  int k = 1;
  while (k < kBlockSize) {
    const uint8_t symbol = ac_table.decode(reader);
    if (symbol == 0x00) break;  // EOB
    if (symbol == 0xF0) {       // ZRL
      k += 16;
      continue;
    }
    const int run = symbol >> 4;
    const int size = symbol & 0x0F;
    k += run;
    if (k >= kBlockSize) {
      throw_error(ErrorKind::kIo, "AC run overflows block");
    }
    const int value = amplitude_decode(reader.get_bits(size), size);
    coeffs[zz[static_cast<size_t>(k)]] = static_cast<int16_t>(value);
    ++k;
  }
}

}  // namespace p2g::media
