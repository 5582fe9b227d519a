#include "common/dynamic_bitset.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace p2g {

void DynamicBitset::resize(size_t new_size) {
  const size_t new_words = (new_size + kBitsPerWord - 1) / kBitsPerWord;
  if (new_size < size_) {
    // Clear bits beyond the new size before shrinking so count_ stays exact.
    for (size_t pos = new_size; pos < size_; ++pos) {
      if (test(pos)) {
        words_[pos / kBitsPerWord] &= ~(uint64_t{1} << (pos % kBitsPerWord));
        --count_;
      }
    }
  }
  words_.resize(new_words, 0);
  size_ = new_size;
}

bool DynamicBitset::test(size_t pos) const {
  P2G_CHECK_INTERNAL(pos < size_, "DynamicBitset::test out of range");
  return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1u;
}

bool DynamicBitset::set(size_t pos) {
  P2G_CHECK_INTERNAL(pos < size_, "DynamicBitset::set out of range");
  uint64_t& word = words_[pos / kBitsPerWord];
  const uint64_t mask = uint64_t{1} << (pos % kBitsPerWord);
  if (word & mask) return false;
  word |= mask;
  ++count_;
  return true;
}

size_t DynamicBitset::set_range(size_t begin, size_t end) {
  P2G_CHECK_INTERNAL(begin <= end && end <= size_,
                     "DynamicBitset::set_range out of range");
  size_t newly = 0;
  size_t pos = begin;
  // Ragged head, whole middle words, then the ragged tail.
  while (pos < end && pos % kBitsPerWord != 0) {
    newly += set(pos) ? 1 : 0;
    ++pos;
  }
  while (pos + kBitsPerWord <= end) {
    uint64_t& word = words_[pos / kBitsPerWord];
    const size_t fresh =
        kBitsPerWord - static_cast<size_t>(std::popcount(word));
    word = ~uint64_t{0};
    newly += fresh;
    count_ += fresh;
    pos += kBitsPerWord;
  }
  while (pos < end) {
    newly += set(pos) ? 1 : 0;
    ++pos;
  }
  return newly;
}

bool DynamicBitset::all_in_range(size_t begin, size_t end) const {
  P2G_CHECK_INTERNAL(begin <= end && end <= size_,
                     "DynamicBitset::all_in_range out of range");
  size_t pos = begin;
  while (pos < end && pos % kBitsPerWord != 0) {
    if (!test(pos)) return false;
    ++pos;
  }
  while (pos + kBitsPerWord <= end) {
    if (words_[pos / kBitsPerWord] != ~uint64_t{0}) return false;
    pos += kBitsPerWord;
  }
  while (pos < end) {
    if (!test(pos)) return false;
    ++pos;
  }
  return true;
}

size_t DynamicBitset::find_first_unset() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != ~uint64_t{0}) {
      const size_t bit = static_cast<size_t>(std::countr_one(words_[w]));
      const size_t pos = w * kBitsPerWord + bit;
      if (pos < size_) return pos;
    }
  }
  return size_;
}

size_t DynamicBitset::find_first_set(size_t begin, size_t end) const {
  P2G_CHECK_INTERNAL(begin <= end && end <= size_,
                     "DynamicBitset::find_first_set out of range");
  for (size_t pos = begin; pos < end;) {
    const uint64_t word = words_[pos / kBitsPerWord] >> (pos % kBitsPerWord);
    if (word != 0) {
      return std::min(end, pos + static_cast<size_t>(std::countr_zero(word)));
    }
    pos = (pos / kBitsPerWord + 1) * kBitsPerWord;
  }
  return end;
}

void DynamicBitset::clear() {
  words_.assign(words_.size(), 0);
  count_ = 0;
}

namespace {

/// Mask of the bits of word `w` that fall inside [begin, end).
uint64_t range_mask(size_t w, size_t begin, size_t end) {
  constexpr size_t kBits = 64;
  const size_t lo = w * kBits < begin ? begin - w * kBits : 0;
  const size_t hi = std::min(end - w * kBits, kBits);
  const uint64_t upper = hi == kBits ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return upper & ~((uint64_t{1} << lo) - 1);
}

}  // namespace

AtomicBitset::AtomicBitset(DynamicBitset&& bits)
    : words_(std::move(bits.words_)), size_(bits.size_) {
  bits.words_.clear();
  bits.size_ = 0;
  bits.count_ = 0;
}

size_t AtomicBitset::set_range(size_t begin, size_t end,
                               std::memory_order order) {
  P2G_CHECK_INTERNAL(begin <= end && end <= size_,
                     "AtomicBitset::set_range out of range");
  for (size_t w = begin / kBitsPerWord; w * kBitsPerWord < end; ++w) {
    const uint64_t mask = range_mask(w, begin, end);
    const uint64_t taken = word(w).fetch_or(mask, order) & mask;
    if (taken != 0) {
      return w * kBitsPerWord + static_cast<size_t>(std::countr_zero(taken));
    }
  }
  return end;
}

bool AtomicBitset::all_in_range(size_t begin, size_t end,
                                std::memory_order order) const {
  P2G_CHECK_INTERNAL(begin <= end && end <= size_,
                     "AtomicBitset::all_in_range out of range");
  for (size_t w = begin / kBitsPerWord; w * kBitsPerWord < end; ++w) {
    const uint64_t mask = range_mask(w, begin, end);
    if ((word(w).load(order) & mask) != mask) return false;
  }
  return true;
}

}  // namespace p2g
