// Bitmaps used by field storage to track which elements of an age have
// been written (write-once bookkeeping): a growable DynamicBitset for ages
// whose extents may still change, and an AtomicBitset for sealed ages
// whose bits are claimed and committed lock-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2g {

/// Growable bitset. All indices are element positions; the set keeps a
/// running count of set bits so completeness checks are O(1).
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size) { resize(size); }

  /// Number of addressable bits.
  size_t size() const { return size_; }

  /// Number of set bits.
  size_t count() const { return count_; }

  bool all() const { return count_ == size_; }
  bool none() const { return count_ == 0; }

  /// Grows (or shrinks) the bitset; new bits start cleared.
  void resize(size_t new_size);

  bool test(size_t pos) const;

  /// Sets a bit. Returns false if it was already set (write-once probe).
  bool set(size_t pos);

  /// Sets [begin, end). Returns the number of bits that were newly set.
  size_t set_range(size_t begin, size_t end);

  /// True when every bit in [begin, end) is set.
  bool all_in_range(size_t begin, size_t end) const;

  /// Index of the first cleared bit, or size() when all bits are set.
  size_t find_first_unset() const;

  void clear();

 private:
  friend class AtomicBitset;
  static constexpr size_t kBitsPerWord = 64;

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t count_ = 0;
};

/// Fixed-size bitmap with atomic word access. Built from a DynamicBitset
/// by taking over its words (no copy); every access then goes through
/// std::atomic_ref, so concurrent setters and readers need no lock.
class AtomicBitset {
 public:
  AtomicBitset() = default;
  /// Takes over `bits`' words; `bits` is left empty.
  explicit AtomicBitset(DynamicBitset&& bits);

  size_t size() const { return size_; }

  /// Sets [begin, end) with one fetch_or per word, in word order. Returns
  /// the first position that was already set — the remaining words are
  /// then left untouched — or `end` when every bit was newly set.
  size_t set_range(size_t begin, size_t end, std::memory_order order);

  /// True when every bit in [begin, end) is set.
  bool all_in_range(size_t begin, size_t end, std::memory_order order) const;

 private:
  static constexpr size_t kBitsPerWord = 64;
  static_assert(alignof(uint64_t) >=
                std::atomic_ref<uint64_t>::required_alignment);

  std::atomic_ref<uint64_t> word(size_t w) const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(words_[w]));
  }

  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace p2g
