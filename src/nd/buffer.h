// Type-erased, shaped element storage for fields.
//
// Field payloads live in AnyBuffer: a contiguous row-major allocation with a
// runtime element type. Kernels obtain typed views; the kernel-language
// interpreter uses the generic scalar accessors.
//
// Storage normally lives in an owned heap vector, but a buffer can also be
// backed by external memory (ISSUE 10's shared-memory data plane):
//  - with_allocator(): bytes come from a caller-supplied bump allocator
//    (an mmap'd arena). Growing resizes allocate a fresh block and fall
//    back to owned heap storage when the allocator is exhausted.
//  - alias(): a read-only view over memory owned elsewhere (mapped pages
//    from a peer process), pinned by a keepalive. Any mutating access
//    first materializes the bytes into owned storage — writes never touch
//    the aliased pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "nd/extents.h"
#include "nd/region.h"

namespace p2g::nd {

/// Runtime element types supported by P2G fields.
enum class ElementType : uint8_t {
  kInt8,
  kUInt8,
  kInt16,
  kInt32,
  kInt64,
  kFloat32,
  kFloat64,
};

/// Size in bytes of one element.
size_t element_size(ElementType type);

/// Stable lowercase name ("int32", "float64", ...), as used by the kernel
/// language's field definitions.
std::string_view to_string(ElementType type);

/// Parses a kernel-language type name; throws kParse on unknown names.
ElementType parse_element_type(std::string_view name);

/// Reads one element at a raw location, converting to double/int64. These
/// are the type-erased scalar loads shared by AnyBuffer and ConstView.
double load_as_double(ElementType type, const std::byte* p);
int64_t load_as_int(ElementType type, const std::byte* p);

/// Process-wide count of payload allocations and copies made by AnyBuffer
/// (constructions, copies and growing resizes of non-empty buffers). Used
/// by tests asserting that the zero-copy fetch path really is zero-copy.
int64_t buffer_alloc_count();

namespace detail {
/// Cold kTypeMismatch path of the inline typed accessors (see
/// throw_flat_out_of_range); `holder` ("buffer", "view") starts the message.
[[noreturn]] [[gnu::cold]] void throw_type_mismatch(const char* holder,
                                                    ElementType held,
                                                    ElementType accessed);
}  // namespace detail

/// Maps C++ arithmetic types to ElementType at compile time.
template <typename T>
constexpr ElementType element_type_of();

template <> constexpr ElementType element_type_of<int8_t>() { return ElementType::kInt8; }
template <> constexpr ElementType element_type_of<uint8_t>() { return ElementType::kUInt8; }
template <> constexpr ElementType element_type_of<int16_t>() { return ElementType::kInt16; }
template <> constexpr ElementType element_type_of<int32_t>() { return ElementType::kInt32; }
template <> constexpr ElementType element_type_of<int64_t>() { return ElementType::kInt64; }
template <> constexpr ElementType element_type_of<float>() { return ElementType::kFloat32; }
template <> constexpr ElementType element_type_of<double>() { return ElementType::kFloat64; }

/// Shaped, type-erased, resizable element storage (row-major).
class AnyBuffer {
 public:
  /// External byte allocator (a shared-memory arena): returns a block of
  /// the requested size, or nullptr when exhausted (the buffer then falls
  /// back to owned heap storage).
  using Alloc = std::function<std::byte*(size_t)>;

  AnyBuffer() : type_(ElementType::kInt32) {}
  AnyBuffer(ElementType type, Extents extents);

  /// A buffer whose bytes come from `alloc` (writable external storage).
  /// Growing resizes allocate fresh blocks from the same allocator; old
  /// blocks are never returned (bump-arena semantics).
  static AnyBuffer with_allocator(ElementType type, Extents extents,
                                  Alloc alloc);

  /// A read-only alias over `base` (element_count * element_size bytes,
  /// densely packed row-major), pinned by `keepalive`. Mutating accessors
  /// copy-on-write into owned storage.
  static AnyBuffer alias(ElementType type, Extents extents,
                         const std::byte* base,
                         std::shared_ptr<const void> keepalive);

  // Copies count toward buffer_alloc_count() and always materialize into
  // owned storage; moves are free.
  AnyBuffer(const AnyBuffer& other);
  AnyBuffer& operator=(const AnyBuffer& other);
  AnyBuffer(AnyBuffer&&) noexcept = default;
  AnyBuffer& operator=(AnyBuffer&&) noexcept = default;

  ElementType type() const { return type_; }
  const Extents& extents() const { return extents_; }
  int64_t element_count() const { return extents_.element_count(); }

  /// True when the bytes live in external storage (arena block or alias).
  bool external() const { return ext_ != nullptr; }

  /// Grows the buffer to `new_extents`, relocating existing elements so each
  /// coordinate keeps its value (implicit-resize support). Dimensions may
  /// only grow.
  void resize(const Extents& new_extents);

  /// Raw storage (row-major). Size is element_count() * element_size(type()).
  /// The non-const form materializes an alias into owned storage first.
  std::byte* raw() { return mutable_base(); }
  const std::byte* raw() const { return base(); }

  /// Typed pointer to the full buffer; throws kTypeMismatch on wrong T.
  template <typename T>
  T* data() {
    check_type(element_type_of<T>());
    return reinterpret_cast<T*>(mutable_base());
  }
  template <typename T>
  const T* data() const {
    check_type(element_type_of<T>());
    return reinterpret_cast<const T*>(base());
  }

  template <typename T>
  T at(int64_t flat) const {
    return data<T>()[check_flat(flat)];
  }
  template <typename T>
  void set(int64_t flat, T value) {
    data<T>()[check_flat(flat)] = value;
  }

  /// Generic scalar accessors (used by the language interpreter).
  double get_as_double(int64_t flat) const;
  int64_t get_as_int(int64_t flat) const;
  void set_from_double(int64_t flat, double value);
  void set_from_int(int64_t flat, int64_t value);

  /// Copies a densely packed region payload into this buffer. `src` holds
  /// region.element_count() elements of this buffer's type in row-major
  /// order of the region. The region must lie within the current extents.
  void scatter(const Region& region, const std::byte* src);

  /// Extracts a region into a densely packed payload (inverse of scatter).
  void gather(const Region& region, std::byte* dst) const;

 private:
  void check_type(ElementType expected) const {
    if (type_ != expected) [[unlikely]] {
      detail::throw_type_mismatch("buffer", type_, expected);
    }
  }
  int64_t check_flat(int64_t flat) const {
    if (!in_bounds(flat, extents_.element_count())) [[unlikely]] {
      detail::throw_flat_out_of_range(flat, extents_);
    }
    return flat;
  }

  const std::byte* base() const { return ext_ != nullptr ? ext_ : bytes_.data(); }
  /// Writable base; copies an alias into owned storage first.
  std::byte* mutable_base() {
    if (ext_ != nullptr && !ext_writable_) [[unlikely]] materialize_owned();
    return ext_ != nullptr ? ext_ : bytes_.data();
  }
  /// Copies external bytes into the owned vector and drops the external
  /// reference (and its keepalive/allocator).
  void materialize_owned();

  ElementType type_;
  Extents extents_;
  std::vector<std::byte> bytes_;

  // External-storage state (empty for plain owned buffers).
  std::byte* ext_ = nullptr;  ///< external base; read-only unless writable
  bool ext_writable_ = false;
  std::shared_ptr<const void> keepalive_;  ///< pins an alias's pages
  Alloc alloc_;                            ///< arena allocator, if any
};

}  // namespace p2g::nd
