// Non-owning, read-only views of shaped element data.
//
// A ConstView is the zero-copy counterpart of AnyBuffer: element type,
// extents and per-dimension strides over memory owned by someone else. Field
// storage hands out views that alias sealed age buffers directly — safe
// because write-once semantics make a sealed allocation immutable — with a
// shared_ptr keepalive so the payload outlives release_age() as long as any
// view is held.
#pragma once

#include <memory>
#include <vector>

#include "common/error.h"
#include "nd/buffer.h"
#include "nd/extents.h"

namespace p2g::nd {

class ConstView {
 public:
  ConstView() = default;

  /// Dense row-major view over `base` (stride of the last dimension is 1).
  ConstView(ElementType type, Extents extents, const std::byte* base,
            std::shared_ptr<const void> keepalive);

  /// Strided view: `strides` are in elements of the underlying layout;
  /// `base` points at the view's (0, ..., 0) element.
  ConstView(ElementType type, Extents extents, std::vector<int64_t> strides,
            const std::byte* base, std::shared_ptr<const void> keepalive);

  ElementType type() const { return type_; }
  const Extents& extents() const { return extents_; }
  int64_t element_count() const { return extents_.element_count(); }
  const std::vector<int64_t>& strides() const { return strides_; }

  /// True when the elements form one dense row-major run from raw().
  bool is_contiguous() const { return contiguous_; }

  /// Base pointer of a contiguous view; throws kInternal on strided views
  /// (use materialize() or the element accessors there).
  const std::byte* raw() const {
    P2G_CHECK_INTERNAL(
        contiguous_, "ConstView::raw() on a strided view; materialize() first");
    return base_;
  }

  /// Typed pointer to a contiguous view; throws kTypeMismatch on wrong T.
  template <typename T>
  const T* data() const {
    check_type(element_type_of<T>());
    return reinterpret_cast<const T*>(raw());
  }

  /// Element at a coordinate (stride-aware).
  template <typename T>
  T at(const Coord& coord) const {
    check_type(element_type_of<T>());
    return reinterpret_cast<const T*>(base_)[coord_offset(coord)];
  }

  /// Element at a logical row-major position (stride-aware).
  template <typename T>
  T at_flat(int64_t flat) const {
    check_type(element_type_of<T>());
    check_flat(flat);
    const T* base = reinterpret_cast<const T*>(base_);
    return contiguous_ ? base[flat] : base[strided_offset(flat)];
  }

  /// Generic scalar accessors (used by the language interpreter and
  /// generated code); `flat` is the logical row-major position.
  double get_as_double(int64_t flat) const;
  int64_t get_as_int(int64_t flat) const;

  /// Packed copy of the viewed elements (row-major of the view's extents).
  AnyBuffer materialize() const;

  /// The `extents`-shaped view at this view's origin, with this view's
  /// strides and keepalive. rebase() then moves it across this view (the
  /// runtime's fetch slot of one instance inside a box's footprint).
  ConstView window(Extents extents) const;

  /// Address of the view's (0, ..., 0) element, strided views included.
  const std::byte* origin() const { return base_; }

  /// Moves the view's (0, ..., 0) element to `base`; shape and strides
  /// stay.
  void rebase(const std::byte* base) { base_ = base; }

  /// The ownership token keeping the underlying memory alive (may be null
  /// for views over caller-managed storage).
  const std::shared_ptr<const void>& keepalive() const { return keepalive_; }

 private:
  void check_type(ElementType expected) const {
    if (type_ != expected) [[unlikely]] {
      detail::throw_type_mismatch("view", type_, expected);
    }
  }
  int64_t check_flat(int64_t flat) const {
    if (!in_bounds(flat, extents_.element_count())) [[unlikely]] {
      detail::throw_flat_out_of_range(flat, extents_);
    }
    return flat;
  }
  /// Element offset (in the underlying layout) of an in-bounds coordinate;
  /// throws kOutOfRange for any other.
  int64_t coord_offset(const Coord& coord) const {
    const std::vector<int64_t>& dims = extents_.dims();
    if (coord.size() != dims.size()) [[unlikely]] {
      detail::throw_coord_out_of_range(coord, extents_);
    }
    int64_t offset = 0;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (!in_bounds(coord[i], dims[i])) [[unlikely]] {
        detail::throw_coord_out_of_range(coord, extents_);
      }
      offset += coord[i] * strides_[i];
    }
    return offset;
  }
  /// Element offset of logical row-major position `flat` in a strided
  /// view (no allocation).
  int64_t strided_offset(int64_t flat) const;
  /// Byte address of the element at logical row-major position `flat`.
  const std::byte* element_ptr(int64_t flat) const;

  ElementType type_ = ElementType::kInt32;
  Extents extents_;
  std::vector<int64_t> strides_;
  bool contiguous_ = true;
  const std::byte* base_ = nullptr;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace p2g::nd
