// Shapes and row-major index arithmetic for multi-dimensional fields.
//
// P2G fields are shaped, resizable arrays (the paper used blitz++; this is
// our replacement). An Extents describes the size of each dimension; Coord
// addresses one element.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace p2g::nd {

/// One element position, e.g. {row, col}. Rank equals the field's rank.
using Coord = std::vector<int64_t>;

/// Dimension sizes of a multi-dimensional array, row-major layout.
class Extents {
 public:
  Extents() = default;
  explicit Extents(std::vector<int64_t> dims);
  Extents(std::initializer_list<int64_t> dims);

  size_t rank() const { return dims_.size(); }
  int64_t dim(size_t i) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  /// Product of all dimensions (0 when any dimension is 0; 1 when rank 0),
  /// computed once at construction.
  int64_t element_count() const { return count_; }

  bool empty() const { return element_count() == 0; }

  /// Row-major strides in elements; stride(rank-1) == 1.
  std::vector<int64_t> strides() const;

  /// Row-major flat offset of a coordinate. Throws kOutOfRange if outside.
  int64_t flatten(const Coord& coord) const;

  /// Inverse of flatten().
  Coord unflatten(int64_t offset) const;

  /// True when `coord` has matching rank and each index is in [0, dim).
  bool contains(const Coord& coord) const;

  /// Elementwise maximum (grows to cover both); ranks must match.
  Extents max_with(const Extents& other) const;

  /// True when every dimension of this fits inside `other`.
  bool fits_in(const Extents& other) const;

  bool operator==(const Extents& other) const = default;

  std::string to_string() const;

 private:
  std::vector<int64_t> dims_;
  int64_t count_ = 1;  ///< product of dims_
};

std::string to_string(const Coord& coord);

/// True when 0 <= index < count (one unsigned compare).
inline bool in_bounds(int64_t index, int64_t count) {
  return static_cast<uint64_t>(index) < static_cast<uint64_t>(count);
}

namespace detail {
// Cold kOutOfRange paths of the inline element accessors, out of line so
// that a passing check costs one compare and no call.
[[noreturn]] [[gnu::cold]] void throw_flat_out_of_range(
    int64_t flat, const Extents& extents);
[[noreturn]] [[gnu::cold]] void throw_coord_out_of_range(
    const Coord& coord, const Extents& extents);
}  // namespace detail

}  // namespace p2g::nd
