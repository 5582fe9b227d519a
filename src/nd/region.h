// Rectangular sub-regions of a multi-dimensional array.
//
// A Region is a half-open box: per dimension an interval [begin, end).
// Fetch and store statements resolve to regions; the dependency analyzer
// intersects store regions with fetch regions to find newly runnable kernel
// instances.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nd/extents.h"

namespace p2g::nd {

/// Half-open interval of indices along one dimension.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive

  int64_t length() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool contains(int64_t x) const { return x >= begin && x < end; }
  bool operator==(const Interval&) const = default;
};

/// Axis-aligned box of element coordinates.
class Region {
 public:
  Region() = default;
  explicit Region(std::vector<Interval> intervals);

  /// Region covering all of `extents`.
  static Region whole(const Extents& extents);

  /// Region containing exactly one coordinate.
  static Region point(const Coord& coord);

  size_t rank() const { return intervals_.size(); }
  const Interval& interval(size_t i) const;
  const std::vector<Interval>& intervals() const { return intervals_; }

  int64_t element_count() const;
  bool empty() const;

  bool contains(const Coord& coord) const;

  /// Box intersection; empty result has at least one empty interval.
  Region intersect(const Region& other) const;

  /// Smallest box covering both regions.
  Region bounding_union(const Region& other) const;

  /// Appends to `out` disjoint boxes covering exactly the coordinates of
  /// this region that are not in `other` (this region itself when they do
  /// not overlap; nothing when `other` covers it).
  void subtract(const Region& other, std::vector<Region>& out) const;

  /// True when this region fits inside `extents`.
  bool within(const Extents& extents) const;

  /// Minimal extents that can hold this region (per-dim `end`).
  Extents required_extents() const;

  /// Invokes `fn` for every coordinate in row-major order.
  void for_each(const std::function<void(const Coord&)>& fn) const;

  /// First coordinate (lowest in every dimension). Region must be non-empty.
  Coord first() const;

  /// When the region maps to one contiguous run of row-major flat indices
  /// within `extents`, returns {first flat offset, element count}. This is
  /// the case when every dimension after the first non-singleton one
  /// covers its full extent (whole fields, rows, 8x8 blocks stored as a
  /// trailing dimension, single elements).
  struct Span {
    int64_t offset;
    int64_t length;
  };
  std::optional<Span> contiguous_span(const Extents& extents) const;

  bool operator==(const Region&) const = default;

  std::string to_string() const;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace p2g::nd
