#include "nd/region.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace p2g::nd {

Region::Region(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {}

Region Region::whole(const Extents& extents) {
  std::vector<Interval> out(extents.rank());
  for (size_t i = 0; i < extents.rank(); ++i) {
    out[i] = Interval{0, extents.dim(i)};
  }
  return Region(std::move(out));
}

Region Region::point(const Coord& coord) {
  std::vector<Interval> out(coord.size());
  for (size_t i = 0; i < coord.size(); ++i) {
    out[i] = Interval{coord[i], coord[i] + 1};
  }
  return Region(std::move(out));
}

const Interval& Region::interval(size_t i) const {
  P2G_CHECK_INTERNAL(i < intervals_.size(), "Region::interval out of range");
  return intervals_[i];
}

int64_t Region::element_count() const {
  int64_t count = 1;
  for (const Interval& iv : intervals_) {
    count *= std::max<int64_t>(0, iv.length());
  }
  return count;
}

bool Region::empty() const { return element_count() == 0; }

bool Region::contains(const Coord& coord) const {
  if (coord.size() != intervals_.size()) return false;
  for (size_t i = 0; i < coord.size(); ++i) {
    if (!intervals_[i].contains(coord[i])) return false;
  }
  return true;
}

Region Region::intersect(const Region& other) const {
  P2G_CHECK_ARGUMENT(rank() == other.rank(), "Region::intersect rank mismatch");
  std::vector<Interval> out(rank());
  for (size_t i = 0; i < rank(); ++i) {
    out[i] = Interval{std::max(intervals_[i].begin, other.intervals_[i].begin),
                      std::min(intervals_[i].end, other.intervals_[i].end)};
  }
  return Region(std::move(out));
}

Region Region::bounding_union(const Region& other) const {
  P2G_CHECK_ARGUMENT(rank() == other.rank(),
                     "Region::bounding_union rank mismatch");
  if (empty()) return other;
  if (other.empty()) return *this;
  std::vector<Interval> out(rank());
  for (size_t i = 0; i < rank(); ++i) {
    out[i] = Interval{std::min(intervals_[i].begin, other.intervals_[i].begin),
                      std::max(intervals_[i].end, other.intervals_[i].end)};
  }
  return Region(std::move(out));
}

void Region::subtract(const Region& other, std::vector<Region>& out) const {
  P2G_CHECK_ARGUMENT(rank() == other.rank(), "Region::subtract rank mismatch");
  if (empty()) return;
  if (intersect(other).empty()) {
    out.push_back(*this);
    return;
  }
  // Peel off the parts below and above `other` one dimension at a time;
  // what remains after the last dimension lies inside `other`.
  Region rest = *this;
  for (size_t i = 0; i < rank(); ++i) {
    Interval& r = rest.intervals_[i];
    const Interval& o = other.intervals_[i];
    if (r.begin < o.begin) {
      Region below = rest;
      below.intervals_[i].end = o.begin;
      out.push_back(std::move(below));
      r.begin = o.begin;
    }
    if (r.end > o.end) {
      Region above = rest;
      above.intervals_[i].begin = o.end;
      out.push_back(std::move(above));
      r.end = o.end;
    }
  }
}

bool Region::within(const Extents& extents) const {
  if (rank() != extents.rank()) return false;
  for (size_t i = 0; i < rank(); ++i) {
    if (intervals_[i].begin < 0 || intervals_[i].end > extents.dim(i)) {
      return false;
    }
  }
  return true;
}

Extents Region::required_extents() const {
  std::vector<int64_t> dims(rank());
  for (size_t i = 0; i < rank(); ++i) {
    dims[i] = std::max<int64_t>(0, intervals_[i].end);
  }
  return Extents(std::move(dims));
}

void Region::for_each(const std::function<void(const Coord&)>& fn) const {
  if (empty()) return;
  Coord coord(rank());
  for (size_t i = 0; i < rank(); ++i) coord[i] = intervals_[i].begin;
  while (true) {
    fn(coord);
    // Row-major increment: bump the last dimension, carry leftwards.
    size_t dim = rank();
    while (dim-- > 0) {
      if (++coord[dim] < intervals_[dim].end) break;
      coord[dim] = intervals_[dim].begin;
      if (dim == 0) return;
    }
    if (rank() == 0) return;  // rank-0 region has exactly one (empty) coord
  }
}

std::optional<Region::Span> Region::contiguous_span(
    const Extents& extents) const {
  if (!within(extents) || empty()) return std::nullopt;
  // Find the first dimension with more than one index; all later
  // dimensions must cover their full extent.
  size_t split = rank();
  for (size_t d = 0; d < rank(); ++d) {
    if (intervals_[d].length() > 1) {
      split = d;
      break;
    }
  }
  for (size_t d = split + 1; d < rank(); ++d) {
    if (intervals_[d].begin != 0 || intervals_[d].end != extents.dim(d)) {
      return std::nullopt;
    }
  }
  return Span{extents.flatten(first()), element_count()};
}

Coord Region::first() const {
  P2G_CHECK_INTERNAL(!empty(), "Region::first on empty region");
  Coord coord(rank());
  for (size_t i = 0; i < rank(); ++i) coord[i] = intervals_[i].begin;
  return coord;
}

std::string Region::to_string() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << intervals_[i].begin << "," << intervals_[i].end << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace p2g::nd
