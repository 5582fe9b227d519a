#include "nd/extents.h"

#include <sstream>

#include "common/error.h"

namespace p2g::nd {

Extents::Extents(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  for (int64_t d : dims_) {
    P2G_CHECK_ARGUMENT(d >= 0, "extent dimensions must be non-negative");
    count_ *= d;
  }
}

Extents::Extents(std::initializer_list<int64_t> dims)
    : Extents(std::vector<int64_t>(dims)) {}

int64_t Extents::dim(size_t i) const {
  P2G_CHECK_INTERNAL(i < dims_.size(), "Extents::dim index out of range");
  return dims_[i];
}

std::vector<int64_t> Extents::strides() const {
  std::vector<int64_t> out(dims_.size(), 1);
  for (size_t i = dims_.size(); i-- > 1;) {
    out[i - 1] = out[i] * dims_[i];
  }
  return out;
}

int64_t Extents::flatten(const Coord& coord) const {
  if (!contains(coord)) detail::throw_coord_out_of_range(coord, *this);
  int64_t offset = 0;
  int64_t stride = 1;
  for (size_t i = dims_.size(); i-- > 0;) {
    offset += coord[i] * stride;
    stride *= dims_[i];
  }
  return offset;
}

Coord Extents::unflatten(int64_t offset) const {
  P2G_CHECK_ARGUMENT(offset >= 0 && offset < element_count(),
                     "flat offset outside extents");
  Coord coord(dims_.size(), 0);
  for (size_t i = dims_.size(); i-- > 0;) {
    coord[i] = offset % dims_[i];
    offset /= dims_[i];
  }
  return coord;
}

bool Extents::contains(const Coord& coord) const {
  if (coord.size() != dims_.size()) return false;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (coord[i] < 0 || coord[i] >= dims_[i]) return false;
  }
  return true;
}

Extents Extents::max_with(const Extents& other) const {
  P2G_CHECK_ARGUMENT(rank() == other.rank(),
                     "Extents::max_with rank mismatch: " + to_string() +
                         " vs " + other.to_string());
  std::vector<int64_t> dims(rank());
  for (size_t i = 0; i < rank(); ++i) {
    dims[i] = std::max(dims_[i], other.dims_[i]);
  }
  return Extents(std::move(dims));
}

bool Extents::fits_in(const Extents& other) const {
  if (rank() != other.rank()) return false;
  for (size_t i = 0; i < rank(); ++i) {
    if (dims_[i] > other.dims_[i]) return false;
  }
  return true;
}

std::string Extents::to_string() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << "x";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

std::string to_string(const Coord& coord) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < coord.size(); ++i) {
    if (i > 0) os << ",";
    os << coord[i];
  }
  os << ")";
  return os.str();
}

namespace detail {

void throw_flat_out_of_range(int64_t flat, const Extents& extents) {
  throw_error(ErrorKind::kOutOfRange, "flat index " + std::to_string(flat) +
                                          " outside " + extents.to_string());
}

void throw_coord_out_of_range(const Coord& coord, const Extents& extents) {
  throw_error(ErrorKind::kOutOfRange, "coordinate " + nd::to_string(coord) +
                                          " outside extents " +
                                          extents.to_string());
}

}  // namespace detail

}  // namespace p2g::nd
