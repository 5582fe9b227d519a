#include "nd/view.h"

#include <cstring>

#include "common/error.h"

namespace p2g::nd {

ConstView::ConstView(ElementType type, Extents extents, const std::byte* base,
                     std::shared_ptr<const void> keepalive)
    : type_(type),
      extents_(std::move(extents)),
      strides_(extents_.strides()),
      contiguous_(true),
      base_(base),
      keepalive_(std::move(keepalive)) {}

ConstView::ConstView(ElementType type, Extents extents,
                     std::vector<int64_t> strides, const std::byte* base,
                     std::shared_ptr<const void> keepalive)
    : type_(type),
      extents_(std::move(extents)),
      strides_(std::move(strides)),
      base_(base),
      keepalive_(std::move(keepalive)) {
  P2G_CHECK_ARGUMENT(strides_.size() == extents_.rank(),
                     "ConstView stride rank mismatch");
  contiguous_ = strides_ == extents_.strides() || element_count() <= 1;
}

const std::byte* ConstView::raw() const {
  P2G_CHECK_INTERNAL(contiguous_,
                     "ConstView::raw() on a strided view; materialize() first");
  return base_;
}

const std::byte* ConstView::element_ptr(int64_t flat) const {
  if (contiguous_) {
    return base_ + static_cast<size_t>(flat) * element_size(type_);
  }
  const Coord coord = extents_.unflatten(flat);
  int64_t off = 0;
  for (size_t i = 0; i < coord.size(); ++i) off += coord[i] * strides_[i];
  return base_ + static_cast<size_t>(off) * element_size(type_);
}

double ConstView::get_as_double(int64_t flat) const {
  return load_as_double(type_, element_ptr(check_flat(flat)));
}

int64_t ConstView::get_as_int(int64_t flat) const {
  return load_as_int(type_, element_ptr(check_flat(flat)));
}

AnyBuffer ConstView::materialize() const {
  AnyBuffer out(type_, extents_);
  const size_t esz = element_size(type_);
  if (element_count() == 0) return out;
  if (contiguous_) {
    std::memcpy(out.raw(), base_,
                static_cast<size_t>(element_count()) * esz);
    return out;
  }
  // Strided copy, one innermost row at a time when the last dimension is
  // unit-strided; element by element otherwise.
  const size_t rank = extents_.rank();
  const int64_t row_len = rank > 0 ? extents_.dim(rank - 1) : 1;
  const bool dense_rows = rank > 0 && strides_[rank - 1] == 1;
  const int64_t rows = element_count() / (row_len > 0 ? row_len : 1);
  std::byte* dst = out.raw();
  for (int64_t row = 0; row < rows; ++row) {
    const int64_t flat = row * row_len;
    if (dense_rows) {
      std::memcpy(dst + static_cast<size_t>(flat) * esz, element_ptr(flat),
                  static_cast<size_t>(row_len) * esz);
    } else {
      for (int64_t i = 0; i < row_len; ++i) {
        std::memcpy(dst + static_cast<size_t>(flat + i) * esz,
                    element_ptr(flat + i), esz);
      }
    }
  }
  return out;
}

void ConstView::require_type(ElementType expected) const {
  if (type_ != expected) {
    throw_error(ErrorKind::kTypeMismatch,
                "view holds " + std::string(to_string(type_)) +
                    " but was accessed as " +
                    std::string(to_string(expected)));
  }
}

int64_t ConstView::check_flat(int64_t flat) const {
  if (flat < 0 || flat >= element_count()) {
    throw_error(ErrorKind::kOutOfRange,
                "flat index " + std::to_string(flat) + " outside " +
                    extents_.to_string());
  }
  return flat;
}

}  // namespace p2g::nd
