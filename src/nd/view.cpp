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
  // Dense when every dimension longer than one element has its row-major
  // stride (a dimension of length one is never stepped along).
  const std::vector<int64_t> dense = extents_.strides();
  contiguous_ = true;
  for (size_t i = 0; i < dense.size(); ++i) {
    if (extents_.dim(i) > 1 && strides_[i] != dense[i]) contiguous_ = false;
  }
  contiguous_ = contiguous_ || element_count() <= 1;
}

ConstView ConstView::window(Extents extents) const {
  return ConstView(type_, std::move(extents), strides_, base_, keepalive_);
}

int64_t ConstView::strided_offset(int64_t flat) const {
  const std::vector<int64_t>& dims = extents_.dims();
  int64_t offset = 0;
  for (size_t i = dims.size(); i-- > 0;) {
    offset += (flat % dims[i]) * strides_[i];
    flat /= dims[i];
  }
  return offset;
}

const std::byte* ConstView::element_ptr(int64_t flat) const {
  const int64_t offset = contiguous_ ? flat : strided_offset(flat);
  return base_ + static_cast<size_t>(offset) * element_size(type_);
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

}  // namespace p2g::nd
