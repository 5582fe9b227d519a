// Runtime helpers for C++ code generated by the p2gc compiler (codegen.h).
//
// Generated kernel bodies call these small wrappers instead of open-coding
// buffer arithmetic, keeping the emitted code readable. This header is the
// only interface the generated code needs beyond the public P2G API.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <vector>

#include "core/context.h"
#include "nd/buffer.h"

namespace p2g::langrt {

inline nd::AnyBuffer make_array(nd::ElementType type, int rank) {
  return nd::AnyBuffer(
      type, nd::Extents(std::vector<int64_t>(static_cast<size_t>(rank), 0)));
}

inline int64_t fetch_int(KernelContext& ctx, const char* slot) {
  return ctx.fetch_view(slot).get_as_int(0);
}

inline double fetch_float(KernelContext& ctx, const char* slot) {
  return ctx.fetch_view(slot).get_as_double(0);
}

/// Element write with implicit local resizing (paper §V-C).
inline void put(nd::AnyBuffer& arr, double value,
                std::initializer_list<int64_t> indices) {
  const std::vector<int64_t> idx(indices);
  P2G_CHECK_ARGUMENT(idx.size() == arr.extents().rank(),
                     "put: wrong number of indices");
  if (!arr.extents().contains(idx)) {
    std::vector<int64_t> dims(arr.extents().dims());
    for (size_t d = 0; d < dims.size(); ++d) {
      P2G_CHECK_ARGUMENT(idx[d] >= 0, "put: negative index");
      dims[d] = std::max(dims[d], idx[d] + 1);
    }
    arr.resize(nd::Extents(std::move(dims)));
  }
  const int64_t flat = arr.extents().flatten(idx);
  if (arr.type() == nd::ElementType::kFloat32 ||
      arr.type() == nd::ElementType::kFloat64) {
    arr.set_from_double(flat, value);
  } else {
    arr.set_from_int(flat, static_cast<int64_t>(value));
  }
}

inline int64_t get_i(const nd::AnyBuffer& arr,
                     std::initializer_list<int64_t> indices) {
  return arr.get_as_int(arr.extents().flatten(std::vector<int64_t>(indices)));
}

inline double get_d(const nd::AnyBuffer& arr,
                    std::initializer_list<int64_t> indices) {
  return arr.get_as_double(
      arr.extents().flatten(std::vector<int64_t>(indices)));
}

inline int64_t extent(const nd::AnyBuffer& arr, int64_t dim) {
  return arr.extents().dim(static_cast<size_t>(dim));
}

inline void store_scalar(KernelContext& ctx, const char* slot,
                         nd::ElementType type, double value) {
  nd::AnyBuffer payload(type, nd::Extents({1}));
  if (type == nd::ElementType::kFloat32 ||
      type == nd::ElementType::kFloat64) {
    payload.set_from_double(0, value);
  } else {
    payload.set_from_int(0, static_cast<int64_t>(value));
  }
  ctx.store_array(slot, std::move(payload));
}

inline void store_array(KernelContext& ctx, const char* slot,
                        nd::ElementType type, const nd::AnyBuffer& value) {
  if (value.type() == type) {
    ctx.store_array(slot, value);
    return;
  }
  nd::AnyBuffer converted(type, value.extents());
  for (int64_t i = 0; i < value.element_count(); ++i) {
    converted.set_from_double(i, value.get_as_double(i));
  }
  ctx.store_array(slot, std::move(converted));
}

inline void print_piece(std::ostream& os, const nd::AnyBuffer& arr) {
  os << "{";
  for (int64_t i = 0; i < arr.element_count(); ++i) {
    if (i > 0) os << ", ";
    if (arr.type() == nd::ElementType::kFloat32 ||
        arr.type() == nd::ElementType::kFloat64) {
      os << arr.get_as_double(i);
    } else {
      os << arr.get_as_int(i);
    }
  }
  os << "}";
}

template <typename T>
void print_piece(std::ostream& os, const T& value) {
  os << value;
}

template <typename... Args>
void print(const Args&... args) {
  (print_piece(std::cout, args), ...);
  std::cout << "\n";
}

inline int64_t expired(KernelContext& ctx, const char* timer, double ms) {
  return ctx.timers().expired(timer, std::chrono::milliseconds(
                                         static_cast<int64_t>(ms)))
             ? 1
             : 0;
}

}  // namespace p2g::langrt
