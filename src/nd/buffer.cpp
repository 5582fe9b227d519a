#include "nd/buffer.h"

#include <atomic>
#include <cstring>
#include <string>

namespace p2g::nd {

namespace {
std::atomic<int64_t> g_payload_allocs{0};

void count_alloc(size_t bytes) {
  if (bytes > 0) g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

int64_t buffer_alloc_count() {
  return g_payload_allocs.load(std::memory_order_relaxed);
}

size_t element_size(ElementType type) {
  switch (type) {
    case ElementType::kInt8:
    case ElementType::kUInt8: return 1;
    case ElementType::kInt16: return 2;
    case ElementType::kInt32:
    case ElementType::kFloat32: return 4;
    case ElementType::kInt64:
    case ElementType::kFloat64: return 8;
  }
  return 0;
}

std::string_view to_string(ElementType type) {
  switch (type) {
    case ElementType::kInt8: return "int8";
    case ElementType::kUInt8: return "uint8";
    case ElementType::kInt16: return "int16";
    case ElementType::kInt32: return "int32";
    case ElementType::kInt64: return "int64";
    case ElementType::kFloat32: return "float32";
    case ElementType::kFloat64: return "float64";
  }
  return "?";
}

ElementType parse_element_type(std::string_view name) {
  if (name == "int8") return ElementType::kInt8;
  if (name == "uint8") return ElementType::kUInt8;
  if (name == "int16") return ElementType::kInt16;
  if (name == "int32") return ElementType::kInt32;
  if (name == "int64") return ElementType::kInt64;
  if (name == "float32" || name == "float") return ElementType::kFloat32;
  if (name == "float64" || name == "double") return ElementType::kFloat64;
  throw_error(ErrorKind::kParse,
              "unknown element type '" + std::string(name) + "'");
}

AnyBuffer::AnyBuffer(ElementType type, Extents extents)
    : type_(type), extents_(std::move(extents)) {
  bytes_.resize(static_cast<size_t>(extents_.element_count()) *
                element_size(type_));
  count_alloc(bytes_.size());
}

AnyBuffer AnyBuffer::with_allocator(ElementType type, Extents extents,
                                    Alloc alloc) {
  AnyBuffer buffer;
  buffer.type_ = type;
  buffer.extents_ = std::move(extents);
  buffer.alloc_ = std::move(alloc);
  const size_t nbytes =
      static_cast<size_t>(buffer.extents_.element_count()) *
      element_size(type);
  if (nbytes > 0 && buffer.alloc_) {
    if (std::byte* block = buffer.alloc_(nbytes)) {
      std::memset(block, 0, nbytes);
      buffer.ext_ = block;
      buffer.ext_writable_ = true;
      count_alloc(nbytes);
      return buffer;
    }
  }
  // Arena exhausted (or empty shape): plain owned storage.
  buffer.bytes_.resize(nbytes);
  count_alloc(nbytes);
  return buffer;
}

AnyBuffer AnyBuffer::alias(ElementType type, Extents extents,
                           const std::byte* base,
                           std::shared_ptr<const void> keepalive) {
  AnyBuffer buffer;
  buffer.type_ = type;
  buffer.extents_ = std::move(extents);
  // The alias is read-only: ext_writable_ stays false, and mutable_base()
  // copies on first write. The const_cast is never written through.
  buffer.ext_ = const_cast<std::byte*>(base);
  buffer.keepalive_ = std::move(keepalive);
  return buffer;
}

AnyBuffer::AnyBuffer(const AnyBuffer& other)
    : type_(other.type_), extents_(other.extents_) {
  const size_t nbytes = static_cast<size_t>(extents_.element_count()) *
                        element_size(type_);
  bytes_.assign(other.base(), other.base() + nbytes);
  count_alloc(nbytes);
}

AnyBuffer& AnyBuffer::operator=(const AnyBuffer& other) {
  if (this != &other) {
    type_ = other.type_;
    extents_ = other.extents_;
    const size_t nbytes = static_cast<size_t>(extents_.element_count()) *
                          element_size(type_);
    bytes_.assign(other.base(), other.base() + nbytes);
    ext_ = nullptr;
    ext_writable_ = false;
    keepalive_.reset();
    alloc_ = nullptr;
    count_alloc(nbytes);
  }
  return *this;
}

void AnyBuffer::materialize_owned() {
  const size_t nbytes = static_cast<size_t>(extents_.element_count()) *
                        element_size(type_);
  bytes_.assign(ext_, ext_ + nbytes);
  ext_ = nullptr;
  ext_writable_ = false;
  keepalive_.reset();
  count_alloc(nbytes);
}

void AnyBuffer::resize(const Extents& new_extents) {
  P2G_CHECK_ARGUMENT(new_extents.rank() == extents_.rank(),
                     "AnyBuffer::resize cannot change rank");
  P2G_CHECK_ARGUMENT(extents_.fits_in(new_extents),
                     "AnyBuffer::resize dimensions may only grow (" +
                         extents_.to_string() + " -> " +
                         new_extents.to_string() + ")");
  if (new_extents == extents_) return;

  const size_t esz = element_size(type_);
  const size_t new_bytes =
      static_cast<size_t>(new_extents.element_count()) * esz;

  // Destination storage: a fresh arena block when this buffer carries an
  // allocator that still has room, owned heap memory otherwise. Old arena
  // blocks are never reclaimed (bump semantics) — descriptors already
  // shipped to a peer keep reading stable bytes.
  std::vector<std::byte> fresh_vec;
  std::byte* dst = nullptr;
  bool dst_external = false;
  if (alloc_) {
    if (std::byte* block = alloc_(new_bytes)) {
      std::memset(block, 0, new_bytes);
      dst = block;
      dst_external = true;
    }
  }
  if (dst == nullptr) {
    fresh_vec.resize(new_bytes);
    dst = fresh_vec.data();
  }
  count_alloc(new_bytes);

  if (extents_.element_count() > 0) {
    // Copy row by row: iterate over all coordinates of the old extents with
    // the innermost dimension handled as one contiguous run.
    const std::byte* src = base();
    const size_t rank = extents_.rank();
    if (rank == 0) {
      std::memcpy(dst, src, esz);
    } else {
      const int64_t row_len = extents_.dim(rank - 1);
      const auto old_strides = extents_.strides();
      const auto new_strides = new_extents.strides();
      Coord coord(rank, 0);
      bool done = extents_.element_count() == 0;
      while (!done) {
        int64_t old_off = 0;
        int64_t new_off = 0;
        for (size_t i = 0; i < rank; ++i) {
          old_off += coord[i] * old_strides[i];
          new_off += coord[i] * new_strides[i];
        }
        std::memcpy(dst + static_cast<size_t>(new_off) * esz,
                    src + static_cast<size_t>(old_off) * esz,
                    static_cast<size_t>(row_len) * esz);
        // Advance all dimensions except the innermost (whole rows copied).
        if (rank == 1) break;
        size_t dim = rank - 1;
        while (dim-- > 0) {
          if (++coord[dim] < extents_.dim(dim)) break;
          coord[dim] = 0;
          if (dim == 0) {
            done = true;
            break;
          }
        }
      }
    }
  }
  if (dst_external) {
    ext_ = dst;
    ext_writable_ = true;
    bytes_.clear();
  } else {
    bytes_ = std::move(fresh_vec);
    ext_ = nullptr;
    ext_writable_ = false;
  }
  keepalive_.reset();
  extents_ = new_extents;
}

double load_as_double(ElementType type, const std::byte* p) {
  switch (type) {
    case ElementType::kInt8: return *reinterpret_cast<const int8_t*>(p);
    case ElementType::kUInt8: return *reinterpret_cast<const uint8_t*>(p);
    case ElementType::kInt16: return *reinterpret_cast<const int16_t*>(p);
    case ElementType::kInt32: return *reinterpret_cast<const int32_t*>(p);
    case ElementType::kInt64:
      return static_cast<double>(*reinterpret_cast<const int64_t*>(p));
    case ElementType::kFloat32: return *reinterpret_cast<const float*>(p);
    case ElementType::kFloat64: return *reinterpret_cast<const double*>(p);
  }
  return 0.0;
}

int64_t load_as_int(ElementType type, const std::byte* p) {
  switch (type) {
    case ElementType::kInt8: return *reinterpret_cast<const int8_t*>(p);
    case ElementType::kUInt8: return *reinterpret_cast<const uint8_t*>(p);
    case ElementType::kInt16: return *reinterpret_cast<const int16_t*>(p);
    case ElementType::kInt32: return *reinterpret_cast<const int32_t*>(p);
    case ElementType::kInt64: return *reinterpret_cast<const int64_t*>(p);
    case ElementType::kFloat32:
      return static_cast<int64_t>(*reinterpret_cast<const float*>(p));
    case ElementType::kFloat64:
      return static_cast<int64_t>(*reinterpret_cast<const double*>(p));
  }
  return 0;
}

double AnyBuffer::get_as_double(int64_t flat) const {
  const int64_t i = check_flat(flat);
  return load_as_double(type_,
                        base() + static_cast<size_t>(i) *
                                            element_size(type_));
}

int64_t AnyBuffer::get_as_int(int64_t flat) const {
  const int64_t i = check_flat(flat);
  return load_as_int(type_, base() + static_cast<size_t>(i) *
                                                element_size(type_));
}

void AnyBuffer::set_from_double(int64_t flat, double value) {
  const int64_t i = check_flat(flat);
  std::byte* const mb = mutable_base();
  switch (type_) {
    case ElementType::kInt8: reinterpret_cast<int8_t*>(mb)[i] = static_cast<int8_t>(value); break;
    case ElementType::kUInt8: reinterpret_cast<uint8_t*>(mb)[i] = static_cast<uint8_t>(value); break;
    case ElementType::kInt16: reinterpret_cast<int16_t*>(mb)[i] = static_cast<int16_t>(value); break;
    case ElementType::kInt32: reinterpret_cast<int32_t*>(mb)[i] = static_cast<int32_t>(value); break;
    case ElementType::kInt64: reinterpret_cast<int64_t*>(mb)[i] = static_cast<int64_t>(value); break;
    case ElementType::kFloat32: reinterpret_cast<float*>(mb)[i] = static_cast<float>(value); break;
    case ElementType::kFloat64: reinterpret_cast<double*>(mb)[i] = value; break;
  }
}

void AnyBuffer::set_from_int(int64_t flat, int64_t value) {
  const int64_t i = check_flat(flat);
  std::byte* const mb = mutable_base();
  switch (type_) {
    case ElementType::kInt8: reinterpret_cast<int8_t*>(mb)[i] = static_cast<int8_t>(value); break;
    case ElementType::kUInt8: reinterpret_cast<uint8_t*>(mb)[i] = static_cast<uint8_t>(value); break;
    case ElementType::kInt16: reinterpret_cast<int16_t*>(mb)[i] = static_cast<int16_t>(value); break;
    case ElementType::kInt32: reinterpret_cast<int32_t*>(mb)[i] = static_cast<int32_t>(value); break;
    case ElementType::kInt64: reinterpret_cast<int64_t*>(mb)[i] = value; break;
    case ElementType::kFloat32: reinterpret_cast<float*>(mb)[i] = static_cast<float>(value); break;
    case ElementType::kFloat64: reinterpret_cast<double*>(mb)[i] = static_cast<double>(value); break;
  }
}

void AnyBuffer::scatter(const Region& region, const std::byte* src) {
  P2G_CHECK_ARGUMENT(region.within(extents_),
                     "scatter region " + region.to_string() +
                         " outside extents " + extents_.to_string());
  const size_t esz = element_size(type_);
  std::byte* const mb = mutable_base();
  if (const auto span = region.contiguous_span(extents_)) {
    std::memcpy(mb + static_cast<size_t>(span->offset) * esz, src,
                static_cast<size_t>(span->length) * esz);
    return;
  }
  size_t src_index = 0;
  region.for_each([&](const Coord& coord) {
    const int64_t off = extents_.flatten(coord);
    std::memcpy(mb + static_cast<size_t>(off) * esz,
                src + src_index * esz, esz);
    ++src_index;
  });
}

void AnyBuffer::gather(const Region& region, std::byte* dst) const {
  P2G_CHECK_ARGUMENT(region.within(extents_),
                     "gather region " + region.to_string() +
                         " outside extents " + extents_.to_string());
  const size_t esz = element_size(type_);
  if (const auto span = region.contiguous_span(extents_)) {
    std::memcpy(dst, base() + static_cast<size_t>(span->offset) * esz,
                static_cast<size_t>(span->length) * esz);
    return;
  }
  size_t dst_index = 0;
  region.for_each([&](const Coord& coord) {
    const int64_t off = extents_.flatten(coord);
    std::memcpy(dst + dst_index * esz,
                base() + static_cast<size_t>(off) * esz, esz);
    ++dst_index;
  });
}

namespace detail {

void throw_type_mismatch(const char* holder, ElementType held,
                         ElementType accessed) {
  throw_error(ErrorKind::kTypeMismatch,
              std::string(holder) + " holds " + std::string(to_string(held)) +
                  " but was accessed as " + std::string(to_string(accessed)));
}

}  // namespace detail

}  // namespace p2g::nd
