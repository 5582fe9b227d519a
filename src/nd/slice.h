// Slice specifications: how a fetch/store statement addresses a field.
//
// In the kernel language, `fetch value = m_data(a)[x]` fetches the slice
// `[x]` of field m_data at age `a`. A SliceSpec captures the `[...]` part:
// per dimension either an index variable, a constant, or "all". A whole-
// field access (`fetch m = m_data(a)`) is a whole slice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nd/extents.h"
#include "nd/region.h"

namespace p2g::nd {

/// Addressing of one dimension in a slice.
struct SliceDim {
  enum class Kind { kAll, kVar, kConst };

  Kind kind = Kind::kAll;
  int var = -1;       ///< index-variable id for kVar
  int64_t value = 0;  ///< constant index for kConst

  static SliceDim all() { return SliceDim{Kind::kAll, -1, 0}; }
  static SliceDim variable(int var_id) {
    return SliceDim{Kind::kVar, var_id, 0};
  }
  static SliceDim constant(int64_t v) {
    return SliceDim{Kind::kConst, -1, v};
  }

  bool operator==(const SliceDim&) const = default;
};

/// Variable bindings: var id -> bound index value (-1 = unbound).
using Bindings = std::vector<int64_t>;
constexpr int64_t kUnbound = -1;

/// The `[...]` part of a fetch/store statement.
///
/// A whole-slice (is_whole() == true) addresses the entire field regardless
/// of rank; otherwise the spec has exactly one SliceDim per field dimension.
class SliceSpec {
 public:
  /// Whole-field slice.
  SliceSpec() = default;

  explicit SliceSpec(std::vector<SliceDim> dims)
      : dims_(std::move(dims)), whole_(false) {}

  static SliceSpec whole() { return SliceSpec(); }

  bool is_whole() const { return whole_; }
  size_t rank() const { return dims_.size(); }
  const std::vector<SliceDim>& dims() const { return dims_; }

  /// All index-variable ids referenced by this slice (no duplicates).
  std::vector<int> vars() const;

  /// Dimension at which `var_id` appears first, or nullopt.
  std::optional<size_t> dim_of_var(int var_id) const;

  /// True when every dimension is a variable or constant (element slice).
  bool is_elementwise() const;

  /// Resolves to a concrete region given variable bindings and the field's
  /// extents (used for kAll dimensions). All kVar dims must be bound.
  Region resolve(const Bindings& bindings, const Extents& extents) const;

  /// The region a whole box of bindings addresses: per dimension the box's
  /// interval of its variable, the constant, or the whole extent. For a
  /// box of one coordinate this is resolve(); for a larger box it covers
  /// every instance's region (the smallest box that does when a variable
  /// addresses two dimensions).
  Region footprint(const Region& box, const Extents& extents) const;

  /// Given a region of the field that was just written, computes for each
  /// index variable the interval of values consistent with the write.
  /// Returns nullopt when the write cannot satisfy this slice at all (a
  /// constant dimension misses the region). Variables not used by this
  /// slice are left untouched in `var_ranges`.
  std::optional<bool> constrain(const Region& written,
                                std::vector<Interval>& var_ranges) const;

  std::string to_string() const;

  bool operator==(const SliceSpec&) const = default;

 private:
  std::vector<SliceDim> dims_;
  bool whole_ = true;
};

}  // namespace p2g::nd
