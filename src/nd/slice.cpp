#include "nd/slice.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace p2g::nd {

std::vector<int> SliceSpec::vars() const {
  std::vector<int> out;
  for (const SliceDim& d : dims_) {
    if (d.kind == SliceDim::Kind::kVar &&
        std::find(out.begin(), out.end(), d.var) == out.end()) {
      out.push_back(d.var);
    }
  }
  return out;
}

std::optional<size_t> SliceSpec::dim_of_var(int var_id) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].kind == SliceDim::Kind::kVar && dims_[i].var == var_id) {
      return i;
    }
  }
  return std::nullopt;
}

bool SliceSpec::is_elementwise() const {
  if (whole_) return false;
  for (const SliceDim& d : dims_) {
    if (d.kind == SliceDim::Kind::kAll) return false;
  }
  return true;
}

Region SliceSpec::resolve(const Bindings& bindings,
                          const Extents& extents) const {
  if (whole_) return Region::whole(extents);
  P2G_CHECK_ARGUMENT(dims_.size() == extents.rank(),
                     "slice rank " + std::to_string(dims_.size()) +
                         " does not match field rank " +
                         std::to_string(extents.rank()));
  std::vector<Interval> out(dims_.size());
  for (size_t i = 0; i < dims_.size(); ++i) {
    switch (dims_[i].kind) {
      case SliceDim::Kind::kAll:
        out[i] = Interval{0, extents.dim(i)};
        break;
      case SliceDim::Kind::kConst:
        out[i] = Interval{dims_[i].value, dims_[i].value + 1};
        break;
      case SliceDim::Kind::kVar: {
        P2G_CHECK_INTERNAL(
            dims_[i].var >= 0 &&
                static_cast<size_t>(dims_[i].var) < bindings.size(),
            "slice variable id out of range");
        const int64_t v = bindings[static_cast<size_t>(dims_[i].var)];
        P2G_CHECK_INTERNAL(v != kUnbound, "unbound index variable in slice");
        out[i] = Interval{v, v + 1};
        break;
      }
    }
  }
  return Region(std::move(out));
}

std::optional<bool> SliceSpec::constrain(
    const Region& written, std::vector<Interval>& var_ranges) const {
  if (whole_) return true;  // whole-field slices constrain no variables
  if (written.rank() != dims_.size()) return std::nullopt;
  for (size_t i = 0; i < dims_.size(); ++i) {
    const Interval& w = written.interval(i);
    switch (dims_[i].kind) {
      case SliceDim::Kind::kAll:
        break;
      case SliceDim::Kind::kConst:
        if (!w.contains(dims_[i].value)) return std::nullopt;
        break;
      case SliceDim::Kind::kVar: {
        const auto var = static_cast<size_t>(dims_[i].var);
        P2G_CHECK_INTERNAL(var < var_ranges.size(),
                           "constrain: variable id out of range");
        Interval& r = var_ranges[var];
        r = Interval{std::max(r.begin, w.begin), std::min(r.end, w.end)};
        if (r.empty()) return std::nullopt;
        break;
      }
    }
  }
  return true;
}

std::string SliceSpec::to_string() const {
  if (whole_) return "[*all*]";
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << ",";
    switch (dims_[i].kind) {
      case SliceDim::Kind::kAll: os << ":"; break;
      case SliceDim::Kind::kConst: os << dims_[i].value; break;
      case SliceDim::Kind::kVar: os << "$" << dims_[i].var; break;
    }
  }
  os << "]";
  return os.str();
}

}  // namespace p2g::nd
