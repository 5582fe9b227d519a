#include "analysis/footprint.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace p2g::analysis {

std::string SymBound::to_string() const {
  switch (kind) {
    case Kind::kFinite:
      return std::to_string(value);
    case Kind::kExtent:
      return "|f" + std::to_string(field) + "." + std::to_string(dim) + "|";
    case Kind::kUnbounded:
      return "inf";
  }
  return "?";
}

DimFootprint DimFootprint::range(int64_t lo, SymBound hi, int64_t step) {
  P2G_CHECK_ARGUMENT(step >= 1,
                     "DimFootprint::range needs step >= 1 (use normalize for "
                     "raw triples)");
  DimFootprint f{lo, hi, step};
  if (f.is_empty()) return empty();
  if (f.hi.is_finite()) {
    // Canonical hi: one past the last *reachable* element, so equal sets
    // compare equal ([0,7):2 and [0,6):2 are both {0,2,4}).
    const int64_t last = lo + ((f.hi.value - 1 - lo) / step) * step;
    f.hi = SymBound::finite(last + 1);
    if (f.is_point()) f.step = 1;
  }
  return f;
}

DimFootprint normalize(int64_t start, int64_t stop, int64_t step) {
  P2G_CHECK_ARGUMENT(step != 0, "footprint stride must be non-zero");
  if (step > 0) {
    if (stop <= start) return DimFootprint::empty();
    return DimFootprint::range(start, SymBound::finite(stop), step);
  }
  // Downward walk start, start+step, ... > stop: same set ascending.
  if (stop >= start) return DimFootprint::empty();
  const int64_t n = (start - stop - 1) / (-step);  // index of the last hit
  const int64_t lo = start + n * step;
  return DimFootprint::range(lo, SymBound::finite(start + 1), -step);
}

std::string DimFootprint::to_string() const {
  if (is_empty()) return "{}";
  if (is_point()) return std::to_string(lo);
  std::string out = "[" + std::to_string(lo) + "," + hi.to_string() + ")";
  if (step > 1) out += ":" + std::to_string(step);
  return out;
}

bool may_overlap(const DimFootprint& a, const DimFootprint& b) {
  if (a.is_empty() || b.is_empty()) return false;
  // Range separation. A symbolic/unbounded hi can always reach the other
  // set's lo, so only a finite hi separates.
  if (a.hi.is_finite() && a.hi.value <= b.lo) return false;
  if (b.hi.is_finite() && b.hi.value <= a.lo) return false;
  // Residue separation: every common element must satisfy
  // x ≡ a.lo (mod a.step) and x ≡ b.lo (mod b.step), solvable iff
  // gcd(a.step, b.step) divides the offset difference.
  const int64_t g = std::gcd(a.step, b.step);
  if (g > 1 && (a.lo - b.lo) % g != 0) return false;
  return true;
}

bool contains(const DimFootprint& outer, const DimFootprint& inner) {
  if (inner.is_empty()) return true;
  if (outer.is_empty()) return false;
  // Lower bound.
  if (inner.lo < outer.lo) return false;
  // Stride: every element of inner must hit outer's lattice. inner's
  // elements are inner.lo + k*inner.step; they all lie on outer's lattice
  // iff inner.lo does and inner.step is a multiple of outer.step.
  if ((inner.lo - outer.lo) % outer.step != 0) return false;
  if (!inner.is_point() && inner.step % outer.step != 0) return false;
  // Upper bound.
  switch (outer.hi.kind) {
    case SymBound::Kind::kUnbounded:
      return true;
    case SymBound::Kind::kFinite:
      if (inner.hi.is_finite()) return inner.hi.value <= outer.hi.value;
      return false;  // symbolic/unbounded inner can exceed any constant
    case SymBound::Kind::kExtent:
      // Only the *same* symbol is provably <= (extents are opaque).
      return inner.hi == outer.hi && inner.lo >= 0;
  }
  return false;
}

bool Footprint::is_empty() const {
  if (whole) return false;
  return std::any_of(dims.begin(), dims.end(),
                     [](const DimFootprint& d) { return d.is_empty(); });
}

std::string Footprint::to_string() const {
  if (whole) return "whole";
  std::string out;
  for (const DimFootprint& d : dims) {
    out += "[" + d.to_string() + "]";
  }
  return out.empty() ? "[]" : out;
}

bool may_overlap(const Footprint& a, const Footprint& b) {
  if (a.field != b.field) return false;
  if (a.is_empty() || b.is_empty()) return false;
  if (a.whole || b.whole) return true;
  if (a.dims.size() != b.dims.size()) return true;  // stay conservative
  for (size_t d = 0; d < a.dims.size(); ++d) {
    if (!may_overlap(a.dims[d], b.dims[d])) return false;
  }
  return true;
}

bool contains(const Footprint& outer, const Footprint& inner) {
  if (outer.field != inner.field) return false;
  if (inner.is_empty()) return true;
  if (outer.whole) return true;
  if (inner.whole) return false;
  if (outer.dims.size() != inner.dims.size()) return false;
  for (size_t d = 0; d < outer.dims.size(); ++d) {
    if (!contains(outer.dims[d], inner.dims[d])) return false;
  }
  return true;
}

}  // namespace p2g::analysis
