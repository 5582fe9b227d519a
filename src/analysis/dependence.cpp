#include "analysis/dependence.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/error.h"
#include "common/string_util.h"
#include "core/dependency.h"
#include "nd/buffer.h"

namespace p2g::analysis {
namespace {

constexpr Age kInfeasible = DependencyAnalyzer::kInfeasible;

// Concrete-age reasoning shared with lint.cpp (duplicated on purpose: both
// are implementation details of their passes, and the dozen lines beat a
// shared-internals header).
struct AgeSet {
  bool feasible = false;
  Age lo = 0;
  bool unbounded = false;
};

AgeSet age_set_of(const AgeExpr& age, Age kernel_first) {
  AgeSet s;
  if (age.kind == AgeExpr::Kind::kConst) {
    s.feasible = age.value >= 0;
    s.lo = age.value;
    return s;
  }
  if (kernel_first >= kInfeasible) return s;
  s.feasible = true;
  s.lo = std::max<Age>(kernel_first + age.value, 0);
  s.unbounded = true;
  return s;
}

bool age_sets_intersect(const AgeSet& a, const AgeSet& b) {
  if (!a.feasible || !b.feasible) return false;
  const Age lo = std::max(a.lo, b.lo);
  const Age hi_a = a.unbounded ? std::numeric_limits<Age>::max() : a.lo;
  const Age hi_b = b.unbounded ? std::numeric_limits<Age>::max() : b.lo;
  return lo <= std::min(hi_a, hi_b);
}

std::string age_to_string(const AgeExpr& age) {
  if (age.kind == AgeExpr::Kind::kConst) return std::to_string(age.value);
  if (age.value == 0) return "a";
  if (age.value > 0) return "a+" + std::to_string(age.value);
  return "a" + std::to_string(age.value);
}

std::string slice_to_string(const KernelDef& def, const nd::SliceSpec& slice) {
  if (slice.is_whole()) return "";
  std::string out;
  for (const nd::SliceDim& d : slice.dims()) {
    out += '[';
    switch (d.kind) {
      case nd::SliceDim::Kind::kAll:
        out += '*';
        break;
      case nd::SliceDim::Kind::kVar:
        out += def.index_vars[static_cast<size_t>(d.var)];
        break;
      case nd::SliceDim::Kind::kConst:
        out += std::to_string(d.value);
        break;
    }
    out += ']';
  }
  return out;
}

std::string access_to_string(const Program& program, const KernelDef& def,
                             bool is_fetch, size_t statement) {
  const FieldId field = is_fetch ? def.fetches[statement].field
                                 : def.stores[statement].field;
  const AgeExpr& age =
      is_fetch ? def.fetches[statement].age : def.stores[statement].age;
  const nd::SliceSpec& slice =
      is_fetch ? def.fetches[statement].slice : def.stores[statement].slice;
  return std::string(is_fetch ? "fetch " : "store ") +
         program.field(field).name + "(" + age_to_string(age) + ")" +
         slice_to_string(def, slice);
}

/// Symbolic footprint of a slice over its field: constants are points,
/// variable and all() dimensions cover [0, declared extent) when the field
/// declares one and [0, |field.dim|) otherwise.
Footprint footprint_of(const Program& program, FieldId field,
                       const nd::SliceSpec& slice) {
  if (slice.is_whole()) return Footprint::whole_field(field);
  Footprint fp;
  fp.field = field;
  const FieldDecl& fd = program.field(field);
  for (size_t d = 0; d < slice.rank(); ++d) {
    const nd::SliceDim& sd = slice.dims()[d];
    if (sd.kind == nd::SliceDim::Kind::kConst) {
      fp.dims.push_back(DimFootprint::point(sd.value));
      continue;
    }
    const int64_t declared = fd.declared_extent(d);
    fp.dims.push_back(declared >= 0
                          ? DimFootprint::range(0, SymBound::finite(declared))
                          : DimFootprint::full(field, d));
  }
  return fp;
}

AccessPattern classify(const KernelDef& def, bool is_fetch,
                       const FieldId field, const AgeExpr& age,
                       const nd::SliceSpec& slice, int64_t* stencil_radius) {
  if (slice.is_whole()) {
    if (!is_fetch) return AccessPattern::kBroadcast;
    return age.kind == AgeExpr::Kind::kRelative ? AccessPattern::kReduction
                                                : AccessPattern::kBroadcast;
  }
  if (slice.is_elementwise()) {
    if (is_fetch && age.kind == AgeExpr::Kind::kRelative) {
      // Temporal stencil: the kernel reads the same field elementwise at
      // several relative age offsets (e.g. smoothing over a, a-1, a-2).
      int64_t min_off = age.value, max_off = age.value;
      size_t offsets = 0;
      for (const FetchDecl& f : def.fetches) {
        if (f.field != field || f.age.kind != AgeExpr::Kind::kRelative ||
            !f.slice.is_elementwise() || f.slice.is_whole()) {
          continue;
        }
        min_off = std::min(min_off, f.age.value);
        max_off = std::max(max_off, f.age.value);
        ++offsets;
      }
      if (offsets > 1 && max_off > min_off) {
        *stencil_radius = max_off - min_off;
        return AccessPattern::kStencil;
      }
    }
    return AccessPattern::kPointwise;
  }
  // Mixed variable/constant dimensions with all() tails: a row/column/block
  // stream (one sub-slab per instance).
  bool has_addressed = false;
  for (const nd::SliceDim& d : slice.dims()) {
    if (d.kind != nd::SliceDim::Kind::kAll) has_addressed = true;
  }
  return has_addressed ? AccessPattern::kStream : AccessPattern::kReduction;
}

/// Per-dimension element distance between a store and a fetch slice:
/// "0" for aligned variable dims, a signed constant delta for constant
/// pairs, "*" when a dimension's relation is unknown. Empty when either
/// side addresses the whole field.
std::vector<std::string> elem_distances(const nd::SliceSpec& store,
                                        const nd::SliceSpec& fetch) {
  std::vector<std::string> out;
  if (store.is_whole() || fetch.is_whole() ||
      store.rank() != fetch.rank()) {
    return out;
  }
  for (size_t d = 0; d < store.rank(); ++d) {
    const nd::SliceDim& s = store.dims()[d];
    const nd::SliceDim& f = fetch.dims()[d];
    if (s.kind == nd::SliceDim::Kind::kConst &&
        f.kind == nd::SliceDim::Kind::kConst) {
      out.push_back(std::to_string(s.value - f.value));
    } else if (s.kind == nd::SliceDim::Kind::kVar &&
               f.kind == nd::SliceDim::Kind::kVar) {
      out.push_back("0");
    } else {
      out.push_back("*");
    }
  }
  return out;
}

std::vector<DependenceEdge> build_edges(const Program& program,
                                        const std::vector<Age>& first) {
  std::vector<DependenceEdge> edges;
  for (const FieldDecl& field : program.fields()) {
    for (const Program::Use& p : program.producers_of(field.id)) {
      const KernelDef& up = program.kernel(p.kernel);
      const StoreDecl& s = up.stores[p.statement];
      const AgeSet store_ages =
          age_set_of(s.age, first[static_cast<size_t>(p.kernel)]);
      const Footprint store_fp = footprint_of(program, field.id, s.slice);
      for (const Program::Use& c : program.consumers_of(field.id)) {
        const KernelDef& down = program.kernel(c.kernel);
        const FetchDecl& f = down.fetches[c.statement];
        const AgeSet fetch_ages =
            age_set_of(f.age, first[static_cast<size_t>(c.kernel)]);
        if (!age_sets_intersect(store_ages, fetch_ages)) continue;
        if (!may_overlap(store_fp,
                         footprint_of(program, field.id, f.slice))) {
          continue;
        }
        DependenceEdge e;
        e.field = field.id;
        e.field_name = field.name;
        e.producer = up.id;
        e.producer_name = up.name;
        e.store = p.statement;
        e.consumer = down.id;
        e.consumer_name = down.name;
        e.fetch = c.statement;
        if (s.age.kind == AgeExpr::Kind::kRelative &&
            f.age.kind == AgeExpr::Kind::kRelative) {
          e.age_distance = s.age.value - f.age.value;
        } else if (s.age.kind == AgeExpr::Kind::kConst &&
                   f.age.kind == AgeExpr::Kind::kConst) {
          e.age_distance = 0;  // intersecting constant ages are equal
        }
        e.elem_distance = elem_distances(s.slice, f.slice);
        const FusionVerdict v = fusion_verdict(program, up, down, field.id);
        e.fusible = v.legal;
        e.blocker = v.blocker;
        edges.push_back(std::move(e));
      }
    }
  }
  return edges;
}

// --- P2G-W010: fusion-legality report (kInfo) ------------------------------

void report_fusion_legality(const Program& program,
                            const std::vector<DependenceEdge>& edges,
                            LintReport& report) {
  std::set<std::pair<std::pair<KernelId, KernelId>, FieldId>> seen;
  for (const DependenceEdge& e : edges) {
    if (!seen.insert({{e.producer, e.consumer}, e.field}).second) continue;
    const KernelDef& up = program.kernel(e.producer);
    const KernelDef& down = program.kernel(e.consumer);
    const FusionVerdict v = fusion_verdict(program, up, down, e.field);
    Diagnostic d;
    d.code = kFusionLegality;
    d.severity = Severity::kInfo;
    d.primary = Anchor::fetch(down.name, e.fetch);
    d.secondary = Anchor::store(up.name, e.store);
    if (v.legal) {
      d.message = "fusing '" + down.name + "' into the pipeline after '" +
                  up.name + "' over field '" + e.field_name +
                  "' is legal (age delta " + std::to_string(v.age_delta) +
                  "; intermediate store " +
                  (v.elidable ? "elidable" : "not elidable: field has other "
                                            "consumers") +
                  ")";
    } else {
      d.message = "fusing '" + down.name + "' after '" + up.name +
                  "' over field '" + e.field_name + "' is not legal: " +
                  v.blocker;
    }
    report.diagnostics.push_back(std::move(d));
  }
}

// --- P2G-W011: per-age footprint bounds (kInfo) ----------------------------

std::vector<FieldBound> field_bounds(const Program& program) {
  std::vector<FieldBound> bounds;
  for (const FieldDecl& field : program.fields()) {
    const auto& producers = program.producers_of(field.id);
    if (producers.empty()) continue;
    FieldBound b;
    b.field = field.id;
    b.field_name = field.name;
    if (field.rank == 0) {
      b.elements = "1";
      b.bytes = static_cast<int64_t>(nd::element_size(field.type));
      bounds.push_back(std::move(b));
      continue;
    }
    int64_t product = 1;
    bool finite = true;
    std::string expr;
    for (size_t d = 0; d < field.rank; ++d) {
      // Union upper bound of the dimension across producers. The field's
      // own runtime extent |field.d| is by construction the supremum of
      // everything written, so any symbolic contribution collapses to it.
      int64_t max_finite = 0;
      bool dim_finite = true;
      for (const Program::Use& p : producers) {
        const KernelDef& def = program.kernel(p.kernel);
        const Footprint fp =
            footprint_of(program, field.id, def.stores[p.statement].slice);
        if (fp.whole) {
          const int64_t declared = field.declared_extent(d);
          if (declared >= 0) {
            max_finite = std::max(max_finite, declared);
          } else {
            dim_finite = false;
          }
          continue;
        }
        const SymBound& hi = fp.dims[d].hi;
        if (hi.is_finite()) {
          max_finite = std::max(max_finite, hi.value);
        } else {
          dim_finite = false;
        }
      }
      if (!expr.empty()) expr += "*";
      if (dim_finite) {
        expr += std::to_string(max_finite);
        product *= max_finite;
      } else {
        expr += "|" + field.name + "." + std::to_string(d) + "|";
        finite = false;
      }
    }
    b.elements = expr;
    if (finite) {
      b.bytes = product * static_cast<int64_t>(nd::element_size(field.type));
    }
    bounds.push_back(std::move(b));
  }
  return bounds;
}

void report_field_bounds(const std::vector<FieldBound>& bounds,
                         LintReport& report) {
  for (const FieldBound& b : bounds) {
    Diagnostic d;
    d.code = kFootprintBound;
    d.severity = Severity::kInfo;
    d.primary = Anchor::field(b.field_name);
    d.message = "per-age footprint of field '" + b.field_name +
                "' is at most " + b.elements + " element(s)";
    if (b.bytes.has_value()) {
      d.message += " = " + std::to_string(*b.bytes) + " bytes";
    }
    report.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

std::string_view to_string(AccessPattern pattern) {
  switch (pattern) {
    case AccessPattern::kPointwise: return "pointwise";
    case AccessPattern::kStencil: return "stencil";
    case AccessPattern::kStream: return "stream";
    case AccessPattern::kReduction: return "reduction";
    case AccessPattern::kBroadcast: return "broadcast";
    case AccessPattern::kOpaque: return "opaque";
  }
  return "opaque";
}

// --- P2G-W008 ---------------------------------------------------------------

void check_oob_slices(const Program& program, LintReport& report) {
  const auto check_slice = [&](const KernelDef& def, bool is_fetch,
                               size_t statement, FieldId field,
                               const nd::SliceSpec& slice) {
    if (slice.is_whole()) return;
    const FieldDecl& fd = program.field(field);
    for (size_t dim = 0; dim < slice.rank(); ++dim) {
      const nd::SliceDim& d = slice.dims()[dim];
      if (d.kind != nd::SliceDim::Kind::kConst || d.value < 0) continue;
      const int64_t declared = fd.declared_extent(dim);
      if (declared < 0 || d.value < declared) continue;
      Diagnostic diag;
      diag.code = kOutOfBoundsSlice;
      diag.severity = Severity::kError;
      diag.primary = is_fetch ? Anchor::fetch(def.name, statement)
                              : Anchor::store(def.name, statement);
      diag.secondary = Anchor::field(fd.name);
      diag.message = access_to_string(program, def, is_fetch, statement) +
                     (is_fetch ? " reads" : " writes") +
                     " constant index " + std::to_string(d.value) +
                     " in dimension " + std::to_string(dim) +
                     ", but field '" + fd.name + "' declares extent " +
                     std::to_string(declared);
      report.diagnostics.push_back(std::move(diag));
    }
  };
  for (const KernelDef& def : program.kernels()) {
    for (size_t i = 0; i < def.fetches.size(); ++i) {
      check_slice(def, true, i, def.fetches[i].field, def.fetches[i].slice);
    }
    for (size_t i = 0; i < def.stores.size(); ++i) {
      check_slice(def, false, i, def.stores[i].field, def.stores[i].slice);
    }
  }
}

// --- P2G-W009 ---------------------------------------------------------------

void check_dead_stores(const Program& program,
                       const std::vector<Age>& first_feasible,
                       LintReport& report) {
  for (const FieldDecl& field : program.fields()) {
    // Collect feasible consumers once; a field nobody (feasibly) fetches is
    // either a terminal output or root-caused as W002/W006.
    struct Reader {
      AgeSet ages;
      Footprint fp;
    };
    std::vector<Reader> readers;
    for (const Program::Use& c : program.consumers_of(field.id)) {
      if (first_feasible[static_cast<size_t>(c.kernel)] >= kInfeasible) {
        continue;
      }
      const FetchDecl& f = program.kernel(c.kernel).fetches[c.statement];
      const AgeSet ages = age_set_of(
          f.age, first_feasible[static_cast<size_t>(c.kernel)]);
      if (!ages.feasible) continue;
      readers.push_back(
          Reader{ages, footprint_of(program, field.id, f.slice)});
    }
    if (readers.empty()) continue;

    for (const Program::Use& p : program.producers_of(field.id)) {
      const KernelDef& def = program.kernel(p.kernel);
      if (first_feasible[static_cast<size_t>(p.kernel)] >= kInfeasible) {
        continue;
      }
      const StoreDecl& s = def.stores[p.statement];
      const AgeSet store_ages = age_set_of(
          s.age, first_feasible[static_cast<size_t>(p.kernel)]);
      if (!store_ages.feasible) continue;  // negative const age: W004
      const Footprint store_fp = footprint_of(program, field.id, s.slice);
      bool read = false;
      for (const Reader& r : readers) {
        if (age_sets_intersect(store_ages, r.ages) &&
            may_overlap(store_fp, r.fp)) {
          read = true;
          break;
        }
      }
      if (read) continue;
      Diagnostic d;
      d.code = kDeadStore;
      d.severity = Severity::kWarning;
      d.primary = Anchor::store(def.name, p.statement);
      d.secondary = Anchor::field(field.name);
      d.message = access_to_string(program, def, false, p.statement) +
                  " writes elements of field '" + field.name +
                  "' that no fetch ever reads (" +
                  std::to_string(readers.size()) +
                  " consumer(s) checked: ages never meet or slices are "
                  "disjoint); the store is dead";
      report.diagnostics.push_back(std::move(d));
    }
  }
}

// --- the pass ---------------------------------------------------------------

DependenceReport analyze_dependences(const Program& program) {
  DependenceReport report;
  const std::vector<Age> first =
      DependencyAnalyzer::first_feasible_ages(program);

  for (const KernelDef& def : program.kernels()) {
    const auto add = [&](bool is_fetch, size_t statement, FieldId field,
                         const AgeExpr& age, const nd::SliceSpec& slice) {
      AccessInfo a;
      a.kernel = def.id;
      a.kernel_name = def.name;
      a.is_fetch = is_fetch;
      a.statement = statement;
      a.field = field;
      a.field_name = program.field(field).name;
      a.pattern =
          classify(def, is_fetch, field, age, slice, &a.stencil_radius);
      a.footprint = footprint_of(program, field, slice);
      a.text = access_to_string(program, def, is_fetch, statement);
      report.accesses.push_back(std::move(a));
    };
    for (size_t i = 0; i < def.fetches.size(); ++i) {
      add(true, i, def.fetches[i].field, def.fetches[i].age,
          def.fetches[i].slice);
    }
    for (size_t i = 0; i < def.stores.size(); ++i) {
      add(false, i, def.stores[i].field, def.stores[i].age,
          def.stores[i].slice);
    }
  }

  report.edges = build_edges(program, first);
  report.bounds = field_bounds(program);
  report.diagnostics = lint(program);
  report_fusion_legality(program, report.edges, report.diagnostics);
  report_field_bounds(report.bounds, report.diagnostics);
  return report;
}

std::string DependenceReport::to_text() const {
  std::string out;
  out += "== accesses ==\n";
  for (const AccessInfo& a : accesses) {
    out += "  " + a.kernel_name + (a.is_fetch ? " fetch #" : " store #") +
           std::to_string(a.statement) + ": " + a.text +
           "  pattern=" + std::string(to_string(a.pattern));
    if (a.pattern == AccessPattern::kStencil) {
      out += " radius=" + std::to_string(a.stencil_radius);
    }
    out += "  footprint=" + a.footprint.to_string() + "\n";
  }
  out += "== dependence edges ==\n";
  for (const DependenceEdge& e : edges) {
    out += "  " + e.field_name + ": " + e.producer_name + " store #" +
           std::to_string(e.store) + " -> " + e.consumer_name +
           " fetch #" + std::to_string(e.fetch) + "  age-dist=";
    out += e.age_distance.has_value() ? std::to_string(*e.age_distance)
                                      : std::string("*");
    out += "  elem-dist=";
    if (e.elem_distance.empty()) {
      out += "(whole)";
    } else {
      for (const std::string& d : e.elem_distance) out += "[" + d + "]";
    }
    out += e.fusible ? "  fusible=yes"
                     : "  fusible=no (" + e.blocker + ")";
    out += "\n";
  }
  out += "== per-age footprint bounds ==\n";
  for (const FieldBound& b : bounds) {
    out += "  " + b.field_name + ": " + b.elements + " element(s)";
    if (b.bytes.has_value()) {
      out += " = " + std::to_string(*b.bytes) + " bytes";
    }
    out += "\n";
  }
  const std::string diag_text = diagnostics.to_text();
  if (!diag_text.empty()) {
    out += "== diagnostics ==\n" + diag_text;
  }
  return out;
}

std::string DependenceReport::to_json() const {
  std::ostringstream os;
  os << "{\"accesses\":[";
  for (size_t i = 0; i < accesses.size(); ++i) {
    const AccessInfo& a = accesses[i];
    if (i > 0) os << ",";
    os << "{\"kernel\":\"" << json_escape(a.kernel_name) << "\",\"kind\":\""
       << (a.is_fetch ? "fetch" : "store") << "\",\"statement\":"
       << a.statement << ",\"field\":\"" << json_escape(a.field_name)
       << "\",\"pattern\":\"" << to_string(a.pattern) << "\"";
    if (a.pattern == AccessPattern::kStencil) {
      os << ",\"radius\":" << a.stencil_radius;
    }
    os << ",\"footprint\":\"" << json_escape(a.footprint.to_string())
       << "\",\"text\":\"" << json_escape(a.text) << "\"}";
  }
  os << "],\"edges\":[";
  for (size_t i = 0; i < edges.size(); ++i) {
    const DependenceEdge& e = edges[i];
    if (i > 0) os << ",";
    os << "{\"field\":\"" << json_escape(e.field_name)
       << "\",\"producer\":\"" << json_escape(e.producer_name)
       << "\",\"store\":" << e.store << ",\"consumer\":\""
       << json_escape(e.consumer_name) << "\",\"fetch\":" << e.fetch;
    os << ",\"age_distance\":";
    if (e.age_distance.has_value()) {
      os << *e.age_distance;
    } else {
      os << "null";
    }
    os << ",\"elem_distance\":[";
    for (size_t d = 0; d < e.elem_distance.size(); ++d) {
      if (d > 0) os << ",";
      os << "\"" << json_escape(e.elem_distance[d]) << "\"";
    }
    os << "],\"fusible\":" << (e.fusible ? "true" : "false");
    if (!e.fusible) os << ",\"blocker\":\"" << json_escape(e.blocker) << "\"";
    os << "}";
  }
  os << "],\"bounds\":[";
  for (size_t i = 0; i < bounds.size(); ++i) {
    const FieldBound& b = bounds[i];
    if (i > 0) os << ",";
    os << "{\"field\":\"" << json_escape(b.field_name)
       << "\",\"elements\":\"" << json_escape(b.elements) << "\"";
    if (b.bytes.has_value()) os << ",\"bytes\":" << *b.bytes;
    os << "}";
  }
  os << "],\"diagnostics\":" << diagnostics.to_json() << "}";
  return os.str();
}

}  // namespace p2g::analysis
