// Symbolic dependence & footprint analysis over a compiled kernel graph
// (the p2gdep pass).
//
// For every fetch/store statement the pass builds a symbolic footprint
// (footprint.h) of the elements it may touch, classifies its access
// pattern, and derives producer -> consumer dependence edges with age
// distances and per-dimension element distances. Two consumers:
//
//  1. Lint diagnostics: P2G-W008 (slice out of declared bounds) and
//     P2G-W009 (dead store) are real findings wired into lint();
//     P2G-W010 (fusion legality) and P2G-W011 (per-age footprint bound)
//     are kInfo reports emitted only through this pass.
//  2. The p2gdep CLI (tools/p2gdep.cpp): text and JSON renderings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/footprint.h"
#include "core/program.h"

namespace p2g::analysis {

/// Access-pattern classification of one fetch/store statement, primarily by
/// slice shape:
///  - elementwise slices are kPointwise; an elementwise *fetch* of a field
///    the kernel also fetches elementwise at other relative age offsets
///    becomes kStencil (a temporal stencil; radius = max - min offset);
///  - slices mixing index variables with all() tails are kStream (row /
///    column / block streaming, e.g. frame(a)[by][bx][*]);
///  - whole-field fetches are kReduction at relative ages (each instance
///    consumes an entire age) and kBroadcast at constant ages (one fixed
///    datum shared by every age); whole-field stores are kBroadcast (one
///    statement produces the age's entire content).
enum class AccessPattern {
  kPointwise,
  kStencil,
  kStream,
  kReduction,
  kBroadcast,
  kOpaque,
};

std::string_view to_string(AccessPattern pattern);

/// One analyzed fetch/store statement.
struct AccessInfo {
  KernelId kernel = kInvalidKernel;
  std::string kernel_name;
  bool is_fetch = true;
  size_t statement = 0;  ///< index into the kernel's fetches/stores
  FieldId field = kInvalidField;
  std::string field_name;
  AccessPattern pattern = AccessPattern::kOpaque;
  int64_t stencil_radius = 0;  ///< kStencil only: max - min age offset
  Footprint footprint;
  std::string text;  ///< "fetch frame(a)[by][bx][*]"
};

/// One producer -> consumer dependence edge through a field. Edges exist
/// only where the statements' concrete-age sets can intersect and their
/// footprints may overlap.
struct DependenceEdge {
  FieldId field = kInvalidField;
  std::string field_name;
  KernelId producer = kInvalidKernel;
  std::string producer_name;
  size_t store = 0;
  KernelId consumer = kInvalidKernel;
  std::string consumer_name;
  size_t fetch = 0;
  /// store age offset - fetch age offset when both are relative (ages of
  /// slack the edge grants per aging turn); 0 for matching constant ages;
  /// nullopt when one side is constant and the other relative (the
  /// distance varies with the instance age).
  std::optional<int64_t> age_distance;
  /// Per-dimension element distance: "0" (aligned), a signed delta, or
  /// "*" (unknown). Empty when either side is a whole-field access.
  std::vector<std::string> elem_distance;
  /// fusion_verdict (core/program.h) for the (producer, consumer) kernel
  /// pair over this field — the check Runtime fusion rules use; `blocker`
  /// names the first violated requirement.
  bool fusible = false;
  std::string blocker;
};

/// Per-age memory footprint bound of one field (union of its producers'
/// store footprints at a single age).
struct FieldBound {
  FieldId field = kInvalidField;
  std::string field_name;
  /// Element-count expression, e.g. "8", "8*|frame.1|", "|coeffs.0|*64".
  std::string elements;
  /// Concrete byte bound when every factor is statically known.
  std::optional<int64_t> bytes;
};

/// Result of the dependence pass.
struct DependenceReport {
  std::vector<AccessInfo> accesses;
  std::vector<DependenceEdge> edges;
  std::vector<FieldBound> bounds;
  /// Full lint report (including W008/W009) plus the kInfo reports
  /// W010 (fusion legality, one per connected kernel pair and field) and
  /// W011 (one per bounded field).
  LintReport diagnostics;

  std::string to_text() const;
  std::string to_json() const;
};

/// Runs the full pass: footprints, patterns, edges, bounds, diagnostics.
DependenceReport analyze_dependences(const Program& program);

/// P2G-W008: constant slice indices outside a field's *declared* extents
/// (FieldDecl::declared_extents). Called from lint(); negative constants
/// are W004's finding and excluded here.
void check_oob_slices(const Program& program, LintReport& report);

/// P2G-W009: a feasible store no feasible fetch can ever read — the
/// concrete-age sets never intersect or the footprints are disjoint.
/// Fields without any feasible consumer are skipped (terminal outputs are
/// host-drained; infeasible consumers are root-caused as W002/W006).
void check_dead_stores(const Program& program,
                       const std::vector<Age>& first_feasible,
                       LintReport& report);

}  // namespace p2g::analysis
