// Program: the validated static description of a P2G workload, and the
// fluent builder used to construct one from C++ (the kernel-language front
// end in src/lang produces Programs through the same builder).
//
// Example (the paper's mul2 kernel):
//
//   ProgramBuilder pb;
//   pb.field("m_data", nd::ElementType::kInt32, 1);
//   pb.field("p_data", nd::ElementType::kInt32, 1);
//   pb.kernel("mul2")
//       .index("x")
//       .fetch("value", "m_data", AgeExpr::relative(0), Slice().var("x"))
//       .store("out", "p_data", AgeExpr::relative(0), Slice().var("x"))
//       .body([](KernelContext& ctx) {
//         ctx.store_scalar<int32_t>("out", ctx.fetch_scalar<int32_t>("value") * 2);
//       });
//   Program prog = pb.build();
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/field.h"
#include "core/kernel.h"

namespace p2g {

namespace analysis {
struct LintReport;
}

/// Builder-side slice: dimensions address index variables by *name*;
/// ProgramBuilder::build() resolves names to variable ids.
class Slice {
 public:
  struct Dim {
    enum class Kind { kAll, kVar, kConst };
    Kind kind = Kind::kAll;
    std::string var;
    int64_t value = 0;
  };

  /// Default-constructed slice addresses the whole field.
  Slice() = default;

  static Slice whole() { return Slice(); }

  /// Appends a dimension addressed by index variable `name`.
  Slice& var(std::string name);
  /// Appends a dimension covering the full extent.
  Slice& all();
  /// Appends a dimension fixed at a constant index.
  Slice& at(int64_t index);

  bool is_whole() const { return dims_.empty(); }
  const std::vector<Dim>& dims() const { return dims_; }

 private:
  std::vector<Dim> dims_;
};

class ProgramBuilder;

/// Accumulates one kernel definition; obtained from ProgramBuilder::kernel.
class KernelBuilder {
 public:
  /// Declares an index variable (the paper's `index x;`).
  KernelBuilder& index(std::string name);

  /// Adds a fetch statement: `fetch <slot> = field(age)[slice]`.
  KernelBuilder& fetch(std::string slot, std::string field, AgeExpr age,
                       Slice slice);

  /// Adds a store statement: `store field(age)[slice] = <slot>`.
  KernelBuilder& store(std::string slot, std::string field, AgeExpr age,
                       Slice slice);

  KernelBuilder& body(KernelBody fn);

  /// Marks the kernel as ageless: it runs exactly once (the paper's init).
  KernelBuilder& run_once();

  /// Serial kernels execute at most one instance at a time, in strictly
  /// increasing age order (e.g. writing frames to an output stream).
  KernelBuilder& serial();

 private:
  friend class ProgramBuilder;

  struct FetchSpec {
    std::string slot, field;
    AgeExpr age;
    Slice slice;
  };
  struct StoreSpec {
    std::string slot, field;
    AgeExpr age;
    Slice slice;
  };

  std::string name_;
  std::vector<std::string> index_vars_;
  std::vector<FetchSpec> fetches_;
  std::vector<StoreSpec> stores_;
  KernelBody body_;
  bool has_age_ = true;
  bool serial_ = false;
};

/// Validated, immutable workload description.
class Program {
 public:
  const std::vector<FieldDecl>& fields() const { return fields_; }
  const std::vector<KernelDef>& kernels() const { return kernels_; }

  const FieldDecl& field(FieldId id) const;
  const KernelDef& kernel(KernelId id) const;

  /// Id lookup by name; returns kInvalidField / kInvalidKernel when absent.
  FieldId find_field(std::string_view name) const;
  KernelId find_kernel(std::string_view name) const;

  /// Kernels fetching from a field, as (kernel, fetch index) pairs.
  struct Use {
    KernelId kernel;
    size_t statement;  ///< index into fetches/stores of the kernel
  };
  const std::vector<Use>& consumers_of(FieldId field) const;
  const std::vector<Use>& producers_of(FieldId field) const;

  /// Runs the p2g-lint static checks (src/analysis/lint.h) over this
  /// program: write-once conflicts, undefined fetches, non-unrollable
  /// cycles, unsatisfiable constant indices, unused fields/kernels. Throws
  /// ErrorKind::kSema when `throw_on_error` and an error-severity
  /// diagnostic was found; otherwise returns the full report. Defined in
  /// src/analysis/lint.cpp — callers must link p2g_analysis.
  analysis::LintReport validate(bool throw_on_error = true) const;

 private:
  friend class ProgramBuilder;

  std::vector<FieldDecl> fields_;
  std::vector<KernelDef> kernels_;
  std::vector<std::vector<Use>> consumers_;  // indexed by FieldId
  std::vector<std::vector<Use>> producers_;
};

/// Whether `down` may be fused into the pipeline after `up` over `field`
/// (the paper's "decrease task parallelism", Fig. 4, Age=3): `down` is a
/// plain data-parallel kernel whose only fetch reads `field` elementwise at
/// a relative age, every index variable covered, and `up` has an
/// elementwise relative-age store with a matching slice. The one legality
/// check: Runtime fusion rules and the W010 report both use it.
struct FusionVerdict {
  bool legal = false;
  std::string blocker;  ///< first violated requirement (when not legal)
  size_t store = 0;     ///< up's store statement feeding the fetch
  int64_t age_delta = 0;  ///< down's age = up's age + age_delta
  /// down's coord[v] = up's coord[coord_map[v]]
  std::vector<size_t> coord_map;
  /// down is the field's only consumer: the intermediate store can go.
  bool elidable = false;
};

FusionVerdict fusion_verdict(const Program& program, const KernelDef& up,
                             const KernelDef& down, FieldId field);

/// Builds and validates Programs.
class ProgramBuilder {
 public:
  /// Declares a field with element type and rank (number of dimensions).
  ProgramBuilder& field(std::string name, nd::ElementType type, size_t rank);

  /// Same, with declared per-dimension extents (-1 = implicit). Declared
  /// extents feed static analysis only; runtime extents are still
  /// discovered by stores.
  ProgramBuilder& field(std::string name, nd::ElementType type, size_t rank,
                        std::vector<int64_t> declared_extents);

  /// Starts a kernel definition; the returned builder stays valid until
  /// build() is called.
  KernelBuilder& kernel(std::string name);

  /// Validates everything and produces the Program. Throws
  /// ErrorKind::kSema on inconsistencies (unknown fields, unbound index
  /// variables, rank mismatches, ...).
  Program build();

 private:
  std::vector<FieldDecl> fields_;
  std::vector<std::unique_ptr<KernelBuilder>> kernels_;
};

}  // namespace p2g
