#include "core/program.h"

#include <algorithm>
#include <set>

#include "common/error.h"

namespace p2g {

Slice& Slice::var(std::string name) {
  dims_.push_back(Dim{Dim::Kind::kVar, std::move(name), 0});
  return *this;
}

Slice& Slice::all() {
  dims_.push_back(Dim{Dim::Kind::kAll, {}, 0});
  return *this;
}

Slice& Slice::at(int64_t index) {
  dims_.push_back(Dim{Dim::Kind::kConst, {}, index});
  return *this;
}

KernelBuilder& KernelBuilder::index(std::string name) {
  index_vars_.push_back(std::move(name));
  return *this;
}

KernelBuilder& KernelBuilder::fetch(std::string slot, std::string field,
                                    AgeExpr age, Slice slice) {
  fetches_.push_back(
      FetchSpec{std::move(slot), std::move(field), age, std::move(slice)});
  return *this;
}

KernelBuilder& KernelBuilder::store(std::string slot, std::string field,
                                    AgeExpr age, Slice slice) {
  stores_.push_back(
      StoreSpec{std::move(slot), std::move(field), age, std::move(slice)});
  return *this;
}

KernelBuilder& KernelBuilder::body(KernelBody fn) {
  body_ = std::move(fn);
  return *this;
}

KernelBuilder& KernelBuilder::run_once() {
  has_age_ = false;
  return *this;
}

KernelBuilder& KernelBuilder::serial() {
  serial_ = true;
  return *this;
}

const FieldDecl& Program::field(FieldId id) const {
  P2G_CHECK_ARGUMENT(id >= 0 && static_cast<size_t>(id) < fields_.size(),
                     "unknown field id");
  return fields_[static_cast<size_t>(id)];
}

const KernelDef& Program::kernel(KernelId id) const {
  P2G_CHECK_ARGUMENT(id >= 0 && static_cast<size_t>(id) < kernels_.size(),
                     "unknown kernel id");
  return kernels_[static_cast<size_t>(id)];
}

FieldId Program::find_field(std::string_view name) const {
  for (const FieldDecl& f : fields_) {
    if (f.name == name) return f.id;
  }
  return kInvalidField;
}

KernelId Program::find_kernel(std::string_view name) const {
  for (const KernelDef& k : kernels_) {
    if (k.name == name) return k.id;
  }
  return kInvalidKernel;
}

const std::vector<Program::Use>& Program::consumers_of(FieldId field) const {
  P2G_CHECK_ARGUMENT(
      field >= 0 && static_cast<size_t>(field) < consumers_.size(),
      "unknown field id");
  return consumers_[static_cast<size_t>(field)];
}

const std::vector<Program::Use>& Program::producers_of(FieldId field) const {
  P2G_CHECK_ARGUMENT(
      field >= 0 && static_cast<size_t>(field) < producers_.size(),
      "unknown field id");
  return producers_[static_cast<size_t>(field)];
}

ProgramBuilder& ProgramBuilder::field(std::string name, nd::ElementType type,
                                      size_t rank) {
  return field(std::move(name), type, rank, {});
}

ProgramBuilder& ProgramBuilder::field(std::string name, nd::ElementType type,
                                      size_t rank,
                                      std::vector<int64_t> declared_extents) {
  for (const FieldDecl& f : fields_) {
    if (f.name == name) {
      throw_error(ErrorKind::kSema, "duplicate field name '" + name + "'");
    }
  }
  P2G_CHECK_ARGUMENT(
      declared_extents.empty() || declared_extents.size() == rank,
      "declared extents of field '" + name + "' must match its rank");
  FieldDecl decl;
  decl.id = static_cast<FieldId>(fields_.size());
  decl.name = std::move(name);
  decl.type = type;
  decl.rank = rank;
  decl.declared_extents = std::move(declared_extents);
  fields_.push_back(std::move(decl));
  return *this;
}

std::string_view to_string(IndependenceCertificate::Kind kind) {
  return kind == IndependenceCertificate::Kind::kPointwise ? "pointwise"
                                                           : "whole-cover";
}

KernelBuilder& ProgramBuilder::kernel(std::string name) {
  for (const auto& k : kernels_) {
    if (k->name_ == name) {
      throw_error(ErrorKind::kSema, "duplicate kernel name '" + name + "'");
    }
  }
  kernels_.push_back(std::make_unique<KernelBuilder>());
  kernels_.back()->name_ = std::move(name);
  return *kernels_.back();
}

namespace {

/// Resolves a builder-side Slice to a runtime SliceSpec, mapping variable
/// names to ids through `var_names`.
nd::SliceSpec resolve_slice(const Slice& slice,
                            const std::vector<std::string>& var_names,
                            const std::string& kernel_name,
                            const FieldDecl& field) {
  if (slice.is_whole()) return nd::SliceSpec::whole();
  if (slice.dims().size() != field.rank) {
    throw_error(ErrorKind::kSema,
                "kernel '" + kernel_name + "': slice rank " +
                    std::to_string(slice.dims().size()) +
                    " does not match rank " + std::to_string(field.rank) +
                    " of field '" + field.name + "'");
  }
  std::vector<nd::SliceDim> dims;
  dims.reserve(slice.dims().size());
  for (const Slice::Dim& d : slice.dims()) {
    switch (d.kind) {
      case Slice::Dim::Kind::kAll:
        dims.push_back(nd::SliceDim::all());
        break;
      case Slice::Dim::Kind::kConst:
        dims.push_back(nd::SliceDim::constant(d.value));
        break;
      case Slice::Dim::Kind::kVar: {
        const auto it =
            std::find(var_names.begin(), var_names.end(), d.var);
        if (it == var_names.end()) {
          throw_error(ErrorKind::kSema,
                      "kernel '" + kernel_name + "': slice references " +
                          "undeclared index variable '" + d.var + "'");
        }
        dims.push_back(nd::SliceDim::variable(
            static_cast<int>(it - var_names.begin())));
        break;
      }
    }
  }
  return nd::SliceSpec(std::move(dims));
}

}  // namespace

Program ProgramBuilder::build() {
  Program prog;
  prog.fields_ = fields_;
  prog.consumers_.resize(fields_.size());
  prog.producers_.resize(fields_.size());

  for (const auto& kb : kernels_) {
    KernelDef def;
    def.id = static_cast<KernelId>(prog.kernels_.size());
    def.name = kb->name_;
    def.index_vars = kb->index_vars_;
    def.has_age = kb->has_age_;
    def.serial = kb->serial_;
    def.body = kb->body_;

    if (!def.body) {
      throw_error(ErrorKind::kSema,
                  "kernel '" + def.name + "' has no body");
    }
    {
      std::set<std::string> seen(def.index_vars.begin(),
                                 def.index_vars.end());
      if (seen.size() != def.index_vars.size()) {
        throw_error(ErrorKind::kSema, "kernel '" + def.name +
                                          "' declares duplicate index "
                                          "variables");
      }
    }

    auto field_by_name = [&](const std::string& name) -> const FieldDecl& {
      const FieldId id = prog.find_field(name);
      if (id == kInvalidField) {
        throw_error(ErrorKind::kSema, "kernel '" + def.name +
                                          "' references unknown field '" +
                                          name + "'");
      }
      return prog.field(id);
    };

    for (const auto& f : kb->fetches_) {
      const FieldDecl& fd = field_by_name(f.field);
      FetchDecl decl;
      decl.name = f.slot;
      decl.field = fd.id;
      decl.age = f.age;
      decl.slice = resolve_slice(f.slice, def.index_vars, def.name, fd);
      def.fetches.push_back(std::move(decl));
    }
    for (const auto& s : kb->stores_) {
      const FieldDecl& fd = field_by_name(s.field);
      StoreDecl decl;
      decl.name = s.slot;
      decl.field = fd.id;
      decl.age = s.age;
      decl.slice = resolve_slice(s.slice, def.index_vars, def.name, fd);
      def.stores.push_back(std::move(decl));
    }

    // Slot names must be unique within each statement list.
    {
      std::set<std::string> slots;
      for (const auto& f : def.fetches) {
        if (!slots.insert(f.name).second) {
          throw_error(ErrorKind::kSema, "kernel '" + def.name +
                                            "' has duplicate fetch slot '" +
                                            f.name + "'");
        }
      }
      slots.clear();
      for (const auto& s : def.stores) {
        if (!slots.insert(s.name).second) {
          throw_error(ErrorKind::kSema, "kernel '" + def.name +
                                            "' has duplicate store slot '" +
                                            s.name + "'");
        }
      }
    }

    // Ageless (run-once) kernels: every statement must use constant ages,
    // and there is no index domain to derive, so no index variables.
    if (def.is_run_once()) {
      if (!def.index_vars.empty()) {
        throw_error(ErrorKind::kSema,
                    "run-once kernel '" + def.name +
                        "' cannot declare index variables");
      }
      for (const auto& f : def.fetches) {
        if (f.age.kind != AgeExpr::Kind::kConst) {
          throw_error(ErrorKind::kSema,
                      "run-once kernel '" + def.name +
                          "' must fetch constant ages");
        }
      }
      for (const auto& s : def.stores) {
        if (s.age.kind != AgeExpr::Kind::kConst) {
          throw_error(ErrorKind::kSema,
                      "run-once kernel '" + def.name +
                          "' must store constant ages");
        }
      }
    }

    // Source kernels (age, no fetches): index variables would be unbound,
    // and var-indexed stores would have no domain.
    if (def.is_source() && !def.index_vars.empty()) {
      throw_error(ErrorKind::kSema,
                  "source kernel '" + def.name +
                      "' cannot declare index variables (no fetch binds "
                      "them)");
    }

    // Every index variable must be bound by at least one fetch.
    for (size_t v = 0; v < def.index_vars.size(); ++v) {
      if (!def.binding_of_var(static_cast<int>(v))) {
        throw_error(ErrorKind::kSema,
                    "kernel '" + def.name + "': index variable '" +
                        def.index_vars[v] +
                        "' is not bound by any fetch statement");
      }
    }

    // Aged kernels with fetches need at least one relative-age fetch: the
    // analyzer derives candidate instance ages from relative fetches, and a
    // kernel fetching only constant ages would have an unbounded age
    // domain.
    if (def.has_age && !def.fetches.empty()) {
      const bool any_relative =
          std::any_of(def.fetches.begin(), def.fetches.end(),
                      [](const FetchDecl& f) {
                        return f.age.kind == AgeExpr::Kind::kRelative;
                      });
      if (!any_relative) {
        throw_error(ErrorKind::kSema,
                    "kernel '" + def.name +
                        "' has an age but fetches only constant ages; no "
                        "event can bound its age domain");
      }
    }

    // Aged kernels must store relative ages: a constant-age store would be
    // repeated every age, violating write-once.
    if (def.has_age) {
      for (const auto& s : def.stores) {
        if (s.age.kind != AgeExpr::Kind::kRelative) {
          throw_error(ErrorKind::kSema,
                      "aged kernel '" + def.name +
                          "' must store relative ages (a constant age "
                          "would be written once per age)");
        }
      }
    }

    // Serial kernels run one instance per age; index variables would make
    // "strictly increasing age order" ambiguous.
    if (def.serial && !def.index_vars.empty()) {
      throw_error(ErrorKind::kSema,
                  "serial kernel '" + def.name +
                      "' cannot declare index variables");
    }

    prog.kernels_.push_back(std::move(def));
  }

  // Derived use maps.
  for (const KernelDef& k : prog.kernels_) {
    for (size_t i = 0; i < k.fetches.size(); ++i) {
      prog.consumers_[static_cast<size_t>(k.fetches[i].field)].push_back(
          Program::Use{k.id, i});
    }
    for (size_t i = 0; i < k.stores.size(); ++i) {
      prog.producers_[static_cast<size_t>(k.stores[i].field)].push_back(
          Program::Use{k.id, i});
    }
  }

  return prog;
}

}  // namespace p2g
