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

FusionVerdict fusion_verdict(const Program& program, const KernelDef& up,
                             const KernelDef& down, FieldId field) {
  FusionVerdict v;
  if (up.id == down.id) {
    v.blocker = "a kernel cannot be fused into itself";
    return v;
  }
  if (down.serial || down.is_source() || down.is_run_once()) {
    v.blocker = "consumer is not a plain data-parallel kernel (serial, "
                "source or run-once)";
    return v;
  }
  if (down.fetches.size() != 1) {
    v.blocker = "consumer has " + std::to_string(down.fetches.size()) +
                " fetch statements (fusion requires exactly one)";
    return v;
  }
  const FetchDecl& df = down.fetches[0];
  if (df.field != field) {
    v.blocker = "consumer's only fetch reads field '" +
                program.field(df.field).name + "', not '" +
                program.field(field).name + "'";
    return v;
  }
  if (df.slice.is_whole()) {
    v.blocker = "consumer fetch is whole-field, not elementwise";
    return v;
  }
  if (!df.slice.is_elementwise()) {
    v.blocker = "consumer fetch has all() dimensions";
    return v;
  }
  if (df.age.kind != AgeExpr::Kind::kRelative) {
    v.blocker = "consumer fetch pins a constant age";
    return v;
  }
  for (size_t var = 0; var < down.index_vars.size(); ++var) {
    if (!df.slice.dim_of_var(static_cast<int>(var)).has_value()) {
      v.blocker = "consumer index variable '" + down.index_vars[var] +
                  "' is not covered by the fetch";
      return v;
    }
  }
  const StoreDecl* matched = nullptr;
  for (size_t s = 0; s < up.stores.size() && matched == nullptr; ++s) {
    const StoreDecl& d = up.stores[s];
    if (d.field != field || !d.slice.is_elementwise() ||
        d.age.kind != AgeExpr::Kind::kRelative ||
        d.slice.dims().size() != df.slice.dims().size()) {
      continue;
    }
    bool compatible = true;
    for (size_t i = 0; i < d.slice.dims().size() && compatible; ++i) {
      const nd::SliceDim& a = d.slice.dims()[i];
      const nd::SliceDim& b = df.slice.dims()[i];
      compatible = a.kind == b.kind && (a.kind != nd::SliceDim::Kind::kConst ||
                                        a.value == b.value);
    }
    if (compatible) {
      matched = &d;
      v.store = s;
    }
  }
  if (matched == nullptr) {
    v.blocker = "producer has no elementwise relative-age store matching "
                "the fetch slice";
    return v;
  }
  // Per-dimension variable correspondence: down's variable at dim i takes
  // the value of up's variable at dim i.
  v.coord_map.assign(down.index_vars.size(), 0);
  for (size_t i = 0; i < df.slice.dims().size(); ++i) {
    if (df.slice.dims()[i].kind == nd::SliceDim::Kind::kVar) {
      v.coord_map[static_cast<size_t>(df.slice.dims()[i].var)] =
          static_cast<size_t>(matched->slice.dims()[i].var);
    }
  }
  // The consumer instances a box of producer instances feeds must form a
  // box too: no two consumer variables may follow one producer variable
  // (a diagonal store such as [i][i]).
  for (size_t a = 0; a < v.coord_map.size(); ++a) {
    for (size_t b = a + 1; b < v.coord_map.size(); ++b) {
      if (v.coord_map[a] == v.coord_map[b]) {
        v.blocker = "consumer index variables '" + down.index_vars[a] +
                    "' and '" + down.index_vars[b] +
                    "' follow one producer variable";
        v.coord_map.clear();
        return v;
      }
    }
  }
  v.legal = true;
  v.age_delta = matched->age.value - df.age.value;
  const auto& consumers = program.consumers_of(field);
  v.elidable = consumers.size() == 1 && consumers[0].kernel == down.id;
  return v;
}


}  // namespace p2g
