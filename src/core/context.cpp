#include "core/context.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace p2g {

KernelContext::KernelContext(const KernelDef& def, Age age,
                             const nd::Region& box, TimerSet* timers)
    : def_(&def),
      age_(age),
      indices_(box.first()),
      timers_(timers),
      fetches_(def.fetches.size()),
      box_(box),
      box_strides_(box.rank()),
      stages_(def.stores.size()) {
  int64_t stride = 1;
  for (size_t v = box.rank(); v-- > 0;) {
    box_strides_[v] = stride;
    stride *= box.interval(v).length();
  }
}

int64_t KernelContext::index(size_t var) const {
  P2G_CHECK_ARGUMENT(var < indices_.size(), "index variable position out of "
                                            "range");
  return indices_[var];
}

int64_t KernelContext::index(std::string_view name) const {
  const auto it = std::find(def_->index_vars.begin(), def_->index_vars.end(),
                            name);
  P2G_CHECK_ARGUMENT(it != def_->index_vars.end(),
                     "unknown index variable '" + std::string(name) + "'");
  return indices_[static_cast<size_t>(it - def_->index_vars.begin())];
}

const KernelContext::FetchSlot& KernelContext::slot_for(
    std::string_view slot) const {
  const int i = def_->fetch_slot(slot);
  P2G_CHECK_ARGUMENT(i >= 0, "kernel '" + def_->name + "' has no fetch slot '" +
                                 std::string(slot) + "'");
  const FetchSlot& fs = fetches_[static_cast<size_t>(i)];
  P2G_CHECK_INTERNAL(fs.prepared,
                     "fetch slot '" + std::string(slot) + "' was not prepared");
  return fs;
}

const nd::ConstView& KernelContext::fetch_view(std::string_view slot) const {
  return slot_for(slot).view;
}

const nd::AnyBuffer& KernelContext::fetch_array(std::string_view slot) const {
  const FetchSlot& fs = slot_for(slot);
  if (fs.owned.has_value()) return *fs.owned;
  if (!fs.packed.has_value()) fs.packed = fs.view.materialize();
  return *fs.packed;
}

size_t KernelContext::store_decl(std::string_view slot) const {
  const int i = def_->store_slot(slot);
  P2G_CHECK_ARGUMENT(i >= 0, "kernel '" + def_->name + "' has no store slot '" +
                                 std::string(slot) + "'");
  return static_cast<size_t>(i);
}

void KernelContext::check_first_store(size_t decl) const {
  bool again = !stages_[decl].stored.empty() &&
               stages_[decl].stored[static_cast<size_t>(ordinal_)] != 0;
  for (const PendingStore& p : stores_) again = again || p.decl == decl;
  if (again) {
    throw_error(ErrorKind::kWriteOnceViolation,
                "kernel '" + def_->name + "' stored slot '" +
                    def_->stores[decl].name + "' twice in one instance");
  }
}

std::byte* KernelContext::stage(size_t decl, nd::ElementType type,
                                const nd::Extents* extents) {
  check_first_store(decl);
  if (def_->stores[decl].slice.is_whole()) return nullptr;
  static const nd::Extents kOneElement({1});
  const nd::Extents& shape = extents != nullptr ? *extents : kOneElement;
  Staged& st = stages_[decl];
  if (!st.typed) {
    const auto instances = static_cast<size_t>(box_.element_count());
    st.typed = true;
    st.type = type;
    st.extents = shape;
    st.bytes = static_cast<size_t>(shape.element_count()) *
               nd::element_size(type);
    st.image.resize(instances * st.bytes);
    st.stored.assign(instances, 0);
  } else if (st.type != type || !(st.extents == shape)) {
    return nullptr;  // committed on its own, after the body
  }
  st.stored[static_cast<size_t>(ordinal_)] = 1;
  ++st.count;
  return st.image.data() + static_cast<size_t>(ordinal_) * st.bytes;
}

void KernelContext::store_array(std::string_view slot, nd::AnyBuffer data) {
  const size_t decl = store_decl(slot);
  if (std::byte* dst = stage(decl, data.type(), &data.extents())) {
    std::memcpy(dst, std::as_const(data).raw(),
                static_cast<size_t>(data.element_count()) *
                    nd::element_size(data.type()));
    return;
  }
  stores_.push_back(PendingStore{decl, std::move(data)});
}

TimerSet& KernelContext::timers() const {
  P2G_CHECK_INTERNAL(timers_ != nullptr, "no timer set attached to context");
  return *timers_;
}

void KernelContext::set_fetch(size_t slot, nd::AnyBuffer data) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  FetchSlot& fs = fetches_[slot];
  fs.owned = std::move(data);
  // The view aliases the owned buffer, which lives exactly as long as the
  // context; no keepalive needed.
  fs.view = nd::ConstView(fs.owned->type(), fs.owned->extents(),
                          fs.owned->raw(), nullptr);
  fs.packed.reset();
  fs.step.clear();
  fs.prepared = true;
}

void KernelContext::set_fetch(size_t slot, nd::ConstView view) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  FetchSlot& fs = fetches_[slot];
  fs.view = std::move(view);
  fs.owned.reset();
  fs.packed.reset();
  fs.step.clear();
  fs.prepared = true;
}

void KernelContext::set_fetch(size_t slot, nd::ElementType type,
                              const nd::Extents& extents,
                              const std::byte* base) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  FetchSlot& fs = fetches_[slot];
  if (fs.prepared && !fs.owned && fs.view.type() == type &&
      fs.view.is_contiguous() && fs.view.extents() == extents) {
    fs.view.rebase(base);
    fs.packed.reset();
    return;
  }
  set_fetch(slot, nd::ConstView(type, extents, base, nullptr));
}

void KernelContext::set_fetch_window(size_t slot, nd::ConstView footprint,
                                     nd::Extents extents) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  FetchSlot& fs = fetches_[slot];
  fs.footprint = std::move(footprint);
  fs.view = fs.footprint.window(std::move(extents));
  fs.owned.reset();
  fs.packed.reset();
  // One step along variable v moves every footprint dimension v
  // addresses by one element.
  const auto esz = static_cast<int64_t>(nd::element_size(fs.footprint.type()));
  fs.step.assign(indices_.size(), 0);
  const auto& dims = def_->fetches[slot].slice.dims();
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i].kind == nd::SliceDim::Kind::kVar) {
      fs.step[static_cast<size_t>(dims[i].var)] +=
          fs.footprint.strides()[i] * esz;
    }
  }
  fs.prepared = true;
  enter(indices_);
}

void KernelContext::set_fetch_window(size_t slot, nd::AnyBuffer footprint,
                                     nd::Extents extents) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  auto copy = std::make_shared<const nd::AnyBuffer>(std::move(footprint));
  nd::ConstView view(copy->type(), copy->extents(), copy->raw(), copy);
  set_fetch_window(slot, std::move(view), std::move(extents));
}

void KernelContext::enter(const nd::Coord& indices) {
  int64_t ordinal = 0;
  for (size_t v = 0; v < indices_.size(); ++v) {
    indices_[v] = indices[v];
    ordinal += (indices[v] - box_.interval(v).begin) * box_strides_[v];
  }
  ordinal_ = ordinal;
  for (FetchSlot& fs : fetches_) {
    if (fs.step.empty()) continue;
    const std::byte* base = fs.footprint.origin();
    for (size_t v = 0; v < fs.step.size(); ++v) {
      base += (indices_[v] - box_.interval(v).begin) * fs.step[v];
    }
    fs.view.rebase(base);
    fs.packed.reset();
  }
  stores_.clear();
}

const KernelContext::PendingStore* KernelContext::pending_store(
    size_t decl) const {
  for (const PendingStore& p : stores_) {
    if (p.decl == decl) return &p;
  }
  return nullptr;
}

std::optional<KernelContext::Payload> KernelContext::payload(
    size_t decl) const {
  const Staged& st = stages_[decl];
  if (!st.stored.empty() && st.stored[static_cast<size_t>(ordinal_)] != 0) {
    return Payload{st.type, &st.extents,
                   st.image.data() + static_cast<size_t>(ordinal_) * st.bytes};
  }
  if (const PendingStore* p = pending_store(decl)) {
    return Payload{p->data.type(), &p->data.extents(), p->data.raw()};
  }
  return std::nullopt;
}

}  // namespace p2g
