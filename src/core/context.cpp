#include "core/context.h"

#include <algorithm>

namespace p2g {

KernelContext::KernelContext(const KernelDef& def, Age age, nd::Coord indices,
                             TimerSet* timers)
    : def_(&def),
      age_(age),
      indices_(std::move(indices)),
      timers_(timers),
      fetches_(def.fetches.size()) {}

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

void KernelContext::store_array(std::string_view slot, nd::AnyBuffer data) {
  const int i = def_->store_slot(slot);
  P2G_CHECK_ARGUMENT(i >= 0, "kernel '" + def_->name + "' has no store slot '" +
                                 std::string(slot) + "'");
  for (const PendingStore& p : stores_) {
    if (p.decl == static_cast<size_t>(i)) {
      throw_error(ErrorKind::kWriteOnceViolation,
                  "kernel '" + def_->name + "' stored slot '" +
                      std::string(slot) + "' twice in one instance");
    }
  }
  stores_.push_back(PendingStore{static_cast<size_t>(i), std::move(data)});
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
  fs.prepared = true;
}

void KernelContext::set_fetch(size_t slot, nd::ConstView view) {
  P2G_CHECK_INTERNAL(slot < fetches_.size(), "set_fetch slot out of range");
  FetchSlot& fs = fetches_[slot];
  fs.view = std::move(view);
  fs.owned.reset();
  fs.packed.reset();
  fs.prepared = true;
}

const KernelContext::PendingStore* KernelContext::pending_store(
    size_t decl) const {
  for (const PendingStore& p : stores_) {
    if (p.decl == decl) return &p;
  }
  return nullptr;
}

}  // namespace p2g
