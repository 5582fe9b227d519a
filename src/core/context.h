// KernelContext: the interface a kernel body uses to reach its fetched
// slices, buffer its stores, query its age/index bindings, and poll
// deadline timers.
//
// Stores are buffered and committed by the worker after the body returns;
// this both matches the paper's deferred-store semantics under kernel
// fusion (§V-A, Age=3 in Fig. 4) and keeps write-once violations
// attributable to a single instance.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/kernel.h"
#include "core/timer.h"
#include "nd/buffer.h"
#include "nd/view.h"

namespace p2g {

class KernelContext {
 public:
  KernelContext(const KernelDef& def, Age age, nd::Coord indices,
                TimerSet* timers);

  const KernelDef& def() const { return *def_; }
  Age age() const { return age_; }

  /// Value of an index variable by position or by name.
  int64_t index(size_t var) const;
  int64_t index(std::string_view name) const;
  const nd::Coord& indices() const { return indices_; }

  // --- fetched data -------------------------------------------------------

  /// View of the fetched slice for a slot, shaped like the resolved region.
  /// This is the zero-copy path: when the producing age is sealed the view
  /// aliases field storage directly; otherwise it views a per-instance copy.
  /// Either way, no payload copy happens at call time.
  const nd::ConstView& fetch_view(std::string_view slot) const;

  /// The fetched slice as a packed buffer. Kept for kernels that want an
  /// owning array; materializes the view once per slot on first call.
  const nd::AnyBuffer& fetch_array(std::string_view slot) const;

  /// Single-element fetch as a scalar.
  template <typename T>
  T fetch_scalar(std::string_view slot) const {
    const nd::ConstView& view = fetch_view(slot);
    P2G_CHECK_ARGUMENT(view.element_count() == 1,
                       "fetch_scalar on a non-scalar slice");
    return view.at_flat<T>(0);
  }

  // --- stores (buffered until the body returns) ---------------------------

  /// Stores a payload for a slot. For elementwise slices the payload must
  /// hold exactly one element; for slices with `all()` dimensions or whole-
  /// field stores, the payload supplies those extents.
  void store_array(std::string_view slot, nd::AnyBuffer data);

  template <typename T>
  void store_scalar(std::string_view slot, T value) {
    nd::AnyBuffer buf(nd::element_type_of<T>(), nd::Extents({1}));
    buf.template data<T>()[0] = value;
    store_array(slot, std::move(buf));
  }

  // --- source-kernel control ----------------------------------------------

  /// Requests the next age of a source kernel (the paper's read kernel
  /// keeps calling this until end-of-stream).
  void continue_next_age() { continue_ = true; }
  bool continue_requested() const { return continue_; }

  // --- deadlines ------------------------------------------------------------

  TimerSet& timers() const;

  // --- worker-facing (not for kernel bodies) -------------------------------

  /// Prepares a slot with an owned copy (unsealed-age fallback, injected
  /// data). The slot's view aliases the owned buffer.
  void set_fetch(size_t slot, nd::AnyBuffer data);

  /// Prepares a slot with a zero-copy view of field storage.
  void set_fetch(size_t slot, nd::ConstView view);

  struct PendingStore {
    size_t decl = 0;
    nd::AnyBuffer data;
  };
  const std::vector<PendingStore>& pending_stores() const { return stores_; }

  /// Pending store for a given decl index, or nullptr.
  const PendingStore* pending_store(size_t decl) const;

 private:
  struct FetchSlot {
    bool prepared = false;
    nd::ConstView view;
    /// Owning storage behind the view when prepared by copy.
    std::optional<nd::AnyBuffer> owned;
    /// Lazy packed materialization for fetch_array over a storage view.
    mutable std::optional<nd::AnyBuffer> packed;
  };

  const FetchSlot& slot_for(std::string_view slot) const;

  const KernelDef* def_;
  Age age_;
  nd::Coord indices_;
  TimerSet* timers_;
  std::vector<FetchSlot> fetches_;
  std::vector<PendingStore> stores_;
  bool continue_ = false;
};

}  // namespace p2g
