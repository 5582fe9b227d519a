// KernelContext: the interface a kernel body uses to reach its fetched
// slices, buffer its stores, query its age/index bindings, and poll
// deadline timers.
//
// Stores are buffered and committed by the worker after the body returns;
// this both matches the paper's deferred-store semantics under kernel
// fusion (§V-A, Age=3 in Fig. 4) and keeps write-once violations
// attributable to a single instance.
//
// A range item runs a whole box of instances in one context: the worker
// moves it from coordinate to coordinate (enter()), each fetch slot
// follows the instance across one view of the box's footprint, and the
// stores of each non-whole declaration are staged as the box's store
// image, so the worker commits each declaration once per box.
#pragma once

#include <cstring>
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
  /// The instances of `box` (one interval per index variable), run one
  /// after another; the context starts at the box's first coordinate. A
  /// single instance is the box of one (nd::Region::point).
  KernelContext(const KernelDef& def, Age age, const nd::Region& box,
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
    const size_t decl = store_decl(slot);
    if (std::byte* dst = stage(decl, nd::element_type_of<T>(), nullptr)) {
      std::memcpy(dst, &value, sizeof(T));
      return;
    }
    nd::AnyBuffer buf(nd::element_type_of<T>(), nd::Extents({1}));
    buf.template data<T>()[0] = value;
    stores_.push_back(PendingStore{decl, std::move(buf)});
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

  /// Points a slot at caller-managed memory holding an `extents`-shaped
  /// payload, reusing the slot's view when its type and shape are
  /// unchanged (a fused downstream's feed, once per instance).
  void set_fetch(size_t slot, nd::ElementType type,
                 const nd::Extents& extents, const std::byte* base);

  /// Prepares a slot that follows the instance across the box:
  /// `footprint` views the slot's footprint over the box
  /// (nd::SliceSpec::footprint); each instance sees the `extents`-shaped
  /// window of it at the instance's offset, holding the footprint's
  /// keepalive, so a copied window stays valid after the context is gone.
  void set_fetch_window(size_t slot, nd::ConstView footprint,
                        nd::Extents extents);
  /// set_fetch_window over a copy of the footprint, shared by the windows.
  void set_fetch_window(size_t slot, nd::AnyBuffer footprint,
                        nd::Extents extents);

  /// Moves a box context to the instance at `indices` (inside the box):
  /// windowed fetch slots follow it and its pending stores start empty.
  void enter(const nd::Coord& indices);

  const nd::Region& box() const { return box_; }
  /// Row-major position of the current instance in the box.
  int64_t ordinal() const { return ordinal_; }

  struct PendingStore {
    size_t decl = 0;
    nd::AnyBuffer data;
  };
  /// The current instance's stores that were not staged: whole-field
  /// stores, and payloads whose type or extents differ from the first one
  /// staged for their declaration.
  const std::vector<PendingStore>& pending_stores() const { return stores_; }

  /// Pending store for a given decl index, or nullptr.
  const PendingStore* pending_store(size_t decl) const;

  /// A store declaration's staged payloads: one slot per box instance in row-major order, filled for the instances flagged in
  /// `stored`. Every staged payload has the type and extents of the first.
  struct Staged {
    bool typed = false;
    nd::ElementType type = nd::ElementType::kInt32;
    nd::Extents extents;
    size_t bytes = 0;  ///< per payload
    std::vector<std::byte> image;
    std::vector<uint8_t> stored;
    int64_t count = 0;  ///< staged payloads
  };
  const Staged& staged(size_t decl) const { return stages_[decl]; }

  /// The current instance's payload for a store declaration, staged or
  /// pending; nullopt when it stored none.
  struct Payload {
    nd::ElementType type;
    const nd::Extents* extents;
    const std::byte* data;
  };
  std::optional<Payload> payload(size_t decl) const;

 private:
  struct FetchSlot {
    bool prepared = false;
    nd::ConstView view;
    /// Owning storage behind the view when prepared by copy.
    std::optional<nd::AnyBuffer> owned;
    /// Lazy packed materialization for fetch_array over a storage view.
    mutable std::optional<nd::AnyBuffer> packed;
    /// Windowed slots: the footprint the view moves across and the byte
    /// offset of one step along each index variable. `step` is empty for
    /// other slots.
    nd::ConstView footprint;
    std::vector<int64_t> step;
  };

  const FetchSlot& slot_for(std::string_view slot) const;
  /// Declaration index of a store slot; throws for an unknown slot.
  size_t store_decl(std::string_view slot) const;
  /// Throws kWriteOnceViolation when the current instance already stored
  /// declaration `decl`.
  void check_first_store(size_t decl) const;
  /// The staging slot of the current instance for a payload of `type` and
  /// `extents` (nullptr: one element), or nullptr when the payload is not
  /// staged and goes pending.
  std::byte* stage(size_t decl, nd::ElementType type,
                   const nd::Extents* extents);

  const KernelDef* def_;
  Age age_;
  nd::Coord indices_;
  TimerSet* timers_;
  std::vector<FetchSlot> fetches_;
  std::vector<PendingStore> stores_;
  bool continue_ = false;
  /// The box, its row-major strides, the current position and one staging
  /// area per store declaration.
  nd::Region box_;
  std::vector<int64_t> box_strides_;
  int64_t ordinal_ = 0;
  std::vector<Staged> stages_;
};

}  // namespace p2g
