// Fields: the central data abstraction of P2G.
//
// A field is a named, typed, multi-dimensional array with an *age*
// dimension. Each (age, element) cell obeys write-once semantics — storing
// twice throws — which is what makes the runtime deterministic and lets the
// dependency analyzer decide runnability from written-bitmaps alone.
//
// Extents are discovered at runtime ("implicit resizing"): stores may grow
// an age's extents until the analyzer *seals* the age, after which the
// extent is final and completeness (`all elements written`) is meaningful.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "check/sync.h"
#include "common/dynamic_bitset.h"
#include "core/ids.h"
#include "nd/buffer.h"
#include "nd/region.h"
#include "nd/view.h"

namespace p2g {

/// Static declaration of a field.
struct FieldDecl {
  FieldId id = kInvalidField;
  std::string name;
  nd::ElementType type = nd::ElementType::kInt32;
  size_t rank = 1;
  /// Optional declared per-dimension extents (the kernel language's
  /// `int32[8] data age;`): empty = fully implicit, otherwise one entry
  /// per dimension with -1 for dimensions left implicit. Runtime extents
  /// are still discovered by stores — declared extents only feed static
  /// analysis (P2G-W008 out-of-bounds slice checks, footprint bounds).
  std::vector<int64_t> declared_extents;

  /// Declared extent of `dim`, or -1 when implicit.
  int64_t declared_extent(size_t dim) const {
    return dim < declared_extents.size() ? declared_extents[dim] : -1;
  }
};

/// Identity of the kernel instance performing a store, passed down so a
/// write-once violation names the offending writer (and, in checked mode,
/// the previous writer of the same elements).
struct StoreOrigin {
  std::string kernel;   ///< kernel name ("injected" for remote stores)
  Age age = 0;          ///< instance age
  nd::Coord indices;    ///< instance index-variable values

  /// "kernel 'mul2' instance age 3 [2]"
  std::string to_string() const;
};

/// Names the kernel instance that stored a given element (a field
/// coordinate) of a store covering many instances (a box commit).
using OriginAt = std::function<StoreOrigin(const nd::Coord& element)>;

/// Runtime storage of one field across all live ages. Thread-safe.
class FieldStorage {
 public:
  explicit FieldStorage(FieldDecl decl);
  ~FieldStorage();

  FieldStorage(const FieldStorage&) = delete;
  FieldStorage& operator=(const FieldStorage&) = delete;

  const FieldDecl& decl() const { return decl_; }

  /// Stores a densely packed region payload into (age, region), enforcing
  /// write-once per element. Grows extents when the region does not fit and
  /// the age is not sealed; throws kOutOfRange if it is. `origin`, when
  /// given, is named in the write-once violation error (and recorded per
  /// region under track_writers).
  void store(Age age, const nd::Region& region, const std::byte* data,
             const StoreOrigin* origin = nullptr);

  /// store() of a box commit, which stores for many kernel instances at
  /// once: `origin_at` names the instance behind an element. It is called
  /// only to name the instance of the first conflicting element of a
  /// write-once violation, or the first element's under track_writers.
  void store_box(Age age, const nd::Region& region, const std::byte* data,
                 const OriginAt& origin_at);

  /// Stores a whole array as (age)'s complete content. The age's extents
  /// become at least the buffer's extents.
  void store_whole(Age age, const nd::AnyBuffer& data,
                   const StoreOrigin* origin = nullptr);

  /// Fill-mode store: writes only the elements of `region` that have not
  /// been written yet and silently skips the rest. Returns the number of
  /// freshly written elements (0 = the store was a pure duplicate). This is
  /// the idempotent-apply primitive of the fault-tolerance layer: replayed
  /// forwards, checkpoint restores, and re-executed kernel instances may
  /// partially overlap data that already arrived, and write-once semantics
  /// guarantee any overlapping payload bytes are identical.
  int64_t store_fill(Age age, const nd::Region& region,
                     const std::byte* data);

  /// Checked mode (RunOptions::checked): record the origin of every store
  /// per (age, region) so a write-once violation can also report who wrote
  /// the overlapping elements first. Costs one (Region, StoreOrigin) copy
  /// per store; off by default.
  void track_writers(bool enabled) { track_writers_ = enabled; }

  /// Marks the age's extents as final (grows the buffer if needed). Called
  /// by the dependency analyzer when all producers are accounted for.
  void seal(Age age, const nd::Extents& extents);

  bool is_sealed(Age age) const;

  /// True when sealed and every element has been written.
  bool is_complete(Age age) const;

  /// True when the region lies within current extents and every element in
  /// it has been written.
  bool region_written(Age age, const nd::Region& region) const;

  /// Current extents of an age ({} rank-`rank` zeros when never touched).
  nd::Extents extents(Age age) const;

  /// Copies (age, region) into a densely packed buffer of the field's type.
  /// All elements must have been written.
  nd::AnyBuffer fetch(Age age, const nd::Region& region) const;

  /// Copies the whole content of a complete age.
  nd::AnyBuffer fetch_whole(Age age) const;

  // --- published ages: the lock-free path ---------------------------------
  //
  // Once an age is sealed its extents are final, so its buffer can be
  // grown to them once and never reallocated again. Such an age is
  // *published*: a record holding the buffer, an atomic written-bitmap and
  // an atomic written-count is installed in a per-age directory (pages of
  // atomic slot pointers indexed by age). From then on store, store_fill
  // and every query resolve through the record without touching the
  // storage mutex: a store claims its elements with fetch_or on a claim
  // bitmap (a bit already set is the write-once violation), copies the
  // payload, then commits the elements to the written-bitmap and count
  // with release ordering, so a region never reads as written before its
  // bytes are in place. An age is published at its first store after it
  // seals, or at its first fetch — not at seal() itself, so an age that is
  // sealed but never stored (the elided intermediate of a fused pipeline)
  // costs no memory.
  //
  // Fetches of published ages alias the buffer instead of copying it. The
  // view carries a shared_ptr keepalive: release_age() may drop the age
  // while kernels still hold views, and the memory is freed only when the
  // last view goes away.

  /// View of (age, region) aliasing the age buffer. Returns nullopt while
  /// the age is unsealed (the buffer may still be reallocated by implicit
  /// resizing) — callers fall back to fetch(). Contiguous regions yield
  /// dense views; anything else yields a strided view, still zero-copy.
  std::optional<nd::ConstView> try_fetch_view(Age age,
                                              const nd::Region& region);

  /// Whole-field variant of try_fetch_view (the region is the sealed
  /// extents).
  std::optional<nd::ConstView> try_fetch_view_whole(Age age);

  /// Number of elements written so far at this age.
  int64_t written_count(Age age) const;

  // --- released ages ---------------------------------------------------------
  //
  // The dependency analyzer releases an age once every local reader and
  // writer has retired it (DependencyAnalyzer, "age reclamation"). A
  // released age stays released: is_sealed/is_complete keep answering
  // true, so the analyzer's view never goes backwards; a store into it is
  // a write-once violation (store_fill writes nothing, adopt_whole
  // declines); any read of its data or shape (fetch, views, extents,
  // region_written, written_count, peek_block) throws kInternal naming the
  // field and the age. Views taken before the release stay valid through
  // their keepalive.

  /// Releases the storage of an age. No-op for an untouched or already
  /// released age.
  void release_age(Age age);

  /// Ages currently held (released ones excluded).
  std::vector<Age> live_ages() const;

  /// Total bytes currently allocated across live ages.
  size_t memory_bytes() const;

  // --- external storage hooks (the shared-memory data plane) ---------------

  /// Factory for new age buffers. A shared-memory data plane installs one
  /// that allocates payload bytes from its mapped arena, so outgoing whole
  /// stores can ship as arena offsets instead of copies. Must be set
  /// before the runtime starts (not thread-safe against stores).
  using BufferFactory =
      std::function<nd::AnyBuffer(nd::ElementType, const nd::Extents&)>;
  void set_buffer_factory(BufferFactory factory);

  /// A raw look at an age's current payload block: base pointer and
  /// extents under the reader lock. The pointer is only stable if the
  /// caller knows the block cannot be reclaimed (arena-backed buffers —
  /// bump arenas never free; heap-backed buffers may relocate on growth,
  /// so callers must range-check the pointer against their arena before
  /// trusting it).
  struct RawBlock {
    const std::byte* base = nullptr;
    nd::Extents extents;
  };
  std::optional<RawBlock> peek_block(Age age) const;

  /// Adopts `view` (densely packed, matching type/rank) as the complete
  /// payload of `age` without copying: the age buffer aliases the view's
  /// memory and every element is marked written. Only possible when the
  /// age has no written elements yet and, if sealed, the view covers the
  /// sealed extents. Returns false when adoption is not possible (caller
  /// falls back to a copying store). This is how a mapped peer-arena frame
  /// becomes local field content with zero copies.
  bool adopt_whole(Age age, const nd::ConstView& view);

 private:
  /// Writer provenance entry (track_writers only).
  struct Writer {
    nd::Region region;
    StoreOrigin origin;
    bool failed = false;  ///< the store lost its claim: it wrote nothing
  };

  struct Published;  // lock-free record of a published age (field.cpp)

  /// The writer of a store as its caller names it: one origin, one per
  /// element, or none.
  struct StoreBy {
    const StoreOrigin* origin = nullptr;
    const OriginAt* origin_at = nullptr;
    /// The origin of the instance that stored `element`, if named.
    std::optional<StoreOrigin> name(const nd::Coord& element) const {
      if (origin_at != nullptr) return (*origin_at)(element);
      if (origin != nullptr) return *origin;
      return std::nullopt;
    }
    /// name() of `region`'s first element (the writer a store records).
    std::optional<StoreOrigin> name_first(const nd::Region& region) const {
      return region.empty() ? std::nullopt : name(region.first());
    }
  };
  void store_by(Age age, const nd::Region& region, const std::byte* data,
                const StoreBy& by);

  /// Locked-path state of one age.
  struct AgeData {
    /// Payload, shared with outstanding views (keepalive) and, once
    /// published, with the age's record.
    std::shared_ptr<nd::AnyBuffer> buffer;
    /// Written elements while unpublished; publishing moves the words into
    /// the record's atomic bitmap.
    DynamicBitset written;
    bool sealed = false;
    /// Final extents once sealed. The buffer itself grows lazily (an age
    /// that is sealed but never stored — e.g. the elided intermediate of a
    /// fused pipeline — costs no memory).
    nd::Extents sealed_extents;
    /// Writer provenance while unpublished (moved into the record).
    std::vector<Writer> writers;
    /// The age's directory record once published (owned by the directory).
    Published* published = nullptr;

    nd::Extents current_extents() const {
      return sealed ? sealed_extents : buffer->extents();
    }
  };

  /// Age -> published record, O(1): a spine of pages of atomic slots.
  /// Readers load slots lock-free; install/clear and growth of the spine
  /// happen under the writer lock. Allocated on the first publish.
  class Directory {
   public:
    Directory() = default;
    Directory(const Directory&) = delete;
    Directory& operator=(const Directory&) = delete;

    /// The record of `age`, or nullptr (call inside a ReadSection).
    Published* find(Age age) const;
    void install(Age age, Published* record);  // writer lock held
    void clear(Age age);                       // writer lock held
    static constexpr size_t kPageBits = 8;
    static constexpr size_t kPageSlots = size_t{1} << kPageBits;
    struct Page {
      std::atomic<Published*> slots[kPageSlots] = {};
    };

    /// Moves the pages all of whose ages lie in [low, high), the released
    /// run, from the directory into `unlinked` (writer lock held); they
    /// may be freed once the read sections open now have ended.
    void unlink_released_pages(Age low, Age high,
                               std::vector<std::unique_ptr<Page>>* unlinked);

   private:
    struct Spine {
      explicit Spine(size_t n);
      size_t pages;
      std::unique_ptr<std::atomic<Page*>[]> page;
    };
    std::atomic<Page*>* page_slot(Age age) const;

    std::atomic<Spine*> spine_{nullptr};
    /// Every spine ever allocated (writer lock). Superseded spines stay
    /// alive: a lock-free reader may still be walking one.
    std::vector<std::unique_ptr<Spine>> spines_;
    /// Live pages by page index (writer lock).
    std::vector<std::unique_ptr<Page>> pages_;
    /// Pages below this index were considered by unlink_released_pages.
    size_t reclaim_from_ = 0;
  };

  /// A released age's record and directory pages, unlinked but possibly
  /// still used by read sections that were open at the unlink.
  struct Retired {
    Published* record = nullptr;
    std::vector<std::unique_ptr<Directory::Page>> pages;
    /// (reader slot sequence, odd value) of each section open at the
    /// unlink; all must move on before the record and pages are freed.
    std::vector<std::pair<const std::atomic<uint64_t>*, uint64_t>> open;
  };
  /// Frees the retired entries whose sections have ended (every entry
  /// with `all`, at destruction). Writer lock held.
  void free_retired(bool all);

  AgeData& age_data(Age age);           // creates on demand (locked caller)
  const AgeData* find_age(Age age) const;

  /// Grows buffer + written-bitmap to new extents, remapping set bits.
  void grow(AgeData& data, const nd::Extents& new_extents);

  /// Grows a sealed age to its final extents, converts its bitmap into a
  /// directory record and installs it (caller holds the writer lock).
  Published& publish(AgeData& data, Age age);

  /// Lock-free store into a published age: claim, copy, commit.
  void store_published(Published& rec, Age age, const nd::Region& region,
                       const std::byte* data, const StoreBy& by);
  int64_t store_fill_published(Published& rec, Age age,
                               const nd::Region& region,
                               const std::byte* data);
  bool region_written_published(const Published& rec,
                                const nd::Region& region) const;

  /// Throws kOutOfRange for a store outside an age's sealed extents.
  [[noreturn]] void throw_outside_seal(Age age, const nd::Region& region,
                                       const nd::Extents& sealed) const;

  /// View of `region` aliasing a published buffer.
  nd::ConstView make_view(std::shared_ptr<const nd::AnyBuffer> buffer,
                          const nd::Region& region) const;

  /// True when `age` was released (caller holds mutex_, either mode).
  bool released(Age age) const;
  /// Adds `age` to the released record (writer lock held).
  void note_released(Age age);
  /// Throws kInternal for a read of a released age.
  [[noreturn]] void throw_released(Age age, const char* what) const;

  /// Builds and throws the kWriteOnceViolation error for a store hitting
  /// already-written elements of `conflict`, naming the earlier writers
  /// listed in `writers`.
  [[noreturn]] void throw_write_once(const std::vector<Writer>& writers,
                                     Age age, const nd::Region& conflict,
                                     const StoreOrigin* origin) const;

  FieldDecl decl_;
  bool track_writers_ = false;
  BufferFactory buffer_factory_;  ///< optional external-arena allocator
  /// Writer lock for unpublished ages, seal, publish and release; shared
  /// for queries of unpublished ages. Published ages take neither: their
  /// ordering is the claim/commit protocol on the record, described to the
  /// checker via check::release/check::acquire annotations.
  mutable sync::SharedMutex mutex_{"FieldStorage.mutex"};
  std::map<Age, AgeData> ages_;
  Directory directory_;
  /// Released ages: the run [released_low_, released_high_) plus the ones
  /// outside it. The run grows at either end and absorbs adjacent sparse
  /// ages, so an in-order stream keeps the set empty.
  Age released_low_ = 0;
  Age released_high_ = 0;
  std::set<Age> released_sparse_;
  std::vector<Retired> retired_;
};

}  // namespace p2g
