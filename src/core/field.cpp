#include "core/field.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"

namespace p2g {

std::string StoreOrigin::to_string() const {
  std::string out = "kernel '" + kernel + "' instance age " +
                    std::to_string(age);
  if (!indices.empty()) out += " " + nd::to_string(indices);
  return out;
}

namespace {

// --- read sections: safe reclamation of published-age records -------------
//
// Lock-free readers reach a record through a directory slot and then use
// it; release_age() must not free the record while such a reader may still
// hold it. Every thread owns a reader slot whose sequence number is odd
// while the thread is inside a read section. release_age() clears the
// directory slot, then waits until every slot that was odd has moved on —
// after that no reader can still hold the old pointer. Entering a section
// costs one seq_cst increment of the thread's own slot; readers never
// write shared memory, so stores to disjoint elements of one age stay
// independent. The seq_cst increment, the seq_cst slot load in
// Directory::find, and the seq_cst clear and sequence loads in
// release_age() form a Dekker pair: either the reader sees the cleared
// slot, or release_age() sees the reader's odd sequence and waits.

struct ReaderSlot {
  std::atomic<uint64_t> seq{0};  ///< odd while the owner is inside a section
  std::atomic<bool> in_use{false};
  ReaderSlot* next = nullptr;
};

/// Every reader slot ever created. Slots are never freed; an exiting
/// thread hands its slot to the next new thread.
std::atomic<ReaderSlot*> g_reader_slots{nullptr};

ReaderSlot* claim_reader_slot() {
  for (ReaderSlot* slot = g_reader_slots.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    bool expected = false;
    if (slot->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire)) {
      return slot;
    }
  }
  auto* slot = new ReaderSlot;
  slot->in_use.store(true, std::memory_order_relaxed);
  ReaderSlot* head = g_reader_slots.load(std::memory_order_relaxed);
  do {
    slot->next = head;
  } while (!g_reader_slots.compare_exchange_weak(
      head, slot, std::memory_order_release, std::memory_order_relaxed));
  return slot;
}

struct ThreadReader {
  ReaderSlot* slot = claim_reader_slot();
  int depth = 0;  ///< nesting of read sections on this thread

  ~ThreadReader() { slot->in_use.store(false, std::memory_order_release); }
};

ThreadReader& thread_reader() {
  thread_local ThreadReader reader;
  return reader;
}

/// RAII read section: published records found inside it stay valid until
/// it ends. Must not block on the storage mutex while open (release_age
/// waits for open sections while holding it).
class ReadSection {
 public:
  ReadSection() : reader_(thread_reader()) {
    if (reader_.depth++ == 0) {
      reader_.slot->seq.fetch_add(1, std::memory_order_seq_cst);
    }
  }
  ~ReadSection() {
    if (--reader_.depth == 0) {
      ReaderSlot& slot = *reader_.slot;
      slot.seq.store(slot.seq.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    }
  }
  ReadSection(const ReadSection&) = delete;
  ReadSection& operator=(const ReadSection&) = delete;

 private:
  ThreadReader& reader_;
};

/// Blocks until every read section open at the call has ended. Call after
/// unlinking a record from the directory, before freeing it.
void wait_for_readers() {
  P2G_CHECK_INTERNAL(thread_reader().depth == 0,
                     "release_age inside a field read section");
  for (ReaderSlot* slot = g_reader_slots.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    const uint64_t seen = slot->seq.load(std::memory_order_seq_cst);
    if ((seen & 1) == 0) continue;
    while (slot->seq.load(std::memory_order_acquire) == seen) {
      check::racy_read(&slot->seq, sizeof(slot->seq));  // scheduling point
      std::this_thread::yield();
    }
  }
}

}  // namespace

/// A published age: sealed, buffer at its final extents. Everything here
/// except `writers` is immutable after publish or accessed atomically.
struct FieldStorage::Published {
  std::shared_ptr<nd::AnyBuffer> buffer;  ///< never reallocated again
  nd::Extents extents;                    ///< buffer->extents()
  int64_t elements = 0;
  size_t element_size = 0;
  /// Writable payload base; null when the age was complete at publish (no
  /// store can succeed, and an adopted alias must not be materialized).
  std::byte* payload = nullptr;
  /// Committed elements: set only after their bytes are in place. Taken
  /// over from the unpublished bitmap without a copy.
  AtomicBitset written;
  /// Elements claimed by a store (the write-once check). Empty when the
  /// age was complete at publish: every store is then a violation.
  AtomicBitset claimed;
  std::atomic<int64_t> written_count{0};
  /// Writer provenance (track_writers). Appended before the claim, so a
  /// store that loses a claim always finds the winner listed.
  sync::Mutex writers_mutex{"FieldStorage.writers"};
  std::vector<Writer> writers;

  /// Claim, copy, commit of the `n` elements at flat offset `begin`. The
  /// claim makes this call the only writer of those bytes; the commit
  /// publishes them with release ordering, so region_written (acquire)
  /// never reports elements whose bytes are still in flight. Returns the
  /// first element that was already claimed — nothing is copied then —
  /// or begin + n. The caller adds the committed count to written_count.
  size_t write_run(size_t begin, size_t n, const std::byte* src) {
    if (payload == nullptr) return begin;  // complete at publish
    const size_t first =
        claimed.set_range(begin, begin + n, std::memory_order_acq_rel);
    if (first != begin + n) return first;
    std::byte* dst = payload + begin * element_size;
    check::write_range(dst, n * element_size, "FieldStorage.payload");
    std::memcpy(dst, src, n * element_size);
    check::release(this);
    written.set_range(begin, begin + n, std::memory_order_release);
    return begin + n;
  }
};

namespace {

/// Calls fn(row, flat, n) for each row of `region` — a run of `n`
/// consecutive flat indices of `extents` along the innermost dimension,
/// starting at coordinate `row` — in row-major order, until fn returns
/// false. For regions without one contiguous span (rank >= 2).
template <typename Fn>
void for_each_row(const nd::Region& region, const nd::Extents& extents,
                  Fn&& fn) {
  std::vector<nd::Interval> rows = region.intervals();
  const int64_t n = rows.back().length();
  rows.back().end = rows.back().begin + 1;
  bool more = n > 0;
  nd::Region(std::move(rows)).for_each([&](const nd::Coord& row) {
    if (more) {
      more = fn(row, static_cast<size_t>(extents.flatten(row)),
                static_cast<size_t>(n));
    }
  });
}

}  // namespace

FieldStorage::FieldStorage(FieldDecl decl) : decl_(std::move(decl)) {}

FieldStorage::~FieldStorage() {
  for (auto& [age, data] : ages_) delete data.published;
}

// --- directory ------------------------------------------------------------

FieldStorage::Directory::Spine::Spine(size_t n)
    : pages(n), page(new std::atomic<Page*>[n]) {
  for (size_t i = 0; i < n; ++i) page[i].store(nullptr);
}

std::atomic<FieldStorage::Directory::Page*>*
FieldStorage::Directory::page_slot(Age age) const {
  const Spine* spine = spine_.load(std::memory_order_acquire);
  const auto index = static_cast<size_t>(age) >> kPageBits;
  if (spine == nullptr || index >= spine->pages) return nullptr;
  return &spine->page[index];
}

FieldStorage::Published* FieldStorage::Directory::find(Age age) const {
  if (age < 0) return nullptr;
  const std::atomic<Page*>* slot = page_slot(age);
  if (slot == nullptr) return nullptr;
  const Page* page = slot->load(std::memory_order_acquire);
  if (page == nullptr) return nullptr;
  return page->slots[static_cast<size_t>(age) & (kPageSlots - 1)].load(
      std::memory_order_seq_cst);  // see "read sections" above
}

void FieldStorage::Directory::install(Age age, Published* record) {
  const auto index = static_cast<size_t>(age) >> kPageBits;
  const Spine* spine = spine_.load(std::memory_order_relaxed);
  if (spine == nullptr || index >= spine->pages) {
    // Grow the spine geometrically; readers still walking the old one
    // merely miss the new pages and fall back to the locked path.
    const size_t old_pages = spine == nullptr ? 0 : spine->pages;
    auto fresh = std::make_unique<Spine>(
        std::max({index + 1, old_pages * 2, size_t{4}}));
    for (size_t i = 0; i < old_pages; ++i) {
      fresh->page[i].store(spine->page[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    spine_.store(fresh.get(), std::memory_order_release);
    spines_.push_back(std::move(fresh));
  }
  std::atomic<Page*>& page_ref = *page_slot(age);
  Page* page = page_ref.load(std::memory_order_relaxed);
  if (page == nullptr) {
    pages_.push_back(std::make_unique<Page>());
    page = pages_.back().get();
    page_ref.store(page, std::memory_order_release);
  }
  page->slots[static_cast<size_t>(age) & (kPageSlots - 1)].store(
      record, std::memory_order_release);
}

void FieldStorage::Directory::clear(Age age) {
  std::atomic<Page*>* slot = page_slot(age);
  if (slot == nullptr) return;
  if (Page* page = slot->load(std::memory_order_relaxed)) {
    page->slots[static_cast<size_t>(age) & (kPageSlots - 1)].store(
        nullptr, std::memory_order_seq_cst);  // see "read sections" above
  }
}

// --- errors ---------------------------------------------------------------

void FieldStorage::throw_write_once(const std::vector<Writer>& writers,
                                    Age age, const nd::Region& conflict,
                                    const StoreOrigin* origin) const {
  std::string msg = "region " + conflict.to_string() + " of field " +
                    decl_.name + " age " + std::to_string(age) +
                    " overlaps previously written elements";
  if (origin != nullptr) {
    msg += "; writer: " + origin->to_string();
  }
  // With provenance tracking on (RunOptions::checked), name the earlier
  // writers of the overlapping elements — this turns the error into a
  // two-sided race report.
  size_t listed = 0;
  for (const Writer& writer : writers) {
    if (writer.failed || conflict.intersect(writer.region).empty()) continue;
    msg += listed == 0 ? "; previously written by " : ", ";
    msg += writer.origin.to_string() + " storing " + writer.region.to_string();
    if (++listed == 4) {
      msg += ", ...";
      break;
    }
  }
  throw_error(ErrorKind::kWriteOnceViolation, msg);
}

void FieldStorage::throw_outside_seal(Age age, const nd::Region& region,
                                      const nd::Extents& sealed) const {
  throw_error(ErrorKind::kOutOfRange,
              "store " + region.to_string() + " outside sealed extents " +
                  sealed.to_string() + " of field " + decl_.name + " age " +
                  std::to_string(age));
}

FieldStorage::AgeData& FieldStorage::age_data(Age age) {
  auto it = ages_.find(age);
  if (it == ages_.end()) {
    AgeData fresh;
    const nd::Extents zero(std::vector<int64_t>(decl_.rank, 0));
    fresh.buffer = buffer_factory_
                       ? std::make_shared<nd::AnyBuffer>(
                             buffer_factory_(decl_.type, zero))
                       : std::make_shared<nd::AnyBuffer>(decl_.type, zero);
    it = ages_.emplace(age, std::move(fresh)).first;
  }
  return it->second;
}

const FieldStorage::AgeData* FieldStorage::find_age(Age age) const {
  auto it = ages_.find(age);
  return it == ages_.end() ? nullptr : &it->second;
}

void FieldStorage::grow(AgeData& data, const nd::Extents& new_extents) {
  const nd::Extents old_extents = data.buffer->extents();
  if (new_extents == old_extents) return;
  P2G_CHECK_INTERNAL(
      !data.sealed || new_extents.fits_in(data.sealed_extents),
      "grow beyond sealed extents of field " + decl_.name);
  // Published buffers are aliased by views and written lock-free; their
  // allocation must never move again. Publishing grows to the sealed
  // extents first, and published ages never reach this path.
  P2G_CHECK_INTERNAL(data.published == nullptr,
                     "grow of published age buffer of field " + decl_.name);
  // The resize may reallocate the payload; drop any access history of the
  // old allocation so recycled addresses cannot produce stale-epoch races.
  // (Const access: raw() non-const would materialize an adopted alias.)
  check::reset_range(std::as_const(*data.buffer).raw(),
                     static_cast<size_t>(old_extents.element_count()) *
                         nd::element_size(data.buffer->type()));
  data.buffer->resize(new_extents);

  // Remap written bits: positions are flat indices, which change with the
  // extents. Walk the set bits of the old layout and re-set them under the
  // new layout.
  DynamicBitset fresh(static_cast<size_t>(new_extents.element_count()));
  if (data.written.count() > 0) {
    const int64_t old_count = old_extents.element_count();
    for (int64_t flat = 0; flat < old_count; ++flat) {
      if (data.written.test(static_cast<size_t>(flat))) {
        const nd::Coord coord = old_extents.unflatten(flat);
        fresh.set(static_cast<size_t>(new_extents.flatten(coord)));
      }
    }
  }
  data.written = std::move(fresh);
}

FieldStorage::Published& FieldStorage::publish(AgeData& data, Age age) {
  if (data.published != nullptr) return *data.published;
  grow(data, data.sealed_extents);
  auto record = std::make_unique<Published>();
  record->buffer = data.buffer;
  record->extents = data.buffer->extents();
  record->elements = record->extents.element_count();
  record->element_size = nd::element_size(decl_.type);
  const auto count = static_cast<int64_t>(data.written.count());
  record->written_count.store(count, std::memory_order_relaxed);
  if (count < record->elements) {
    // Stores are still to come: they claim on a copy of the bits and
    // write through the payload base (taken now, under the lock, because
    // raw() may materialize an adopted alias).
    record->claimed = AtomicBitset(DynamicBitset(data.written));
    record->payload = data.buffer->raw();
  }
  record->written = AtomicBitset(std::move(data.written));
  record->writers = std::move(data.writers);
  data.writers.clear();
  data.published = record.release();
  // The record's fields are written above and released through the
  // directory slot; lock-free readers acquire through the same slot.
  check::release(data.published);
  directory_.install(age, data.published);
  return *data.published;
}

nd::ConstView FieldStorage::make_view(
    std::shared_ptr<const nd::AnyBuffer> buffer,
    const nd::Region& region) const {
  const nd::AnyBuffer& buf = *buffer;
  const size_t esz = nd::element_size(buf.type());
  std::vector<int64_t> dims(region.rank());
  for (size_t i = 0; i < region.rank(); ++i) {
    dims[i] = region.interval(i).length();
  }
  nd::Extents view_extents(std::move(dims));
  if (const auto span = region.contiguous_span(buf.extents())) {
    const std::byte* base =
        buf.raw() + static_cast<size_t>(span->offset) * esz;
    return nd::ConstView(buf.type(), std::move(view_extents), base,
                         std::move(buffer));
  }
  // Strided view: base at the region's first coordinate, strides of the
  // full buffer layout.
  const std::byte* base =
      buf.raw() +
      static_cast<size_t>(buf.extents().flatten(region.first())) * esz;
  return nd::ConstView(buf.type(), std::move(view_extents),
                       buf.extents().strides(), base, std::move(buffer));
}

std::optional<nd::ConstView> FieldStorage::try_fetch_view(
    Age age, const nd::Region& region) {
  {
    ReadSection section;
    if (Published* rec = directory_.find(age)) {
      check::acquire(rec);
      P2G_CHECK_INTERNAL(
          region.within(rec->extents),
          "fetch region outside extents of field " + decl_.name);
      return make_view(rec->buffer, region);
    }
  }
  // Slow path: first fetch of a sealed age publishes it.
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end() || !it->second.sealed) return std::nullopt;
  const Published& rec = publish(it->second, age);
  P2G_CHECK_INTERNAL(region.within(rec.extents),
                     "fetch region outside extents of field " + decl_.name);
  return make_view(rec.buffer, region);
}

std::optional<nd::ConstView> FieldStorage::try_fetch_view_whole(Age age) {
  {
    ReadSection section;
    if (Published* rec = directory_.find(age)) {
      check::acquire(rec);
      return make_view(rec->buffer, nd::Region::whole(rec->extents));
    }
  }
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end() || !it->second.sealed) return std::nullopt;
  const Published& rec = publish(it->second, age);
  return make_view(rec.buffer, nd::Region::whole(rec.extents));
}

StoreResult FieldStorage::store(Age age, const nd::Region& region,
                                const std::byte* data,
                                const StoreOrigin* origin) {
  P2G_CHECK_ARGUMENT(age >= 0, "field ages start at 0");
  P2G_CHECK_ARGUMENT(region.rank() == decl_.rank,
                     "store region rank mismatch on field " + decl_.name);
  {
    ReadSection section;
    if (Published* rec = directory_.find(age)) {
      return store_published(*rec, age, region, data, origin);
    }
  }
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  if (ad.sealed) {
    // First store after the seal: publish, then take the lock-free path
    // (the record stays valid while the lock is held).
    return store_published(publish(ad, age), age, region, data, origin);
  }
  check::write(ad.written, "FieldStorage.age_meta");

  StoreResult result;
  if (!region.within(ad.buffer->extents())) {
    grow(ad, ad.buffer->extents().max_with(region.required_extents()));
    result.resized = true;
  }

  // Write-once enforcement, then payload scatter.
  const nd::Extents& ext = ad.buffer->extents();
  if (const auto span = region.contiguous_span(ext)) {
    const auto begin = static_cast<size_t>(span->offset);
    const auto end = begin + static_cast<size_t>(span->length);
    if (ad.written.set_range(begin, end) !=
        static_cast<size_t>(span->length)) {
      throw_write_once(ad.writers, age, region, origin);
    }
  } else {
    region.for_each([&](const nd::Coord& coord) {
      const auto flat = static_cast<size_t>(ext.flatten(coord));
      if (!ad.written.set(flat)) {
        throw_write_once(ad.writers, age, nd::Region::point(coord), origin);
      }
    });
  }
  if (track_writers_) {
    ad.writers.push_back(
        Writer{region, origin != nullptr ? *origin : StoreOrigin{}});
  }
  ad.buffer->scatter(region, data);
  result.extents = ext;
  return result;
}

StoreResult FieldStorage::store_published(Published& rec, Age age,
                                          const nd::Region& region,
                                          const std::byte* data,
                                          const StoreOrigin* origin) {
  if (!region.within(rec.extents)) {
    throw_outside_seal(age, region, rec.extents);
  }
  // Provenance goes in before the claim: whoever loses a claim to this
  // store finds it listed.
  size_t writer_index = SIZE_MAX;
  if (track_writers_) {
    std::scoped_lock lock(rec.writers_mutex);
    writer_index = rec.writers.size();
    rec.writers.push_back(
        Writer{region, origin != nullptr ? *origin : StoreOrigin{}});
  }
  const auto violation = [&](const nd::Region& conflict) {
    std::vector<Writer> earlier;
    if (writer_index != SIZE_MAX) {
      std::scoped_lock lock(rec.writers_mutex);
      rec.writers[writer_index].failed = true;
      earlier = rec.writers;
    }
    throw_write_once(earlier, age, conflict, origin);
  };

  // Claim, copy, commit: one run for a contiguous region, one per row
  // otherwise. A conflict names the whole region (contiguous) or its first
  // already-written element, as on the locked path.
  int64_t committed = 0;
  if (const auto span = region.contiguous_span(rec.extents)) {
    const auto begin = static_cast<size_t>(span->offset);
    const auto length = static_cast<size_t>(span->length);
    if (rec.write_run(begin, length, data) != begin + length) {
      violation(region);
    }
    committed = span->length;
  } else {
    std::optional<nd::Coord> conflict;
    for_each_row(region, rec.extents,
                 [&](const nd::Coord& row, size_t begin, size_t n) {
                   const size_t first = rec.write_run(
                       begin, n,
                       data + static_cast<size_t>(committed) *
                                  rec.element_size);
                   if (first != begin + n) {
                     conflict = row;
                     conflict->back() += static_cast<int64_t>(first - begin);
                     return false;
                   }
                   committed += static_cast<int64_t>(n);
                   return true;
                 });
    if (conflict) {
      rec.written_count.fetch_add(committed, std::memory_order_release);
      violation(nd::Region::point(*conflict));
    }
  }
  rec.written_count.fetch_add(committed, std::memory_order_release);
  StoreResult result;
  result.extents = rec.extents;
  return result;
}

int64_t FieldStorage::store_fill(Age age, const nd::Region& region,
                                 const std::byte* data) {
  P2G_CHECK_ARGUMENT(age >= 0, "field ages start at 0");
  P2G_CHECK_ARGUMENT(region.rank() == decl_.rank,
                     "store region rank mismatch on field " + decl_.name);
  {
    ReadSection section;
    if (Published* rec = directory_.find(age)) {
      return store_fill_published(*rec, age, region, data);
    }
  }
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  if (ad.sealed) {
    return store_fill_published(publish(ad, age), age, region, data);
  }
  check::write(ad.written, "FieldStorage.age_meta");
  if (!region.within(ad.buffer->extents())) {
    grow(ad, ad.buffer->extents().max_with(region.required_extents()));
  }

  // Per-element: take the write-once bit first, copy only on fresh cells.
  // The payload is densely packed in the region's row-major order.
  const nd::Extents& ext = ad.buffer->extents();
  const size_t esz = nd::element_size(decl_.type);
  std::byte* base = ad.buffer->raw();
  int64_t fresh = 0;
  int64_t src = 0;
  region.for_each([&](const nd::Coord& coord) {
    const auto flat = static_cast<size_t>(ext.flatten(coord));
    if (ad.written.set(flat)) {
      std::memcpy(base + flat * esz,
                  data + static_cast<size_t>(src) * esz, esz);
      ++fresh;
    }
    ++src;
  });
  return fresh;
}

int64_t FieldStorage::store_fill_published(Published& rec, Age age,
                                           const nd::Region& region,
                                           const std::byte* data) {
  if (!region.within(rec.extents)) {
    throw_outside_seal(age, region, rec.extents);
  }
  // Per element: already-claimed cells are skipped instead of raising a
  // violation.
  int64_t fresh = 0;
  size_t src = 0;
  region.for_each([&](const nd::Coord& coord) {
    const auto flat = static_cast<size_t>(rec.extents.flatten(coord));
    if (rec.write_run(flat, 1, data + src * rec.element_size) == flat + 1) {
      ++fresh;
    }
    ++src;
  });
  if (fresh > 0) {
    rec.written_count.fetch_add(fresh, std::memory_order_release);
  }
  return fresh;
}

StoreResult FieldStorage::store_whole(Age age, const nd::AnyBuffer& data,
                                      const StoreOrigin* origin) {
  P2G_CHECK_ARGUMENT(data.type() == decl_.type,
                     "store_whole type mismatch on field " + decl_.name);
  P2G_CHECK_ARGUMENT(data.extents().rank() == decl_.rank,
                     "store_whole rank mismatch on field " + decl_.name);
  const nd::Region region = nd::Region::whole(data.extents());
  return store(age, region, data.raw(), origin);
}

void FieldStorage::seal(Age age, const nd::Extents& extents) {
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  check::write(ad.sealed, "FieldStorage.age_meta");
  if (ad.sealed) {
    // Idempotent as long as the extents agree.
    P2G_CHECK_INTERNAL(extents.fits_in(ad.sealed_extents),
                       "conflicting seal extents on field " + decl_.name);
    return;
  }
  // Data already written beyond the proposed seal widens it to the union.
  // The buffer itself is only grown when data is actually stored.
  ad.sealed_extents = ad.buffer->extents().max_with(extents);
  ad.sealed = true;
}

bool FieldStorage::is_sealed(Age age) const {
  {
    ReadSection section;
    if (directory_.find(age) != nullptr) return true;  // published => sealed
  }
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  check::read(ad->sealed, "FieldStorage.age_meta");
  return ad->sealed;
}

bool FieldStorage::is_complete(Age age) const {
  const auto complete = [](const Published& rec) {
    if (rec.written_count.load(std::memory_order_acquire) != rec.elements) {
      return false;
    }
    check::acquire(&rec);
    return true;
  };
  {
    ReadSection section;
    if (const Published* rec = directory_.find(age)) return complete(*rec);
  }
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  if (ad->published != nullptr) return complete(*ad->published);
  check::read(ad->written, "FieldStorage.age_meta");
  return ad->sealed && static_cast<int64_t>(ad->written.count()) ==
                           ad->sealed_extents.element_count();
}

bool FieldStorage::region_written_published(const Published& rec,
                                            const nd::Region& region) const {
  if (!region.within(rec.extents)) return false;
  bool all = true;
  if (const auto span = region.contiguous_span(rec.extents)) {
    all = rec.written.all_in_range(
        static_cast<size_t>(span->offset),
        static_cast<size_t>(span->offset + span->length),
        std::memory_order_acquire);
  } else {
    for_each_row(region, rec.extents,
                 [&](const nd::Coord&, size_t begin, size_t n) {
                   all = rec.written.all_in_range(begin, begin + n,
                                                  std::memory_order_acquire);
                   return all;
                 });
  }
  if (all) check::acquire(&rec);
  return all;
}

bool FieldStorage::region_written(Age age, const nd::Region& region) const {
  {
    ReadSection section;
    if (const Published* rec = directory_.find(age)) {
      return region_written_published(*rec, region);
    }
  }
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  if (ad->published != nullptr) {
    return region_written_published(*ad->published, region);
  }
  check::read(ad->written, "FieldStorage.age_meta");
  const nd::Extents& ext = ad->buffer->extents();
  if (!region.within(ext)) return false;
  if (const auto span = region.contiguous_span(ext)) {
    return ad->written.all_in_range(
        static_cast<size_t>(span->offset),
        static_cast<size_t>(span->offset + span->length));
  }
  bool all = true;
  region.for_each([&](const nd::Coord& coord) {
    if (!all) return;
    if (!ad->written.test(static_cast<size_t>(ext.flatten(coord)))) {
      all = false;
    }
  });
  return all;
}

nd::Extents FieldStorage::extents(Age age) const {
  {
    ReadSection section;
    if (const Published* rec = directory_.find(age)) return rec->extents;
  }
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) {
    return nd::Extents(std::vector<int64_t>(decl_.rank, 0));
  }
  return ad->current_extents();
}

nd::AnyBuffer FieldStorage::fetch(Age age, const nd::Region& region) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  P2G_CHECK_INTERNAL(ad != nullptr,
                     "fetch from untouched age of field " + decl_.name);
  P2G_CHECK_INTERNAL(region.within(ad->buffer->extents()),
                     "fetch region outside extents of field " + decl_.name);

  std::vector<int64_t> dims(region.rank());
  for (size_t i = 0; i < region.rank(); ++i) {
    dims[i] = region.interval(i).length();
  }
  nd::AnyBuffer out(decl_.type, nd::Extents(std::move(dims)));
  ad->buffer->gather(region, out.raw());
  return out;
}

nd::AnyBuffer FieldStorage::fetch_whole(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  P2G_CHECK_INTERNAL(ad != nullptr,
                     "fetch from untouched age of field " + decl_.name);
  const nd::Region region = nd::Region::whole(ad->current_extents());
  P2G_CHECK_INTERNAL(region.within(ad->buffer->extents()),
                     "fetch region outside extents of field " + decl_.name);
  nd::AnyBuffer out(decl_.type, region.required_extents());
  ad->buffer->gather(region, out.raw());
  return out;
}

int64_t FieldStorage::written_count(Age age) const {
  {
    ReadSection section;
    if (const Published* rec = directory_.find(age)) {
      return rec->written_count.load(std::memory_order_acquire);
    }
  }
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return 0;
  if (ad->published != nullptr) {
    return ad->published->written_count.load(std::memory_order_acquire);
  }
  return static_cast<int64_t>(ad->written.count());
}

void FieldStorage::release_age(Age age) {
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end()) return;
  if (Published* rec = it->second.published) {
    // Unlink, wait out every reader that may have found the record, then
    // free it. Outstanding views keep the payload itself alive.
    directory_.clear(age);
    wait_for_readers();
    check::reset_range(rec, sizeof(Published));
    delete rec;
  }
  // The age's metadata address may be recycled by a future age: forget it.
  check::reset_range(&it->second, sizeof(AgeData));
  ages_.erase(it);
}

std::vector<Age> FieldStorage::live_ages() const {
  std::shared_lock lock(mutex_);
  std::vector<Age> out;
  out.reserve(ages_.size());
  for (const auto& [age, data] : ages_) out.push_back(age);
  return out;
}

size_t FieldStorage::memory_bytes() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [age, data] : ages_) {
    total += static_cast<size_t>(data.buffer->element_count()) *
             nd::element_size(data.buffer->type());
  }
  return total;
}

void FieldStorage::set_buffer_factory(BufferFactory factory) {
  std::unique_lock lock(mutex_);
  P2G_CHECK_INTERNAL(ages_.empty(),
                     "buffer factory installed after ages exist on field " +
                         decl_.name);
  buffer_factory_ = std::move(factory);
}

std::optional<FieldStorage::RawBlock> FieldStorage::peek_block(
    Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return std::nullopt;
  RawBlock block;
  block.base = std::as_const(*ad->buffer).raw();
  block.extents = ad->buffer->extents();
  return block;
}

bool FieldStorage::adopt_whole(Age age, const nd::ConstView& view) {
  if (view.type() != decl_.type || view.extents().rank() != decl_.rank ||
      !view.is_contiguous()) {
    return false;
  }
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  // Only a pristine age can alias foreign pages: once anything was written
  // (or the buffer published), the write-once bitmap refers to the current
  // allocation. Sealed ages additionally pin the final extents.
  if (ad.published != nullptr || ad.written.count() > 0) return false;
  if (ad.sealed && !(view.extents() == ad.sealed_extents)) return false;
  ad.buffer = std::make_shared<nd::AnyBuffer>(nd::AnyBuffer::alias(
      view.type(), view.extents(), view.raw(), view.keepalive()));
  const auto count = static_cast<size_t>(view.extents().element_count());
  ad.written = DynamicBitset(count);
  ad.written.set_range(0, count);
  return true;
}

}  // namespace p2g
