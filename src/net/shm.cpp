#include "net/shm.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "check/sync.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "nd/buffer.h"
#include "nd/region.h"
#include "nd/view.h"

namespace p2g::net {

// --- ShmArena ---------------------------------------------------------------

std::shared_ptr<ShmArena> ShmArena::create(size_t bytes) {
  P2G_CHECK_ARGUMENT(bytes > kDataStart, "arena too small");
  // No MFD_CLOEXEC: the fd is inherited by number through fork+exec.
  const int fd = static_cast<int>(::memfd_create("p2g-arena", 0));
  P2G_CHECK_INTERNAL(fd >= 0, "memfd_create failed");
  P2G_CHECK_INTERNAL(::ftruncate(fd, static_cast<off_t>(bytes)) == 0,
                     "ftruncate failed");
  auto arena = attach(fd, bytes);
  arena->owns_fd_ = true;
  arena->header()->cursor.store(kDataStart, std::memory_order_relaxed);
  return arena;
}

std::shared_ptr<ShmArena> ShmArena::attach(int fd, size_t bytes) {
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  P2G_CHECK_INTERNAL(map != MAP_FAILED, "mmap of arena failed");
  auto arena = std::shared_ptr<ShmArena>(new ShmArena());
  arena->fd_ = fd;
  arena->map_ = static_cast<std::byte*>(map);
  arena->bytes_ = bytes;
  return arena;
}

ShmArena::~ShmArena() {
  if (map_ != nullptr) ::munmap(map_, bytes_);
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

std::byte* ShmArena::alloc(size_t bytes) {
  const size_t aligned = (bytes + 63) & ~size_t{63};
  uint64_t off = header()->cursor.load(std::memory_order_relaxed);
  while (true) {
    if (off + aligned > bytes_) return nullptr;  // exhausted: no cursor burn
    if (header()->cursor.compare_exchange_weak(off, off + aligned,
                                               std::memory_order_relaxed)) {
      return map_ + off;
    }
  }
}

bool ShmArena::contains(const std::byte* p, size_t n) const {
  return p >= map_ + kDataStart && p + n <= map_ + bytes_;
}

uint64_t ShmArena::offset_of(const std::byte* p) const {
  return static_cast<uint64_t>(p - map_);
}

const std::byte* ShmArena::at(uint64_t offset) const { return map_ + offset; }

// --- ShmRing ----------------------------------------------------------------

size_t ShmRing::bytes_required(uint32_t slot_count) {
  return sizeof(Header) + static_cast<size_t>(slot_count) * sizeof(ShmSlot);
}

ShmRing::ShmRing(void* mem, uint32_t slot_count)
    : hdr_(static_cast<Header*>(mem)),
      slots_(reinterpret_cast<ShmSlot*>(static_cast<std::byte*>(mem) +
                                        sizeof(Header))),
      n_(slot_count) {}

bool ShmRing::push(const ShmSlot& slot) {
  // tail is producer-private (we are the only writer); a relaxed load of
  // our own cursor is exact. head advances only on the consumer side: the
  // acquire pairs with its release in pop() so a recycled slot's bytes are
  // visible before we overwrite them.
  const uint32_t tail = hdr_->tail.load(std::memory_order_relaxed);
  const uint32_t head = hdr_->head.load(std::memory_order_acquire);
  check::acquire(&hdr_->head);
  if (tail - head >= n_) return false;  // full
  ShmSlot* s = &slots_[tail % n_];
  check::write_range(s, sizeof(ShmSlot), "ShmRing.slot");
  *s = slot;
  check::release(&hdr_->tail);
  hdr_->tail.store(tail + 1, std::memory_order_release);
  return true;
}

ShmRing::Pop ShmRing::pop(ShmSlot* out) {
  const uint32_t head = hdr_->head.load(std::memory_order_relaxed);
  const uint32_t tail = hdr_->tail.load(std::memory_order_acquire);
  check::acquire(&hdr_->tail);
  if (head == tail) {
    // Empty. Closed is checked *after* the emptiness check so every slot
    // pushed before close() is drained first.
    if (hdr_->closed.load(std::memory_order_acquire) != 0) return Pop::kClosed;
    return Pop::kEmpty;
  }
  const ShmSlot* s = &slots_[head % n_];
  check::read_range(s, sizeof(ShmSlot), "ShmRing.slot");
  *out = *s;
  check::release(&hdr_->head);
  hdr_->head.store(head + 1, std::memory_order_release);
  return Pop::kGot;
}

void ShmRing::close() { hdr_->closed.store(1, std::memory_order_release); }

bool ShmRing::closed() const {
  return hdr_->closed.load(std::memory_order_acquire) != 0;
}

// --- ShmDataPlane -----------------------------------------------------------

ShmDataPlane::ShmDataPlane(std::shared_ptr<ShmArena> own_arena)
    : arena_(std::move(own_arena)) {}

ShmDataPlane::~ShmDataPlane() {
  stop();
  join();
  for (auto& [name, link] : peers_) {
    if (link->tx_mem != nullptr) ::munmap(link->tx_mem, link->ring_bytes);
    if (link->rx_mem != nullptr) ::munmap(link->rx_mem, link->ring_bytes);
  }
}

void ShmDataPlane::add_peer(const std::string& name,
                            std::shared_ptr<ShmArena> peer_arena,
                            int tx_ring_fd, int rx_ring_fd,
                            uint32_t ring_slots) {
  P2G_CHECK_ARGUMENT(!poller_.joinable(), "add_peer after attach");
  auto link = std::make_unique<PeerLink>();
  link->arena = std::move(peer_arena);
  link->ring_bytes = ShmRing::bytes_required(ring_slots);
  link->tx_mem = ::mmap(nullptr, link->ring_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, tx_ring_fd, 0);
  P2G_CHECK_INTERNAL(link->tx_mem != MAP_FAILED, "mmap of tx ring failed");
  link->rx_mem = ::mmap(nullptr, link->ring_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, rx_ring_fd, 0);
  P2G_CHECK_INTERNAL(link->rx_mem != MAP_FAILED, "mmap of rx ring failed");
  link->tx = ShmRing(link->tx_mem, ring_slots);
  link->rx = ShmRing(link->rx_mem, ring_slots);
  peers_.emplace(name, std::move(link));
}

void ShmDataPlane::attach(dist::ExecutionNode& node) {
  P2G_CHECK_ARGUMENT(node_ == nullptr, "plane already attached");
  node_ = &node;
  metrics_ = node.runtime().mutable_metrics();
  // Outgoing payloads are born in the arena: every field this node's
  // kernels produce for remote consumers gets an arena-backed buffer
  // factory, so a whole-store's bytes already sit at a shippable offset.
  const auto arena = arena_;
  for (const FieldId field : node.forwarded_fields()) {
    node.runtime().storage(field).set_buffer_factory(
        [arena](nd::ElementType type, const nd::Extents& extents) {
          return nd::AnyBuffer::with_allocator(
              type, extents, [arena](size_t n) { return arena->alloc(n); });
        });
  }
  node.set_store_forwarder(this);
  poller_ = std::thread([this] { poll_loop(); });
}

void ShmDataPlane::close_tx() {
  for (auto& [name, link] : peers_) {
    if (link->tx.valid()) link->tx.close();
  }
}

void ShmDataPlane::join() {
  if (poller_.joinable()) poller_.join();
}

void ShmDataPlane::stop() { stop_.store(true, std::memory_order_relaxed); }

bool ShmDataPlane::forward(const StoreEvent& event, const std::string& target) {
  const auto it = peers_.find(target);
  if (it == peers_.end()) return false;
  PeerLink& link = *it->second;
  if (!link.tx.valid() || link.tx.closed()) return false;

  FieldStorage& storage = node_->runtime().storage(event.field);
  const nd::ElementType type = storage.decl().type;
  const size_t esz = nd::element_size(type);
  const size_t rank = event.region.rank();
  if (rank > 4) return false;  // descriptor carries at most 4 dimensions

  ShmSlot slot;
  slot.field = event.field;
  slot.age = event.age;
  slot.producer = event.producer;
  slot.store_decl = static_cast<uint32_t>(event.store_decl);
  slot.whole = event.whole ? 1 : 0;
  slot.type = static_cast<uint8_t>(type);
  slot.rank = static_cast<uint8_t>(rank);
  for (size_t d = 0; d < rank; ++d) {
    slot.lo[d] = event.region.interval(d).begin;
    slot.hi[d] = event.region.interval(d).end;
  }
  const int64_t elems = event.region.element_count();
  slot.bytes = static_cast<uint64_t>(elems) * esz;

  // Fast lane: the payload already lives in our arena (the buffer factory
  // put it there) and the region is one contiguous span of it — ship the
  // offset, copy nothing. Safe because bump arenas never reuse or move a
  // block and write-once semantics freeze published bytes.
  bool zero_copy = false;
  if (event.whole) {
    if (const auto block = storage.peek_block(event.age)) {
      if (const auto span = event.region.contiguous_span(block->extents);
          span && span->length == elems) {
        const std::byte* p = block->base + span->offset * esz;
        if (arena_->contains(p, slot.bytes)) {
          slot.offset = arena_->offset_of(p);
          zero_copy = true;
        }
      }
    }
  }
  if (!zero_copy) {
    std::byte* dst = arena_->alloc(slot.bytes);
    if (dst == nullptr) return false;  // arena exhausted: socket path
    const nd::AnyBuffer packed = storage.fetch(event.age, event.region);
    std::memcpy(dst, packed.raw(), slot.bytes);
    slot.offset = arena_->offset_of(dst);
    if (metrics_ != nullptr) {
      metrics_->counter("shm_tx_copied_bytes_total")
          .add(static_cast<int64_t>(slot.bytes));
    }
  }

  // The ring is sized for the steady state; a full ring means the consumer
  // is momentarily behind, so spin briefly before falling back to sockets.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    if (link.tx.push(slot)) {
      if (metrics_ != nullptr) metrics_->counter("shm_tx_frames_total").add(1);
      return true;
    }
    std::this_thread::yield();
  }
  return false;
}

void ShmDataPlane::poll_loop() {
  while (true) {
    bool any = false;
    bool all_closed = true;
    for (auto& [name, link] : peers_) {
      if (!link->rx.valid()) continue;
      ShmSlot slot;
      ShmRing::Pop result;
      while ((result = link->rx.pop(&slot)) == ShmRing::Pop::kGot) {
        deliver(name, *link, slot);
        any = true;
      }
      if (result != ShmRing::Pop::kClosed) all_closed = false;
    }
    if (all_closed) return;
    if (stop_.load(std::memory_order_relaxed)) return;
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ShmDataPlane::deliver(const std::string& peer, const PeerLink& link,
                           const ShmSlot& slot) {
  try {
    std::vector<int64_t> dims(slot.rank);
    std::vector<nd::Interval> intervals(slot.rank);
    for (size_t d = 0; d < slot.rank; ++d) {
      intervals[d] = nd::Interval{slot.lo[d], slot.hi[d]};
      dims[d] = slot.hi[d] - slot.lo[d];
    }
    const nd::Region region{intervals};
    const nd::Extents extents{std::move(dims)};
    // The view aliases the peer's mapped arena; the aliasing shared_ptr
    // keeps the whole mapping alive as long as any view (or adopted
    // buffer) still references it.
    const std::shared_ptr<const void> keepalive(link.arena,
                                                link.arena->at(0));
    const nd::ConstView view(static_cast<nd::ElementType>(slot.type), extents,
                             link.arena->at(slot.offset), keepalive);
    bool adopted = false;
    node_->apply_plane_store(slot.field, slot.age, region, slot.producer,
                             slot.store_decl, slot.whole != 0, view, &adopted);
    if (metrics_ != nullptr) {
      metrics_->counter("shm_rx_frames_total").add(1);
      if (adopted) metrics_->counter("shm_rx_adopted_total").add(1);
    }
  } catch (const Error& e) {
    P2G_WARNC("net") << "shm plane dropping slot from '" << peer
                     << "': " << e.what();
  }
}

}  // namespace p2g::net
