// Same-host shared-memory data plane.
//
// Control messages always flow over the socket transport; *data* (the
// payload bytes of cross-partition stores) can take a faster lane between
// processes on the same host. Each node owns one mmap'd arena (a memfd
// created by the process launcher before fork, inherited by fd number
// across exec), and every directed node pair shares one SPSC ring of
// fixed-size descriptor slots. A store travels as {arena offset, byte
// count} instead of serialized payload bytes: the receiver maps the
// sender's arena and builds an nd::ConstView directly over the mapped
// pages, so on the fast lane *zero* payload bytes are copied on either
// side.
//
// Lifetime rules that make the aliasing safe:
//  - Arena allocation is bump-only: a block handed out is never reused or
//    moved, so an offset stays valid for the mapping's lifetime.
//  - Field payloads are write-once: the bytes behind a published offset
//    never change after the descriptor is pushed.
//  - Views carry the arena mapping as their keepalive, so the pages stay
//    mapped while any view is alive even after the plane shuts down.
//
// The ring is deliberately usable over plain heap memory too (no fd or
// mmap dependency): the p2gcheck suites drive the same push/pop code
// under the schedule-exploring race checker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/exec_node.h"
#include "net/transport.h"

namespace p2g::net {

/// One mmap'd bump-allocation arena backed by a memfd. Created by the
/// process launcher (one per node), attached by the owning node (which
/// allocates) and by every peer (which only reads). The bump cursor lives
/// inside the mapping, but only the owning node allocates, so it is
/// effectively process-local.
class ShmArena {
 public:
  /// Creates a memfd of `bytes` and maps it. The fd is intentionally NOT
  /// close-on-exec: node processes inherit it by number through exec.
  static std::shared_ptr<ShmArena> create(size_t bytes);

  /// Maps an inherited arena fd.
  static std::shared_ptr<ShmArena> attach(int fd, size_t bytes);

  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  /// Bump-allocates `bytes` (64-byte aligned). Returns nullptr when the
  /// arena is exhausted — callers fall back to heap buffers / the socket
  /// path. Blocks are never freed or reused.
  std::byte* alloc(size_t bytes);

  int fd() const { return fd_; }
  size_t capacity() const { return bytes_; }

  /// True when [p, p+n) lies inside this arena's data range.
  bool contains(const std::byte* p, size_t n) const;

  /// Offset of an in-arena pointer from the mapping base (stable across
  /// processes mapping the same memfd).
  uint64_t offset_of(const std::byte* p) const;

  /// Pointer at a peer-provided offset.
  const std::byte* at(uint64_t offset) const;

 private:
  struct Header {
    std::atomic<uint64_t> cursor;  ///< next free offset (starts past header)
  };
  static constexpr size_t kDataStart = 64;

  ShmArena() = default;
  Header* header() const { return reinterpret_cast<Header*>(map_); }

  int fd_ = -1;
  std::byte* map_ = nullptr;
  size_t bytes_ = 0;
  bool owns_fd_ = false;
};

/// Fixed-size store descriptor travelling through a ring. Plain POD — it
/// is copied byte-wise through shared memory.
struct ShmSlot {
  int32_t field = -1;
  int64_t age = 0;
  int32_t producer = -1;
  uint32_t store_decl = 0;
  uint8_t whole = 0;
  uint8_t type = 0;  ///< nd::ElementType of the payload
  uint8_t rank = 0;
  int64_t lo[4] = {0, 0, 0, 0};  ///< region interval begins
  int64_t hi[4] = {0, 0, 0, 0};  ///< region interval ends (exclusive)
  uint64_t offset = 0;           ///< payload offset in the sender's arena
  uint64_t bytes = 0;            ///< densely packed payload size
};

/// Single-producer single-consumer ring of ShmSlots over caller-provided
/// memory (an mmap'd memfd between processes, plain heap in tests). The
/// memory must be zero-initialized — all-zero is the valid empty state, so
/// producer and consumer can attach in either order with no handshake.
///
/// head is only advanced by the consumer, tail only by the producer; both
/// are monotonically increasing sequence numbers (slot index = seq %
/// slot_count). The release-store/acquire-load pairs on tail (publish) and
/// head (recycle) are described to the race checker via check::release /
/// check::acquire, and slot bodies via check::write_range / read_range —
/// p2gcheck explores the interleavings and proves the protocol race-free.
class ShmRing {
 public:
  /// Bytes of backing memory needed for `slot_count` slots.
  static size_t bytes_required(uint32_t slot_count);

  ShmRing() = default;
  ShmRing(void* mem, uint32_t slot_count);

  bool valid() const { return hdr_ != nullptr; }

  /// Producer side: publishes one slot. False when the ring is full.
  bool push(const ShmSlot& slot);

  enum class Pop { kGot, kEmpty, kClosed };

  /// Consumer side: takes the next slot. kEmpty = nothing now but the
  /// producer may still push; kClosed = drained and the producer closed.
  Pop pop(ShmSlot* out);

  /// Producer side: no more pushes will follow. The consumer drains what
  /// is buffered, then sees kClosed.
  void close();

  bool closed() const;

 private:
  struct Header {
    std::atomic<uint32_t> head;    ///< consumer cursor
    std::atomic<uint32_t> tail;    ///< producer cursor
    std::atomic<uint32_t> closed;
  };

  Header* hdr_ = nullptr;
  ShmSlot* slots_ = nullptr;
  uint32_t n_ = 0;
};

/// The per-node data plane: owns this node's arena, maps every peer's
/// arena, and runs one tx ring + one rx ring per peer. Implements the
/// ExecutionNode's StoreForwarder hook — when forward() accepts a store,
/// the socket path is skipped for that target.
class ShmDataPlane : public dist::StoreForwarder {
 public:
  static constexpr uint32_t kDefaultRingSlots = 1024;

  explicit ShmDataPlane(std::shared_ptr<ShmArena> own_arena);
  ~ShmDataPlane() override;

  /// Wires one peer: its arena (for rx aliasing) plus the two ring fds.
  /// `ring_slots` must match what the launcher sized the ring memfds
  /// with. Call before attach().
  void add_peer(const std::string& name, std::shared_ptr<ShmArena> peer_arena,
                int tx_ring_fd, int rx_ring_fd, uint32_t ring_slots);

  /// Installs this plane on a node: registers as its StoreForwarder, puts
  /// arena-backed buffer factories on every field the node forwards (so
  /// outgoing payloads are born in the arena), and starts the rx poller.
  void attach(dist::ExecutionNode& node);

  /// Producer-side shutdown: closes every tx ring. Call after the node's
  /// runtime has drained (no more stores will be forwarded).
  void close_tx();

  /// Blocks until every peer closed its tx ring and the poller drained
  /// them (or `force` was requested via stop()).
  void join();

  /// Forces the poller to exit (peer crash — its ring will never close).
  void stop();

  const std::shared_ptr<ShmArena>& arena() const { return arena_; }

  // --- StoreForwarder -------------------------------------------------------
  bool forward(const StoreEvent& event, const std::string& target) override;
  /// `shm_tx_frames_total`, `shm_tx_copied_bytes_total`,
  /// `shm_rx_frames_total` and `shm_rx_adopted_total` (each once nonzero).
  void add_metrics(obs::MetricsSnapshot& into) const override;

 private:
  struct PeerLink {
    std::shared_ptr<ShmArena> arena;  ///< the peer's arena, mapped here
    void* tx_mem = nullptr;
    void* rx_mem = nullptr;
    size_t ring_bytes = 0;
    ShmRing tx;
    ShmRing rx;
  };

  void poll_loop();
  void deliver(const std::string& peer, const PeerLink& link,
               const ShmSlot& slot);

  std::shared_ptr<ShmArena> arena_;
  std::map<std::string, std::unique_ptr<PeerLink>> peers_;
  dist::ExecutionNode* node_ = nullptr;
  std::thread poller_;
  std::atomic<bool> stop_{false};
  // Frame counters: tx from the node's workers, rx from the poller.
  std::atomic<int64_t> tx_frames_{0};
  std::atomic<int64_t> tx_copied_bytes_{0};
  std::atomic<int64_t> rx_frames_{0};
  std::atomic<int64_t> rx_adopted_{0};
};

}  // namespace p2g::net
