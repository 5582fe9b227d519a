// Built-in check suites: concurrency scenarios over the converted
// core/dist/ft subsystems, plus seeded-bug fixture suites that prove the
// checker actually finds races (C001), lock cycles (C002), and lost
// wakeups (C003).
//
// Suite bodies run once per explored schedule (hundreds of times in a
// sweep), so every scenario is deliberately small: a handful of threads, a
// handful of operations. Shared state is heap-allocated and captured by
// shared_ptr — spawn() only registers the threads; the body callback's
// stack is gone by the time run() schedules them.
#include "check/registry.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "check/sync.h"
#include "common/blocking_queue.h"
#include "common/mpsc_queue.h"
#include "core/field.h"
#include "core/flight_recorder.h"
#include "core/ready_queue.h"
#include "dist/bus.h"
#include "ft/reliable.h"
#include "net/shm.h"

namespace p2g::check {

namespace {

void suite_blocking_queue(CheckSession& session) {
  auto queue = std::make_shared<BlockingQueue<int>>();
  session.spawn("producer", [queue] {
    queue->push(1);
    queue->push(2);
    queue->push(3);
  });
  session.spawn("consumer", [queue] {
    std::deque<int> batch;
    while (queue->pop_all(batch)) {
    }
  });
  session.spawn("closer", [queue] { queue->close(); });
}

void suite_ready_queue(CheckSession& session) {
  auto queue = std::make_shared<ReadyQueue>();
  session.spawn("analyzer", [queue] {
    std::vector<WorkItem> batch(2);
    batch[0].age = 2;
    batch[1].age = 1;
    queue->push_batch(std::move(batch));
    WorkItem extra;
    extra.age = 0;
    queue->push(std::move(extra));
  });
  session.spawn("worker-a", [queue] {
    while (queue->pop().has_value()) {
    }
  });
  session.spawn("worker-b", [queue] {
    std::optional<WorkItem> bonus;
    while (queue->pop(bonus).has_value()) {
      bonus.reset();
    }
  });
  session.spawn("closer", [queue] { queue->close(); });
}

void suite_mpsc_queue(CheckSession& session) {
  // The analyzer shards' event queue: lock-free multi-producer push racing
  // a parked pop_all consumer and shutdown. Verifies the Vyukov publish
  // protocol (release before exchange, acquire before reading payloads)
  // and the seq_cst sleeping_ Dekker against lost wakeups.
  auto queue = std::make_shared<MpscQueue<int>>();
  session.spawn("producer-a", [queue] {
    queue->push(1);
    queue->push(2);
  });
  session.spawn("producer-b", [queue] { queue->push(3); });
  session.spawn("consumer", [queue] {
    std::deque<int> batch;
    while (queue->pop_all(batch)) {
    }
  });
  session.spawn("closer", [queue] { queue->close(); });
}

void suite_shard_cross_handoff(CheckSession& session) {
  // The N=2 analyzer-shard topology: each shard consumes its own queue and
  // produces into the peer's. Shard 0 announces a seal (ScanConsumersEvent
  // analogue); shard 1 reacts with a request back to shard 0
  // (SealCheckEvent analogue) — the exact message pattern the sharded
  // dependency analyzer uses instead of shared locks.
  struct Shared {
    MpscQueue<int> q0;
    MpscQueue<int> q1;
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("shard-0", [shared] {
    shared->q1.push(7);  // cross-shard notify
    std::deque<int> batch;
    while (shared->q0.pop_all(batch)) {
    }
  });
  session.spawn("shard-1", [shared] {
    std::deque<int> batch;
    if (shared->q1.pop_all(batch)) {
      shared->q0.push(batch.front() + 1);  // cross-shard reply
    }
    while (shared->q1.pop_all(batch)) {
    }
  });
  session.spawn("closer", [shared] {
    shared->q0.close();
    shared->q1.close();
  });
}

void suite_field_seal_publish(CheckSession& session) {
  FieldDecl decl;
  decl.id = 0;
  decl.name = "f";
  decl.type = nd::ElementType::kInt64;  // one checker cell per element
  decl.rank = 1;
  auto field = std::make_shared<FieldStorage>(decl);
  // Sealed before any store: whichever writer stores first publishes the
  // age into the directory, and both then take the lock-free
  // claim/copy/commit path (or the locked publish path, if they lose the
  // race to the directory).
  field->seal(0, nd::Extents({2}));
  for (int64_t element = 0; element < 2; ++element) {
    session.spawn(element == 0 ? "writer-0" : "writer-1", [field, element] {
      const int64_t v = 7 + element;
      field->store(0, nd::Region::point({element}),
                   reinterpret_cast<const std::byte*>(&v));
    });
  }
  // Age 1 is stored before it seals, so the store takes the locked path
  // and the age is published by its first fetch instead — the path of
  // whole-store producers (stream frames, MJPEG planes), raced against a
  // reader spinning on the lock-free directory lookup.
  session.spawn("sealer", [field] {
    const int64_t v = 9;
    field->store(1, nd::Region::point({0}),
                 reinterpret_cast<const std::byte*>(&v));
    field->seal(1, nd::Extents({1}));
  });
  session.spawn("viewer", [field] {
    for (int i = 0; i < 32; ++i) {
      if (const auto view = field->try_fetch_view_whole(1)) {
        check::read_range(view->raw(), sizeof(int64_t),
                          "FieldStorage.payload");
        break;
      }
    }
  });
  session.spawn("reader", [field] {
    // Reads only what the commit says is there. Bounded so schedules
    // where the writers never get ahead still terminate.
    for (int i = 0; i < 16; ++i) {
      if (field->region_written(0, nd::Region::point({0}))) {
        const auto view = field->try_fetch_view(0, nd::Region::point({0}));
        check::read_range(view->raw(), sizeof(int64_t),
                          "FieldStorage.payload");
        break;
      }
    }
    if (field->is_complete(0)) {
      const auto view = field->try_fetch_view_whole(0);
      check::read_range(view->raw(), 2 * sizeof(int64_t),
                        "FieldStorage.payload");
    }
  });
}

void suite_bus_shutdown(CheckSession& session) {
  auto bus = std::make_shared<dist::MessageBus>();
  auto inbox = bus->register_endpoint("b");
  bus->register_endpoint("a");
  session.spawn("sender", [bus] {
    for (int i = 0; i < 3; ++i) {
      dist::Message msg;
      msg.type = dist::MessageType::kData;
      msg.from = "a";
      bus->send("b", std::move(msg));
    }
  });
  session.spawn("receiver", [inbox] {
    while (inbox->pop().has_value()) {
    }
  });
  session.spawn("closer", [bus] { bus->close_all(); });
}

void suite_reliable_stop(CheckSession& session) {
  auto bus = std::make_shared<dist::MessageBus>();
  bus->register_endpoint("peer");
  bus->register_endpoint("self");
  // The channel lives inside one participant: its constructor spawns the
  // retransmit thread as a schedulable participant, and stop() races the
  // retransmitter's timed-wait loop (virtual time) against shutdown.
  session.spawn("owner", [bus] {
    ft::ReliableChannel channel(*bus, "self");
    channel.send("peer", dist::MessageType::kData, {1, 2, 3});
    channel.stop();
  });
}

void suite_flight_recorder(CheckSession& session) {
  auto recorder = std::make_shared<FlightRecorder>();
  session.spawn("writer", [recorder] {
    for (int i = 0; i < 4; ++i) {
      recorder->record("event", SpanKind::kOther, i, 1, 0, TraceContext{},
                       static_cast<uint64_t>(i + 1));
    }
  });
  session.spawn("reader", [recorder] {
    (void)recorder->snapshot();
    (void)recorder->recorded();
  });
}

void suite_shm_ring(CheckSession& session) {
  // The shared-memory data plane's SPSC ring (net::ShmRing) exactly as the
  // two processes use it: both sides construct their own wrapper over the
  // same (here: heap-backed) zero-initialized pages, the producer pushes
  // through wrap-around and a full window, then closes; the consumer
  // drains until kClosed. The ring is annotated internally
  // (acquire/release on head/tail, write_range/read_range on the slot), so
  // the sweep proves the publish protocol: slot payload written before the
  // tail release, never reread after the head release. Loops are bounded —
  // the ring is non-blocking and the explorer guarantees no fairness.
  struct Shared {
    std::vector<uint8_t> mem;
    Shared() : mem(net::ShmRing::bytes_required(2), 0) {}
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("producer", [shared] {
    net::ShmRing tx(shared->mem.data(), 2);
    net::ShmSlot slot{};
    for (int i = 0; i < 3; ++i) {  // 3 slots through a 2-slot ring: wraps
      slot.age = i;
      for (int spin = 0; spin < 16 && !tx.push(slot); ++spin) {
      }
    }
    tx.close();
  });
  session.spawn("consumer", [shared] {
    net::ShmRing rx(shared->mem.data(), 2);
    net::ShmSlot slot{};
    for (int spin = 0; spin < 64; ++spin) {
      const net::ShmRing::Pop got = rx.pop(&slot);
      if (got == net::ShmRing::Pop::kClosed) break;
      if (got == net::ShmRing::Pop::kGot) (void)slot.age;
    }
  });
}

// --- fixture suites: seeded bugs the checker must find -----------------------

void suite_known_race(CheckSession& session) {
  struct Shared {
    int64_t counter = 0;
  };
  auto shared = std::make_shared<Shared>();
  const auto bump = [shared] {
    check::write(shared->counter, "demo.counter");
    shared->counter += 1;
  };
  session.spawn("incr-a", bump);
  session.spawn("incr-b", bump);
}

void suite_broken_mpsc(CheckSession& session) {
  // Bug under test: a deliberately broken cross-shard handoff that
  // publishes the out-of-band payload *after* the queue push, so the
  // consumer can read it before (or concurrently with) the write — the
  // mistake the real protocol avoids by completing every payload write
  // before the publishing exchange.
  struct Shared {
    MpscQueue<int> queue;
    int64_t payload = 0;
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("producer", [shared] {
    shared->queue.push(1);
    check::write(shared->payload, "demo.broken_mpsc.payload");
    shared->payload = 42;
  });
  session.spawn("consumer", [shared] {
    std::deque<int> batch;
    if (shared->queue.pop_all(batch)) {
      check::read(shared->payload, "demo.broken_mpsc.payload");
      (void)shared->payload;
    }
  });
  session.spawn("closer", [shared] { shared->queue.close(); });
}

void suite_broken_ring(CheckSession& session) {
  // Bug under test: an SPSC ring whose producer publishes the new tail
  // BEFORE writing the slot payload — the inverse of ShmRing::push's
  // protocol. The consumer acquires the tail, sees the ring non-empty, and
  // reads a slot the producer is still writing.
  struct Shared {
    std::atomic<uint32_t> tail{0};
    std::atomic<uint32_t> head{0};
    int64_t slot = 0;
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("producer", [shared] {
    check::release(&shared->tail);
    shared->tail.store(1, std::memory_order_release);  // published too early
    check::write(shared->slot, "demo.broken_ring.slot");
    shared->slot = 42;
  });
  session.spawn("consumer", [shared] {
    if (shared->tail.load(std::memory_order_acquire) !=
        shared->head.load(std::memory_order_relaxed)) {
      check::acquire(&shared->tail);
      check::read(shared->slot, "demo.broken_ring.slot");
      (void)shared->slot;
    }
  });
}

void suite_broken_publish(CheckSession& session) {
  // Bug under test: a published-age store that commits its written bit
  // BEFORE copying the payload — the inverse of FieldStorage's
  // claim/copy/commit order. A reader that sees the bit acquires it and
  // reads bytes the writer is still copying.
  struct Shared {
    std::atomic<uint64_t> written{0};
    int32_t payload = 0;
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("writer", [shared] {
    check::release(&shared->written);
    shared->written.fetch_or(1, std::memory_order_release);  // too early
    check::write(shared->payload, "demo.broken_publish.payload");
    shared->payload = 7;
  });
  session.spawn("reader", [shared] {
    if (shared->written.load(std::memory_order_acquire) & 1) {
      check::acquire(&shared->written);
      check::read(shared->payload, "demo.broken_publish.payload");
      (void)shared->payload;
    }
  });
}

void suite_lock_cycle(CheckSession& session) {
  struct Shared {
    sync::Mutex a{"demo.lock_cycle.A"};
    sync::Mutex b{"demo.lock_cycle.B"};
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("ab", [shared] {
    std::scoped_lock first(shared->a);
    std::scoped_lock second(shared->b);
  });
  session.spawn("ba", [shared] {
    std::scoped_lock first(shared->b);
    std::scoped_lock second(shared->a);
  });
}

void suite_lost_wakeup(CheckSession& session) {
  struct Shared {
    sync::Mutex m{"demo.lost_wakeup.m"};
    sync::CondVar cv{"demo.lost_wakeup.cv"};
  };
  auto shared = std::make_shared<Shared>();
  // Bug under test: the waiter waits unconditionally instead of guarding
  // with a predicate, so a notify that fires first is lost forever.
  session.spawn("waiter", [shared] {
    std::unique_lock lock(shared->m);
    shared->cv.wait(lock);
  });
  session.spawn("notifier", [shared] { shared->cv.notify_one(); });
}

}  // namespace

void register_builtin_suites() {
  static const bool once = [] {
    const auto add = [](const char* name, const char* description,
                        void (*body)(CheckSession&),
                        const char* expected_code = nullptr) {
      CheckSuite suite;
      suite.name = name;
      suite.description = description;
      suite.body = body;
      if (expected_code != nullptr) {
        suite.expect_findings = true;
        suite.expected_code = expected_code;
      }
      register_suite(std::move(suite));
    };
    add("blocking_queue.pop_all_shutdown",
        "BlockingQueue push / pop_all drain / close shutdown",
        suite_blocking_queue);
    add("ready_queue.shutdown",
        "ReadyQueue batch push, two workers (bonus pop), close",
        suite_ready_queue);
    add("mpsc.pop_all_shutdown",
        "MpscQueue lock-free multi-producer push / parked pop_all / close",
        suite_mpsc_queue);
    add("shard.cross_handoff",
        "analyzer-shard cross-shard seal/scan message ping over two "
        "MpscQueues",
        suite_shard_cross_handoff);
    add("field.seal_publish",
        "FieldStorage store-after-seal (lock-free claim/copy/commit vs "
        "region_written/is_complete readers) and store-then-seal "
        "(publish at first fetch vs lock-free view lookup)",
        suite_field_seal_publish);
    add("bus.shutdown", "MessageBus send / mailbox drain vs close_all",
        suite_bus_shutdown);
    add("reliable.stop", "ReliableChannel retransmit loop vs stop()",
        suite_reliable_stop);
    add("flight_recorder.ring",
        "FlightRecorder single-writer ring vs racy snapshot",
        suite_flight_recorder);
    add("shm.ring_spsc",
        "shared-memory SPSC ring: wrap-around push/full window vs drain "
        "until closed",
        suite_shm_ring);
    add("demo.known_race",
        "fixture: unsynchronized counter (must find P2G-C001)",
        suite_known_race, "P2G-C001");
    add("demo.broken_mpsc",
        "fixture: queue payload published after the push (must find "
        "P2G-C001)",
        suite_broken_mpsc, "P2G-C001");
    add("demo.broken_ring",
        "fixture: ring tail published before the slot write (must find "
        "P2G-C001)",
        suite_broken_ring, "P2G-C001");
    add("demo.broken_publish",
        "fixture: written bit committed before the payload copy (must "
        "find P2G-C001)",
        suite_broken_publish, "P2G-C001");
    add("demo.lock_cycle", "fixture: AB/BA lock order (must find P2G-C002)",
        suite_lock_cycle, "P2G-C002");
    add("demo.lost_wakeup",
        "fixture: unconditional cv wait (must find P2G-C003)",
        suite_lost_wakeup, "P2G-C003");
    return true;
  }();
  (void)once;
}

}  // namespace p2g::check
