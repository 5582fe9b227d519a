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

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "check/sync.h"
#include "common/blocking_queue.h"
#include "common/combining_queue.h"
#include "common/mpsc_queue.h"
#include "core/field.h"
#include "core/ready_queue.h"
#include "core/trace.h"
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
    while (queue->pop(&bonus).has_value()) {
      bonus.reset();
    }
  });
  session.spawn("closer", [queue] { queue->close(); });
}

/// The event gate as Runtime::push_event uses it: two pushers, and handling
/// event 0 pushes event 3 (re-entry). pusher-b pushes once event 1 is
/// handled, so it can land while pusher-a holds the gate after its last
/// drain. Two handlers at once race on `handled` (P2G-C001); the last to
/// finish throws unless each event was handled once (stranded: P2G-C004).
template <typename Gate>
void combine_protocol(CheckSession& session) {
  struct Shared {
    Shared() : gate([this](const std::deque<int>& batch) {
      for (const int event : batch) {
        check::write(handled, "analyzer.combine.handled");
        ++handled[static_cast<size_t>(event)];
        if (event == 0) gate.push(3);
        if (event != 1) continue;
        std::scoped_lock lock(mutex);
        one_handled = true;
        cv.notify_one();
      }
    }) {
      gate.open();
    }
    void finish() {
      check::release(&finished);
      if (finished.fetch_add(1) != 1) return;
      check::acquire(&finished);
      check::read(handled, "analyzer.combine.handled");
      for (const int times : handled) {
        if (times != 1) throw std::logic_error("an event was not handled once");
      }
    }
    std::array<int, 4> handled{};
    std::atomic<int> finished{0};
    sync::Mutex mutex{"analyzer.combine.mutex"};
    sync::CondVar cv{"analyzer.combine.cv"};
    bool one_handled = false;
    Gate gate;  // last: its handler uses the members above
  };
  auto shared = std::make_shared<Shared>();
  session.spawn("pusher-a", [shared] {
    shared->gate.push(0);
    shared->gate.push(1);
    shared->finish();
  });
  session.spawn("pusher-b", [shared] {
    {
      std::unique_lock lock(shared->mutex);
      shared->cv.wait(lock, [&] { return shared->one_handled; });
    }
    shared->gate.push(2);
    shared->finish();
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

/// Age reclamation in miniature: an analyzer stores and seals an age,
/// dispatches one work item for it through a ReadyQueue, and releases the
/// age when the item's done event comes back over the event queue; a
/// worker fetches a view of the age, reports done, and only then reads the
/// view, which its keepalive holds across the release. With
/// `release_at_dispatch` the analyzer releases right after the push
/// instead: a worker fetching afterwards finds the age released.
void release_protocol(CheckSession& session, bool release_at_dispatch) {
  struct Shared {
    explicit Shared(FieldDecl decl) : field(std::move(decl)) {}
    FieldStorage field;
    ReadyQueue ready;
    BlockingQueue<Age> done;
  };
  FieldDecl decl;
  decl.id = 0;
  decl.name = "f";
  decl.type = nd::ElementType::kInt64;
  decl.rank = 1;
  auto shared = std::make_shared<Shared>(std::move(decl));
  session.spawn("analyzer", [shared, release_at_dispatch] {
    std::deque<Age> done;
    for (Age age = 0; age < 2; ++age) {
      nd::AnyBuffer data(nd::ElementType::kInt64, nd::Extents({2}));
      data.data<int64_t>()[0] = age;
      data.data<int64_t>()[1] = age + 1;
      shared->field.store_whole(age, data);
      shared->field.seal(age, nd::Extents({2}));
      WorkItem item;
      item.age = age;
      shared->ready.push(std::move(item));
      if (release_at_dispatch) {
        shared->field.release_age(age);  // the item may not have fetched
        continue;
      }
      // One item in flight: its done event is the next one.
      if (!shared->done.pop_all(done)) return;
      for (const Age retired : done) shared->field.release_age(retired);
    }
    shared->ready.close();
    while (shared->done.pop_all(done)) {
    }
    if (!shared->field.is_sealed(0) || !shared->field.is_complete(1)) {
      throw std::logic_error("a released age reads as unsealed");
    }
  });
  session.spawn("worker", [shared] {
    while (const auto item = shared->ready.pop()) {
      const auto view = shared->field.try_fetch_view_whole(item->age);
      if (!view) throw std::logic_error("a dispatched age has no view");
      shared->done.push(item->age);
      check::read_range(view->raw(), 2 * sizeof(int64_t),
                        "FieldStorage.payload");
      if (view->at_flat<int64_t>(0) != item->age) {
        throw std::logic_error("a held view changed under a release");
      }
    }
    shared->done.close();
  });
}

void suite_field_release_on_done(CheckSession& session) {
  release_protocol(session, /*release_at_dispatch=*/false);
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
  // A flight recorder is a bounded TraceCollector. Its writer records
  // kSpans spans into a four-slot ring, wrapping it many times while the
  // reader snapshots it; every snapshot must hold at most four spans,
  // oldest first, none read from a slot the writer was overwriting (span i
  // is recorded with start_ns i and span_id i + 1). The runs are long
  // enough for the explorer's priority change points to land inside them.
  // The writer also appends to an unbounded collector, whose reader-side
  // accesses are race-checked, not racy.
  struct Shared {
    TraceCollector ring{4};
    TraceCollector full;
  };
  auto shared = std::make_shared<Shared>();
  const uint32_t ring_name = shared->ring.intern("event");
  const uint32_t full_name = shared->full.intern("event");
  constexpr int64_t kSpans = 64;
  session.spawn("writer", [shared, ring_name, full_name] {
    for (int64_t i = 0; i < kSpans; ++i) {
      TraceCollector::Record r;
      r.start_ns = i;
      r.span_id = static_cast<uint64_t>(i) + 1;
      r.kind = SpanKind::kOther;
      r.name = ring_name;
      shared->ring.record(r);
      if (i < 3) {
        r.name = full_name;
        shared->full.record(r);
      }
    }
  });
  session.spawn("reader", [shared] {
    for (int pass = 0; pass < 16; ++pass) {
      const std::vector<TraceCollector::Span> spans =
          shared->ring.spans_snapshot();
      if (spans.size() > 4) throw std::logic_error("ring over capacity");
      for (size_t k = 0; k < spans.size(); ++k) {
        if (spans[k].span_id != static_cast<uint64_t>(spans[k].start_ns) + 1 ||
            (k > 0 && spans[k].start_ns <= spans[k - 1].start_ns)) {
          throw std::logic_error("ring snapshot holds an overwritten slot");
        }
      }
      (void)shared->full.spans_snapshot();
    }
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
  // Bug under test: a handoff through the event queue that publishes the
  // out-of-band payload *after* the push, so the consumer can read it
  // concurrently with the write (the real protocol writes first).
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
    if (shared->queue.try_pop_all(batch) > 0) {
      check::read(shared->payload, "demo.broken_mpsc.payload");
      (void)shared->payload;
    }
  });
}

/// Bug under test: a combining gate left without the re-check. An event
/// pushed while another thread holds the gate, after its last drain, stays
/// in the queue with nobody to drain it.
class BrokenCombine {
 public:
  explicit BrokenCombine(CombiningQueue<int>::Handler handle)
      : handle_(std::move(handle)) {}
  void open() {}
  void push(int event) {
    queue_.push(event);
    if (gate_.exchange(true, std::memory_order_seq_cst)) return;
    check::acquire(&gate_);
    while (queue_.try_pop_all(batch_) > 0) handle_(batch_);
    check::release(&gate_);
    gate_.store(false, std::memory_order_seq_cst);  // no re-check
  }

 private:
  const CombiningQueue<int>::Handler handle_;
  MpscQueue<int> queue_;
  std::deque<int> batch_;
  std::atomic<bool> gate_{false};
};

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

void suite_broken_release(CheckSession& session) {
  // Bug under test: the analyzer releases an age when it dispatches the
  // item that reads it, not when the item reports done. A worker whose
  // fetch comes after the release gets the kInternal released-age error.
  release_protocol(session, /*release_at_dispatch=*/true);
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
    add("analyzer.combine",
        "combining gate: two pushers and a push from inside the handler, "
        "each event handled once by one handler at a time",
        combine_protocol<CombiningQueue<int>>);
    add("field.seal_publish",
        "FieldStorage store-after-seal (lock-free claim/copy/commit vs "
        "region_written/is_complete readers) and store-then-seal "
        "(publish at first fetch vs lock-free view lookup)",
        suite_field_seal_publish);
    add("field.release_on_done",
        "age reclamation: a worker fetches a view and reports done, the "
        "analyzer releases the age on that done while the worker still "
        "reads the view",
        suite_field_release_on_done);
    add("bus.shutdown", "MessageBus send / mailbox drain vs close_all",
        suite_bus_shutdown);
    add("reliable.stop", "ReliableChannel retransmit loop vs stop()",
        suite_reliable_stop);
    add("flight_recorder.ring",
        "flight recorder (bounded TraceCollector) ring wrapped by its "
        "writer vs snapshots; unbounded buffer publish",
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
    add("demo.broken_combine",
        "fixture: gate left without the re-check strands an event (must "
        "find P2G-C004)",
        combine_protocol<BrokenCombine>, "P2G-C004");
    add("demo.broken_ring",
        "fixture: ring tail published before the slot write (must find "
        "P2G-C001)",
        suite_broken_ring, "P2G-C001");
    add("demo.broken_publish",
        "fixture: written bit committed before the payload copy (must "
        "find P2G-C001)",
        suite_broken_publish, "P2G-C001");
    add("demo.broken_release",
        "fixture: age released at dispatch instead of at done (must find "
        "P2G-C004, the worker's fetch of the released age)",
        suite_broken_release, "P2G-C004");
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
