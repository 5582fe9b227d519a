// Lock-free multi-producer single-consumer queue: the workers-to-analyzer
// event queue.
//
// Vyukov-style intrusive MPSC list with a stub node: producers publish with
// one atomic exchange plus one release store (wait-free, no lock), the
// single consumer drains the linked list without synchronizing against
// producers at all. Parking is the only place a lock appears: a consumer
// that finds the queue empty raises a `sleeping_` flag and waits on an
// instrumented sync::CondVar, and producers take the mutex only when they
// observe that flag — the uncontended push path stays lock-free.
//
// The p2gcheck annotations describe the intended happens-before edges so
// the race checker can verify the protocol instead of flagging it:
//   - producers write_range the node payload and release(this) before the
//     publishing exchange; the consumer acquire(this)s once per non-empty
//     drain before read_range-ing payloads,
//   - the consumer reset_range()s nodes before freeing them so recycled
//     allocations cannot race against stale epochs,
//   - the drain spin that waits for an in-flight producer to link its node
//     is a check::racy_read scheduling point, which keeps virtualized
//     schedule exploration live (the scheduler can run the producer).
// Under virtualized exploration the spin branch is in fact unreachable:
// there is no instrumented operation between a producer's exchange and its
// next-pointer store, so the scheduler can never preempt between them.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "check/sync.h"

namespace p2g {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  ~MpscQueue() {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Lock-free push (any thread). Wakes the consumer only when it is
  /// parked, so the contended-queue fast path never touches the mutex.
  void push(T item) {
    Node* node = new Node(std::move(item));
    check::write_range(&node->value, sizeof(T), "MpscQueue.node");
    check::release(this);
    // seq_cst exchange + seq_cst sleeping_ load below: if this publication
    // is not visible to the consumer's post-park drain, the consumer's
    // sleeping_ store is visible here, so one side always notices the
    // other (no lost wakeup).
    Node* prev = head_.exchange(node, std::memory_order_seq_cst);
    prev->next.store(node, std::memory_order_release);
    approx_size_.fetch_add(1, std::memory_order_relaxed);
    if (sleeping_.load(std::memory_order_seq_cst)) {
      {
        std::scoped_lock lock(mutex_);
        check::write(wakeups_, "MpscQueue.wakeups");
        ++wakeups_;
      }
      cv_.notify_one();
    }
  }

  /// Blocks until at least one item is available, then drains everything
  /// pending into `out` (cleared first) — the analyzer's batched
  /// consume. Single consumer only. Returns false only after close() with
  /// an empty queue.
  bool pop_all(std::deque<T>& out) {
    out.clear();
    if (!stash_.empty()) out.swap(stash_);
    drain(out);
    if (!out.empty()) return true;
    while (true) {
      sleeping_.store(true, std::memory_order_seq_cst);
      if (drain(out) > 0) {
        sleeping_.store(false, std::memory_order_relaxed);
        return true;
      }
      {
        std::unique_lock lock(mutex_);
        check::read(closed_, "MpscQueue.closed");
        if (closed_) {
          sleeping_.store(false, std::memory_order_relaxed);
          lock.unlock();
          drain(out);  // events pushed before close() must not be lost
          return !out.empty();
        }
        cv_.wait(lock, [&] {
          check::read(wakeups_, "MpscQueue.wakeups");
          return wakeups_ > 0 || closed_;
        });
        check::write(wakeups_, "MpscQueue.wakeups");
        if (wakeups_ > 0) --wakeups_;
      }
      sleeping_.store(false, std::memory_order_relaxed);
      if (drain(out) > 0) return true;
    }
  }

  /// Blocking single-item pop. Single consumer only. Returns nullopt
  /// only after close() with an empty queue.
  std::optional<T> pop() {
    while (stash_.empty()) {
      if (!pop_all(stash_)) return std::nullopt;
    }
    T item = std::move(stash_.front());
    stash_.pop_front();
    return item;
  }

  /// Closes the queue; the consumer drains remaining items then fails.
  void close() {
    {
      std::scoped_lock lock(mutex_);
      check::write(closed_, "MpscQueue.closed");
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Approximate backlog (a sampled gauge; racy by design).
  size_t size() const {
    const int64_t n = approx_size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

  bool empty() const { return size() == 0; }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  /// Consumer-only: moves every reachable node's payload into `out`.
  size_t drain(std::deque<T>& out) {
    size_t drained = 0;
    bool acquired = false;
    Node* tail = tail_;
    while (true) {
      Node* next = tail->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        if (head_.load(std::memory_order_seq_cst) == tail) break;  // empty
        // A producer exchanged head_ but has not linked its node yet; its
        // two stores are adjacent, so this resolves in a few cycles.
        check::racy_read(&tail->next, sizeof(void*));
        continue;
      }
      if (!acquired) {
        check::acquire(this);
        acquired = true;
      }
      check::read_range(&next->value, sizeof(T), "MpscQueue.node");
      out.push_back(std::move(next->value));
      check::reset_range(tail, sizeof(Node));
      delete tail;
      tail = next;
      ++drained;
    }
    tail_ = tail;
    if (drained > 0) {
      approx_size_.fetch_sub(static_cast<int64_t>(drained),
                             std::memory_order_relaxed);
    }
    return drained;
  }

  std::atomic<Node*> head_;  ///< producers publish here
  Node* tail_;               ///< consumer-owned
  std::deque<T> stash_;      ///< consumer-owned (single-item pop)
  std::atomic<int64_t> approx_size_{0};

  // Parking protocol (consumer raises sleeping_, producers notify).
  std::atomic<bool> sleeping_{false};
  mutable sync::Mutex mutex_{"MpscQueue.mutex"};
  sync::CondVar cv_{"MpscQueue.cv"};
  int64_t wakeups_ = 0;
  bool closed_ = false;
};

}  // namespace p2g
