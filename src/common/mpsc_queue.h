// Lock-free multi-producer single-consumer queue: the event queue under
// the analyzer's combining gate (common/combining_queue.h), which makes
// sure one thread at a time consumes. Vyukov-style intrusive list with a
// stub node: producers publish with one atomic exchange plus one release
// store (wait-free, no lock); the consumer drains without blocking.
//
// p2gcheck annotations model the happens-before edges: producers
// write_range the payload and release(this) before the publishing
// exchange, the consumer acquire(this)s before reading payloads and
// reset_range()s nodes before freeing them; the spin on a producer that
// has exchanged but not linked yet is a racy_read scheduling point
// (unreachable under exploration: nothing instrumented sits between the
// producer's two stores).
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
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

  /// Lock-free push (any thread).
  void push(T item) {
    Node* node = new Node(std::move(item));
    check::write_range(&node->value, sizeof(T), "MpscQueue.node");
    check::release(this);
    Node* prev = head_.exchange(node, std::memory_order_seq_cst);
    prev->next.store(node, std::memory_order_release);
    // Counted after the link: a thread whose size() reads this count also
    // finds the node (the combining gate's re-check relies on it).
    count_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Consumer-only, never blocks: moves every published item into `out`
  /// (cleared first) and returns how many there were.
  size_t try_pop_all(std::deque<T>& out) {
    out.clear();
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
    }
    tail_ = tail;
    if (!out.empty()) {
      count_.fetch_sub(static_cast<int64_t>(out.size()),
                       std::memory_order_relaxed);
    }
    return out.size();
  }

  /// Items pushed and not yet popped; exact when no push is in flight (a
  /// drain may pop a node before its push has counted it).
  size_t size() const {
    const int64_t n = count_.load(std::memory_order_seq_cst);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  std::atomic<Node*> head_;  ///< producers publish here
  Node* tail_;               ///< consumer-owned
  std::atomic<int64_t> count_{0};
};

}  // namespace p2g
