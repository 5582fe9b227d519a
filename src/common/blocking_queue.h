// Unbounded MPSC/MPMC blocking queue: the message bus mailboxes
// (dist::MessageBus, net::Transport::Mailbox).
//
// Built on the instrumented sync primitives (check/sync.h): under a
// p2gcheck session every lock/wait is reported to the race checker and, in
// schedule-exploration mode, the seeded scheduler decides each
// interleaving. Without a session the primitives are passthroughs. The
// check::write/read annotations describe the logical queue state so an
// unsynchronized use of the queue internals would surface as P2G-C001.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "check/sync.h"

namespace p2g {

template <typename T>
class BlockingQueue {
 public:
  /// Pushes an item and wakes one waiter.
  void push(T item) {
    {
      std::scoped_lock lock(mutex_);
      check::write(items_, "BlockingQueue.items");
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Blocks until an item is available or the queue is closed.
  /// Returns nullopt only after close() with an empty queue.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    check::read(closed_, "BlockingQueue.closed");
    if (items_.empty()) return std::nullopt;
    check::write(items_, "BlockingQueue.items");
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocks until at least one item is available, then drains *all* pending
  /// items into `out` (cleared first) in FIFO order under a single lock
  /// acquisition — the batched variant of pop() for consumers that can
  /// amortize per-item overhead. Returns false only after close() with an
  /// empty queue.
  bool pop_all(std::deque<T>& out) {
    out.clear();
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    check::read(closed_, "BlockingQueue.closed");
    if (items_.empty()) return false;
    check::write(items_, "BlockingQueue.items");
    items_.swap(out);
    return true;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::scoped_lock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    check::write(items_, "BlockingQueue.items");
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Closes the queue; subsequent pops drain remaining items then fail.
  void close() {
    {
      std::scoped_lock lock(mutex_);
      check::write(closed_, "BlockingQueue.closed");
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::scoped_lock lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::scoped_lock lock(mutex_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable sync::Mutex mutex_{"BlockingQueue.mutex"};
  sync::CondVar cv_{"BlockingQueue.cv"};
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace p2g
