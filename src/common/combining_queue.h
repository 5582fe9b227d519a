// Flat combining over an MpscQueue: the thread that pushes an item handles
// the backlog, one drained batch at a time, unless another thread holds
// the gate (one atomic flag). The holder drains until empty, leaves and
// re-reads the count, so no item pushed meanwhile is stranded (DESIGN
// §15). A push from inside the handler is drained by the calling loop.
// The gate is held until open(); after close() nobody enters it.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <thread>
#include <utility>

#include "check/sync.h"
#include "common/mpsc_queue.h"

namespace p2g {

template <typename T>
class CombiningQueue {
 public:
  /// Must not throw (the gate would stay held).
  using Handler = std::function<void(const std::deque<T>&)>;

  explicit CombiningQueue(Handler handle) : handle_(std::move(handle)) {}

  /// Any thread: pushes, then handles batches while it wins the gate.
  void push(T item) {
    queue_.push(std::move(item));
    combine();
  }

  /// Opens the gate and handles what was pushed while it was held.
  void open() {
    leave();
    combine();
  }

  /// Ends combining: the holder stops after its current batch and later
  /// pushes only queue. Never blocks, so the handler may call it.
  void close() { closed_.store(true, std::memory_order_seq_cst); }

  /// After open() and close(), never from the handler: waits out a holder
  /// on another thread and keeps the gate.
  void join() {
    while (!try_enter()) std::this_thread::yield();
  }

  /// Items pushed and not yet drained.
  size_t size() const { return queue_.size(); }

 private:
  bool try_enter() {
    if (gate_.exchange(true, std::memory_order_seq_cst)) return false;
    check::acquire(&gate_);
    return true;
  }

  void leave() {
    check::release(&gate_);
    gate_.store(false, std::memory_order_seq_cst);
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  void combine() {
    while (!closed() && queue_.size() > 0 && try_enter()) {
      while (!closed() && queue_.try_pop_all(batch_) > 0) handle_(batch_);
      leave();
    }
  }

  const Handler handle_;
  MpscQueue<T> queue_;
  std::deque<T> batch_;  ///< the gate holder's
  std::atomic<bool> gate_{true};
  std::atomic<bool> closed_{false};
};

}  // namespace p2g
