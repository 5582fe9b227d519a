#include "core/ready_queue.h"

namespace p2g {

void ReadyQueue::push(WorkItem item) {
  bool wake = false;
  {
    std::scoped_lock lock(mutex_);
    check::write(next_seq_, "ReadyQueue.items");
    item.seq = next_seq_++;
    items_.push(std::move(item));
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_one();
}

void ReadyQueue::push_batch(std::vector<WorkItem> items) {
  if (items.empty()) return;
  bool wake = false;
  {
    std::scoped_lock lock(mutex_);
    check::write(next_seq_, "ReadyQueue.items");
    for (WorkItem& item : items) {
      item.seq = next_seq_++;
      items_.push(std::move(item));
    }
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_one();
}

WorkItem ReadyQueue::take_top() {
  check::write(next_seq_, "ReadyQueue.items");
  WorkItem item = std::move(const_cast<WorkItem&>(items_.top()));
  items_.pop();
  return item;
}

std::optional<WorkItem> ReadyQueue::pop(std::optional<WorkItem>* bonus) {
  if (bonus != nullptr) bonus->reset();
  std::unique_lock lock(mutex_);
  ++waiters_;
  cv_.wait(lock, [&] { return !items_.empty() || closed_; });
  --waiters_;
  check::read(closed_, "ReadyQueue.closed");
  if (items_.empty()) return std::nullopt;
  WorkItem item = take_top();
  if (bonus != nullptr && !items_.empty() && waiters_ == 0) {
    // Nobody else wants work right now: take a second unit and save this
    // worker its next lock round trip.
    *bonus = take_top();
  }
  // More work and somebody is parked: pass the wakeup along so the chain
  // keeps draining even though push only ever notifies one worker.
  const bool handoff = !items_.empty() && waiters_ > 0;
  lock.unlock();
  if (handoff) cv_.notify_one();
  return item;
}

void ReadyQueue::close() {
  {
    std::scoped_lock lock(mutex_);
    check::write(closed_, "ReadyQueue.closed");
    closed_ = true;
  }
  cv_.notify_all();
}

size_t ReadyQueue::size() const {
  std::scoped_lock lock(mutex_);
  return items_.size();
}

}  // namespace p2g
