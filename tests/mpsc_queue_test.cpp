// Unit tests for the lock-free MPSC event queue (common/mpsc_queue.h):
// FIFO order, batched drain and multi-producer delivery with per-producer
// order; and for the combining gate over it (common/combining_queue.h):
// items pushed before open() wait for it, a push from inside the handler
// is handled by the same loop, close() ends combining, and racing pushers
// get every item handled exactly once by one handler at a time.
#include "common/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/combining_queue.h"

namespace p2g {
namespace {

TEST(MpscQueue, FifoOrderSingleProducer) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  std::deque<int> batch;
  ASSERT_EQ(q.try_pop_all(batch), 3u);
  EXPECT_EQ(batch, (std::deque<int>{1, 2, 3}));
}

TEST(MpscQueue, PopAllDrainsEverythingAtOnce) {
  MpscQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::deque<int> batch;
  ASSERT_EQ(q.try_pop_all(batch), 5u);
  EXPECT_EQ(batch, (std::deque<int>{0, 1, 2, 3, 4}));
  // An empty queue returns at once, and a stale batch is cleared.
  EXPECT_EQ(q.try_pop_all(batch), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(MpscQueue, ApproximateSizeTracksBacklog) {
  MpscQueue<int> q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  std::deque<int> batch;
  ASSERT_EQ(q.try_pop_all(batch), 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpscQueue, MultiProducerDeliversEverythingPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kItems = 2000;
  MpscQueue<int64_t> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItems; ++i) {
        q.push((static_cast<int64_t>(p) << 32) | static_cast<int64_t>(i));
      }
    });
  }
  std::vector<int64_t> got;
  got.reserve(static_cast<size_t>(kProducers) * kItems);
  std::deque<int64_t> batch;
  while (got.size() < static_cast<size_t>(kProducers) * kItems) {
    if (q.try_pop_all(batch) == 0) std::this_thread::yield();
    got.insert(got.end(), batch.begin(), batch.end());
  }
  for (std::thread& t : producers) t.join();

  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers) * kItems);
  // Global order is unspecified across producers, but each producer's own
  // items must arrive in push order.
  std::vector<int64_t> next(kProducers, 0);
  for (const int64_t v : got) {
    const auto p = static_cast<size_t>(v >> 32);
    const int64_t seq = v & 0xFFFFFFFF;
    ASSERT_LT(p, static_cast<size_t>(kProducers));
    EXPECT_EQ(seq, next[p]);
    ++next[p];
  }
}

TEST(MpscQueue, MovesNonCopyablePayloads) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  std::deque<std::unique_ptr<int>> batch;
  ASSERT_EQ(q.try_pop_all(batch), 1u);
  EXPECT_EQ(*batch.front(), 5);
}

TEST(CombiningQueue, ItemsPushedBeforeOpenWaitForIt) {
  std::vector<int> handled;
  CombiningQueue<int> q([&](const std::deque<int>& batch) {
    handled.insert(handled.end(), batch.begin(), batch.end());
  });
  q.push(1);
  q.push(2);
  EXPECT_TRUE(handled.empty());
  EXPECT_EQ(q.size(), 2u);
  q.open();
  EXPECT_EQ(handled, (std::vector<int>{1, 2}));
  q.push(3);  // the gate is free: handled on this thread, at once
  EXPECT_EQ(handled, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(CombiningQueue, PushFromInsideTheHandlerIsHandledByTheSameLoop) {
  std::vector<int> handled;
  std::unique_ptr<CombiningQueue<int>> q;
  q = std::make_unique<CombiningQueue<int>>([&](const std::deque<int>& batch) {
    for (const int item : batch) {
      handled.push_back(item);
      if (item < 3) q->push(item + 1);
    }
  });
  q->open();
  q->push(0);
  EXPECT_EQ(handled, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CombiningQueue, CloseEndsCombiningAndLaterPushesOnlyQueue) {
  int handled = 0;
  std::unique_ptr<CombiningQueue<int>> q;
  q = std::make_unique<CombiningQueue<int>>([&](const std::deque<int>&) {
    ++handled;
    q->close();  // from inside the handler: never blocks
  });
  q->open();
  q->push(1);
  EXPECT_EQ(handled, 1);
  q->push(2);
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(q->size(), 1u);
  q->join();  // nobody else holds the gate
}

TEST(CombiningQueue, RacingPushersGetEveryItemHandledOnceSerially) {
  constexpr int kProducers = 4;
  constexpr int kItems = 5000;
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::vector<int> count(static_cast<size_t>(kProducers) * kItems, 0);
  CombiningQueue<int> q([&](const std::deque<int>& batch) {
    if (inside.fetch_add(1) != 0) overlapped = true;
    for (const int item : batch) ++count[static_cast<size_t>(item)];
    inside.fetch_sub(1);
  });
  q.open();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItems; ++i) q.push(p * kItems + i);
    });
  }
  for (std::thread& t : producers) t.join();
  q.close();
  q.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(q.size(), 0u);
  for (size_t i = 0; i < count.size(); ++i) {
    ASSERT_EQ(count[i], 1) << "item " << i;
  }
}

}  // namespace
}  // namespace p2g
