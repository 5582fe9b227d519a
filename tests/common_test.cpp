// Unit tests for src/common: errors, stats, bitsets, queues, strings.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include <cstdlib>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/dynamic_bitset.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace p2g {
namespace {

TEST(Error, CarriesKindAndMessage) {
  try {
    throw_error(ErrorKind::kWriteOnceViolation, "cell (1,2)");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    EXPECT_NE(std::string(e.what()).find("write-once-violation"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cell (1,2)"), std::string::npos);
  }
}

TEST(Error, CheckArgumentThrowsInvalidArgument) {
  EXPECT_NO_THROW(P2G_CHECK_ARGUMENT(true, "ok"));
  try {
    P2G_CHECK_ARGUMENT(false, "bad input");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
}

// The checks are on every hot path: a passing check must not build its
// message, a failing one must carry it unchanged.
TEST(Error, CheckMessageIsBuiltOnlyOnFailure) {
  int built = 0;
  const auto message = [&built] {
    ++built;
    return std::string("index ") + std::to_string(7) + " out of range";
  };
  P2G_CHECK_ARGUMENT(true, message());
  P2G_CHECK_INTERNAL(true, message());
  EXPECT_EQ(built, 0);
  try {
    P2G_CHECK_INTERNAL(false, message());
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_STREQ(e.what(), "internal: index 7 out of range");
  }
  EXPECT_EQ(built, 1);
}

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  a.add(3.0);
  RunningStat empty;
  a.merge(empty);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);

  RunningStat into;
  into.merge(a);  // merging into empty copies
  EXPECT_EQ(into.count(), 2);
  EXPECT_DOUBLE_EQ(into.mean(), 2.0);
  EXPECT_DOUBLE_EQ(into.min(), 1.0);
  EXPECT_DOUBLE_EQ(into.max(), 3.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, NearestRankInterpolation) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0) << "empty input is defined";
  std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 100), 42.0);
}

TEST(DynamicBitset, SetAndCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.set(0));
  EXPECT_TRUE(b.set(64));
  EXPECT_TRUE(b.set(129));
  EXPECT_FALSE(b.set(64)) << "second set reports already-set";
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(128));
}

TEST(DynamicBitset, SetRangeCrossingWords) {
  DynamicBitset b(200);
  EXPECT_EQ(b.set_range(10, 150), 140u);
  EXPECT_EQ(b.count(), 140u);
  EXPECT_TRUE(b.all_in_range(10, 150));
  EXPECT_FALSE(b.all_in_range(9, 150));
  EXPECT_EQ(b.set_range(0, 200), 60u) << "only fresh bits counted";
  EXPECT_TRUE(b.all());
}

TEST(DynamicBitset, FindFirstUnset) {
  DynamicBitset b(70);
  b.set_range(0, 70);
  EXPECT_EQ(b.find_first_unset(), 70u);
  DynamicBitset c(70);
  c.set_range(0, 65);
  EXPECT_EQ(c.find_first_unset(), 65u);
}

TEST(DynamicBitset, ResizeGrowKeepsBits) {
  DynamicBitset b(10);
  b.set(3);
  b.resize(100);
  EXPECT_TRUE(b.test(3));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynamicBitset, ResizeShrinkDropsBits) {
  DynamicBitset b(100);
  b.set(3);
  b.set(90);
  b.resize(10);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_TRUE(b.test(3));
}

TEST(AtomicBitset, TakesOverWordsAndReportsFirstSetBit) {
  constexpr auto kAcqRel = std::memory_order_acq_rel;
  constexpr auto kAcquire = std::memory_order_acquire;
  DynamicBitset bits(200);
  bits.set(70);
  AtomicBitset atomic(std::move(bits));
  EXPECT_EQ(bits.size(), 0u) << "the words move, they are not copied";
  EXPECT_EQ(atomic.size(), 200u);
  EXPECT_TRUE(atomic.all_in_range(70, 71, kAcquire));
  EXPECT_EQ(atomic.set_range(0, 64, kAcqRel), 64u) << "all fresh";
  EXPECT_TRUE(atomic.all_in_range(0, 64, kAcquire));
  // A conflict in the first word stops before the later words.
  EXPECT_EQ(atomic.set_range(60, 130, kAcqRel), 60u);
  EXPECT_FALSE(atomic.all_in_range(64, 70, kAcquire));
  EXPECT_EQ(atomic.set_range(64, 130, kAcqRel), 70u);
  EXPECT_FALSE(atomic.all_in_range(128, 130, kAcquire));
  EXPECT_EQ(atomic.set_range(130, 130, kAcqRel), 130u) << "empty range";
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, PopAllDrainsEverythingAtOnce) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  std::deque<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
  // A stale out-parameter is cleared, not appended to.
  q.push(4);
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{4}));
}

TEST(BlockingQueue, PopAllReturnsFalseOnlyWhenClosedAndDrained) {
  BlockingQueue<int> q;
  q.push(9);
  q.close();
  std::deque<int> batch;
  EXPECT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch, (std::deque<int>{9}));
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(BlockingQueue, PopAllCrossThreadReceivesEverythingInOrder) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  std::deque<int> batch;
  while (q.pop_all(batch)) {
    for (int v : batch) EXPECT_EQ(v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, 1000);
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
  });
  int received = 0;
  int last = -1;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, last + 1);
    last = *v;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, 1000);
}

TEST(StringUtil, SplitAndJoin) {
  const auto pieces = split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(join(pieces, "-"), "a-b--c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(StringUtil, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(2024251), "2,024,251");
  EXPECT_EQ(with_thousands(-1234567), "-1,234,567");
}

TEST(StringUtil, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("line\nfeed"), "line\\nfeed");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  EXPECT_EQ(json_escape(""), "");
}

TEST(Logging, ApplyLogEnvSetsThreshold) {
  const LogLevel before = log_level();
  ::setenv("P2G_LOG", "error", 1);
  apply_log_env();
  EXPECT_EQ(log_level(), LogLevel::kError);
  ::setenv("P2G_LOG", "not-a-level", 1);
  apply_log_env();
  EXPECT_EQ(log_level(), LogLevel::kError) << "unknown values ignored";
  ::setenv("P2G_LOG", "debug", 1);
  apply_log_env();
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  ::unsetenv("P2G_LOG");
  set_log_level(before);
}

TEST(Clock, Monotonic) {
  const int64_t a = now_ns();
  const int64_t b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Clock, ScopedTimerAccumulates) {
  int64_t acc = 0;
  {
    ScopedTimerNs t(acc);
  }
  EXPECT_GE(acc, 0);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsTheStream) {
  Rng rng(7);
  const uint64_t first = rng.next();
  rng.next();
  rng.reseed(7);
  EXPECT_EQ(rng.next(), first);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  bool lo_hit = false;
  bool hi_hit = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    lo_hit |= v == -2;
    hi_hit |= v == 3;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, ChanceHonorsDegenerateProbabilities) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, MixIsAPureFunction) {
  EXPECT_EQ(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
  EXPECT_NE(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
  EXPECT_NE(mix(1), mix(2));
  EXPECT_EQ(hash_str("node0"), hash_str("node0"));
  EXPECT_NE(hash_str("node0"), hash_str("node1"));
}

}  // namespace
}  // namespace p2g
