// Unit tests for field storage: write-once, aging, implicit resize, seal,
// the zero-copy view path (aliasing, lifetime under release_age, concurrent
// readers) and the lock-free claim/copy/commit path of published ages.
// The concurrency tests are meant to run under P2G_SANITIZE=thread too.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/field.h"

namespace p2g {
namespace {

/// The kind of Error `fn` throws; nullopt when it returns normally.
template <typename Fn>
std::optional<ErrorKind> thrown_kind(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  return std::nullopt;
}

FieldDecl decl1d(const std::string& name = "f") {
  FieldDecl d;
  d.id = 0;
  d.name = name;
  d.type = nd::ElementType::kInt32;
  d.rank = 1;
  return d;
}

nd::AnyBuffer ints(std::initializer_list<int32_t> values) {
  nd::AnyBuffer buf(nd::ElementType::kInt32,
                    nd::Extents({static_cast<int64_t>(values.size())}));
  int64_t i = 0;
  for (int32_t v : values) buf.data<int32_t>()[i++] = v;
  return buf;
}

TEST(FieldStorage, StoreWholeAndFetch) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({10, 11, 12, 13, 14}));
  EXPECT_EQ(fs.extents(0), nd::Extents({5}));
  EXPECT_EQ(fs.written_count(0), 5);
  const nd::AnyBuffer out = fs.fetch_whole(0);
  EXPECT_EQ(out.at<int32_t>(3), 13);
}

TEST(FieldStorage, WriteOnceViolationThrows) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v));
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
  }
}

TEST(FieldStorage, WriterProvenanceInViolationMessage) {
  FieldStorage fs(decl1d());
  fs.track_writers(true);
  const int32_t v = 7;
  const StoreOrigin first{"alpha", 0, {2}};
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v), &first);
  const StoreOrigin second{"beta", 0, {2}};
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v), &second);
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel 'beta'"), std::string::npos) << what;
    EXPECT_NE(what.find("previously written by kernel 'alpha'"),
              std::string::npos)
        << what;
  }
}

TEST(FieldStorage, OriginWithoutTrackingStillNamesCurrentWriter) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  const StoreOrigin second{"beta", 0, {2}};
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v), &second);
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel 'beta'"), std::string::npos) << what;
  }
}

TEST(FieldStorage, SameElementDifferentAgeIsFine) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  EXPECT_NO_THROW(fs.store(1, nd::Region::point({2}),
                           reinterpret_cast<const std::byte*>(&v)));
  EXPECT_EQ(fs.live_ages(), (std::vector<Age>{0, 1}));
}

TEST(FieldStorage, ImplicitResizeGrowsExtents) {
  FieldStorage fs(decl1d());
  const int32_t a = 1;
  const int32_t b = 2;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&a));
  EXPECT_EQ(fs.extents(0), nd::Extents({1}));
  fs.store(0, nd::Region::point({9}),
           reinterpret_cast<const std::byte*>(&b));
  EXPECT_EQ(fs.extents(0), nd::Extents({10}));
  // Existing data survives the resize.
  const nd::AnyBuffer out = fs.fetch(0, nd::Region::point({0}));
  EXPECT_EQ(out.at<int32_t>(0), 1);
}

TEST(FieldStorage, Resize2DRemapsWrittenBits) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  const int32_t v1 = 11;
  fs.store(0, nd::Region::point({1, 1}),
           reinterpret_cast<const std::byte*>(&v1));
  const int32_t v2 = 22;
  fs.store(0, nd::Region::point({3, 5}),
           reinterpret_cast<const std::byte*>(&v2));
  EXPECT_EQ(fs.extents(0), nd::Extents({4, 6}));
  EXPECT_TRUE(fs.region_written(0, nd::Region::point({1, 1})));
  EXPECT_TRUE(fs.region_written(0, nd::Region::point({3, 5})));
  EXPECT_FALSE(fs.region_written(0, nd::Region::point({0, 0})));
  EXPECT_EQ(fs.fetch(0, nd::Region::point({1, 1})).at<int32_t>(0), 11);
  // Re-storing a remapped cell still violates write-once.
  EXPECT_THROW(fs.store(0, nd::Region::point({1, 1}),
                        reinterpret_cast<const std::byte*>(&v1)),
               Error);
}

TEST(FieldStorage, SealMakesExtentsFinal) {
  FieldStorage fs(decl1d());
  fs.seal(0, nd::Extents({3}));
  EXPECT_TRUE(fs.is_sealed(0));
  EXPECT_FALSE(fs.is_complete(0));
  const int32_t v = 1;
  fs.store(0, nd::Region::point({1}),
           reinterpret_cast<const std::byte*>(&v));
  try {
    fs.store(0, nd::Region::point({5}),
             reinterpret_cast<const std::byte*>(&v));
    FAIL() << "store beyond sealed extents must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kOutOfRange);
  }
}

TEST(FieldStorage, CompletenessRequiresSealAndAllWritten) {
  FieldStorage fs(decl1d());
  const int32_t v = 9;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&v));
  fs.store(0, nd::Region::point({1}),
           reinterpret_cast<const std::byte*>(&v));
  EXPECT_FALSE(fs.is_complete(0)) << "not sealed yet";
  fs.seal(0, nd::Extents({2}));
  EXPECT_TRUE(fs.is_complete(0));
  fs.seal(0, nd::Extents({2}));  // idempotent
  EXPECT_TRUE(fs.is_complete(0));
}

TEST(FieldStorage, SealAtUnionWhenDataExceedsProposal) {
  FieldStorage fs(decl1d());
  const int32_t v = 9;
  fs.store(0, nd::Region::point({7}),
           reinterpret_cast<const std::byte*>(&v));
  fs.seal(0, nd::Extents({3}));
  EXPECT_EQ(fs.extents(0), nd::Extents({8}));
}

TEST(FieldStorage, RegionWrittenPartial) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  EXPECT_TRUE(fs.region_written(0, nd::Region({nd::Interval{0, 3}})));
  EXPECT_FALSE(fs.region_written(0, nd::Region({nd::Interval{0, 4}})))
      << "outside current extents";
  EXPECT_FALSE(fs.region_written(1, nd::Region::point({0})))
      << "untouched age";
}

TEST(FieldStorage, ReleaseAgeFreesMemory) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  fs.store_whole(1, ints({4, 5, 6}));
  const size_t before = fs.memory_bytes();
  fs.release_age(0);
  EXPECT_LT(fs.memory_bytes(), before);
  EXPECT_EQ(fs.live_ages(), (std::vector<Age>{1}));
}

TEST(FieldStorage, NegativeAgeRejected) {
  FieldStorage fs(decl1d());
  const int32_t v = 1;
  EXPECT_THROW(fs.store(-1, nd::Region::point({0}),
                        reinterpret_cast<const std::byte*>(&v)),
               Error);
}

// --- zero-copy views -------------------------------------------------------

TEST(FieldStorageView, WholeFetchOfSealedAgeDoesNotAllocate) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({10, 11, 12}));
  fs.seal(0, nd::Extents({3}));

  // The whole point of the view path: fetching a sealed age must not touch
  // the allocator or copy the payload. The buffer was stored at its final
  // extents, so even the first (publishing) fetch is alias-only.
  const int64_t before = nd::buffer_alloc_count();
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before) << "fetch allocated or copied";

  EXPECT_TRUE(view->is_contiguous());
  EXPECT_EQ(view->extents(), nd::Extents({3}));
  EXPECT_EQ(view->at_flat<int32_t>(2), 12);

  // Repeated fetches alias the same memory.
  const auto again = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(view->raw(), again->raw());
  EXPECT_EQ(nd::buffer_alloc_count(), before);
}

TEST(FieldStorageView, UnsealedAgeYieldsNoView) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  EXPECT_FALSE(fs.try_fetch_view_whole(0).has_value())
      << "unsealed buffers may still be reallocated; views must refuse";
  EXPECT_FALSE(fs.try_fetch_view(0, nd::Region::point({0})).has_value());
  fs.seal(0, nd::Extents({3}));
  EXPECT_TRUE(fs.try_fetch_view_whole(0).has_value());
}

TEST(FieldStorageView, ContiguousSubRegionAliasesStorage) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  nd::AnyBuffer grid(nd::ElementType::kInt32, nd::Extents({3, 4}));
  for (int64_t i = 0; i < 12; ++i) grid.data<int32_t>()[i] = 100 + i;
  fs.store_whole(0, grid);
  fs.seal(0, nd::Extents({3, 4}));

  // Row 1 is one contiguous run: dense view, no copy.
  const int64_t before = nd::buffer_alloc_count();
  const auto row = fs.try_fetch_view(
      0, nd::Region({nd::Interval{1, 2}, nd::Interval{0, 4}}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before);
  EXPECT_TRUE(row->is_contiguous());
  EXPECT_EQ(row->at_flat<int32_t>(0), 104);
  EXPECT_EQ(row->at_flat<int32_t>(3), 107);
}

TEST(FieldStorageView, StridedColumnViewMatchesCopyFetch) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  nd::AnyBuffer grid(nd::ElementType::kInt32, nd::Extents({3, 4}));
  for (int64_t i = 0; i < 12; ++i) grid.data<int32_t>()[i] = 100 + i;
  fs.store_whole(0, grid);
  fs.seal(0, nd::Extents({3, 4}));

  // Column 2 is strided (stride 4 between elements) but still zero-copy.
  const nd::Region column({nd::Interval{0, 3}, nd::Interval{2, 3}});
  const int64_t before = nd::buffer_alloc_count();
  const auto view = fs.try_fetch_view(0, column);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before) << "strided views still alias";
  EXPECT_FALSE(view->is_contiguous());
  EXPECT_EQ(view->extents(), nd::Extents({3, 1}));
  EXPECT_EQ(view->at_flat<int32_t>(0), 102);
  EXPECT_EQ(view->at_flat<int32_t>(1), 106);
  EXPECT_EQ(view->at<int32_t>({2, 0}), 110);
  EXPECT_THROW((void)view->raw(), Error) << "raw() is contiguous-only";

  // materialize() packs exactly what fetch() copies.
  const nd::AnyBuffer packed = view->materialize();
  const nd::AnyBuffer copied = fs.fetch(0, column);
  ASSERT_EQ(packed.element_count(), copied.element_count());
  for (int64_t i = 0; i < packed.element_count(); ++i) {
    EXPECT_EQ(packed.at<int32_t>(i), copied.at<int32_t>(i));
  }
}

TEST(FieldStorageView, ViewOutlivesReleaseAge) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({7, 8, 9}));
  fs.seal(0, nd::Extents({3}));
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());

  fs.release_age(0);
  EXPECT_TRUE(fs.live_ages().empty());
  EXPECT_EQ(thrown_kind([&] { (void)fs.try_fetch_view_whole(0); }),
            ErrorKind::kInternal)
      << "released ages stop handing out new views";

  // The keepalive keeps the payload valid for the view already held.
  EXPECT_EQ(view->at_flat<int32_t>(0), 7);
  EXPECT_EQ(view->at_flat<int32_t>(2), 9);
}

TEST(FieldStorageView, LazySealedAgePublishesOnFirstFetch) {
  FieldStorage fs(decl1d());
  // Sealed but only partially stored: the buffer is smaller than the seal
  // until publish grows it (the elided-fusion-intermediate shape).
  const int32_t v = 5;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&v));
  fs.seal(0, nd::Extents({4}));
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->extents(), nd::Extents({4}));
  EXPECT_EQ(view->at_flat<int32_t>(0), 5);
}

// Concurrent readers hold views across release_age while a writer keeps
// producing new ages — the race the keepalive + lock-free seal index must
// survive. Run under P2G_SANITIZE=thread to let TSan check it.
TEST(FieldStorageStress, ConcurrentViewsAcrossRelease) {
  constexpr Age kAges = 96;
  constexpr int kReaders = 4;
  constexpr int64_t kElems = 64;

  FieldStorage fs(decl1d("stress"));
  for (Age a = 0; a < kAges; ++a) {
    nd::AnyBuffer buf(nd::ElementType::kInt32, nd::Extents({kElems}));
    for (int64_t i = 0; i < kElems; ++i) {
      buf.data<int32_t>()[i] = static_cast<int32_t>(a);
    }
    fs.store_whole(a, buf);
    fs.seal(a, nd::Extents({kElems}));
  }

  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> views_read{0};
  // Readers that have finished their first iteration. The releaser waits
  // for all of them, so a loaded machine cannot let it release every age
  // before any reader runs.
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&fs, &mismatches, &views_read, &started, t] {
      for (int iter = 0; iter < 4000; ++iter) {
        if (iter == 1) started.fetch_add(1);
        const Age a = (iter * 13 + t * 7) % kAges;
        std::optional<nd::ConstView> view;
        try {
          view = fs.try_fetch_view_whole(a);
        } catch (const Error& e) {
          // Already released: allowed, as the kInternal read error.
          if (e.kind() != ErrorKind::kInternal) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        if (!view) continue;
        // Hold the view and read it fully — release_age may run right now.
        for (int64_t i = 0; i < view->element_count(); ++i) {
          if (view->at_flat<int32_t>(i) != static_cast<int32_t>(a)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        views_read.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread releaser([&fs, &started] {
    while (started.load() < kReaders) std::this_thread::yield();
    for (Age a = 0; a < kAges; ++a) fs.release_age(a);
  });
  for (std::thread& r : readers) r.join();
  releaser.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(views_read.load(), 0) << "test raced to nothing; weaken it";
  EXPECT_TRUE(fs.live_ages().empty());
}

// --- published ages: lock-free stores and queries ----------------------------

const std::byte* bytes_of(const int32_t& v) {
  return reinterpret_cast<const std::byte*>(&v);
}

// N threads store disjoint scalars into a sealed (hence published) age.
// Completeness flips exactly with the last store, and every byte lands.
TEST(FieldStorageConcurrency, DisjointScalarStoresCompleteAtLastStore) {
  constexpr int kThreads = 4;
  constexpr int64_t kElems = 4096;
  FieldStorage fs(decl1d("dist"));
  fs.seal(0, nd::Extents({kElems}));
  EXPECT_TRUE(fs.is_sealed(0));

  std::atomic<int> complete_early{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fs, &complete_early, t] {
      // Element kElems - 1 is held back for the final store below.
      for (int64_t i = t; i < kElems - 1; i += kThreads) {
        const auto v = static_cast<int32_t>(1000 + i);
        fs.store(0, nd::Region::point({i}), bytes_of(v));
        if (fs.is_complete(0)) complete_early.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(complete_early.load(), 0);
  EXPECT_FALSE(fs.is_complete(0));
  EXPECT_EQ(fs.written_count(0), kElems - 1);
  EXPECT_FALSE(fs.region_written(0, nd::Region({nd::Interval{0, kElems}})));

  const auto last = static_cast<int32_t>(1000 + kElems - 1);
  fs.store(0, nd::Region::point({kElems - 1}), bytes_of(last));
  EXPECT_TRUE(fs.is_complete(0));
  EXPECT_EQ(fs.written_count(0), kElems);
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  for (int64_t i = 0; i < kElems; ++i) {
    ASSERT_EQ(view->at_flat<int32_t>(i), 1000 + i) << "element " << i;
  }
}

// Two threads race on the same element of a published age: exactly one
// wins, the other gets the write-once violation, and the winner's bytes
// are what the age holds.
TEST(FieldStorageConcurrency, SameElementRaceHasOneWinner) {
  constexpr Age kRounds = 200;
  FieldStorage fs(decl1d("race"));
  for (Age a = 0; a < kRounds; ++a) {
    fs.seal(a, nd::Extents({2}));
    const int32_t other = 0;
    fs.store(a, nd::Region::point({1}), bytes_of(other));  // publishes
  }
  std::atomic<int> violations{0};
  std::atomic<int> wins[2] = {0, 0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const int32_t v = 10 + t;
      for (Age a = 0; a < kRounds; ++a) {
        try {
          fs.store(a, nd::Region::point({0}), bytes_of(v));
          wins[t].fetch_add(1);
        } catch (const Error& e) {
          EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
          violations.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), kRounds);
  EXPECT_EQ(wins[0].load() + wins[1].load(), kRounds);
  for (Age a = 0; a < kRounds; ++a) {
    EXPECT_TRUE(fs.is_complete(a));
    const int32_t held = fs.fetch(a, nd::Region::point({0})).at<int32_t>(0);
    EXPECT_TRUE(held == 10 || held == 11) << held;
  }
}

// A reader that sees region_written() true must read the stored value,
// never the zero fill: the commit is ordered after the payload copy.
TEST(FieldStorageConcurrency, RegionWrittenImpliesBytesVisible) {
  constexpr int64_t kElems = 2048;
  constexpr int kWriters = 2;
  FieldStorage fs(decl1d("stress"));
  fs.seal(0, nd::Extents({kElems}));
  const int32_t first = 1;
  fs.store(0, nd::Region::point({0}), bytes_of(first));  // publishes
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());

  std::atomic<int64_t> zero_reads{0};
  std::atomic<int64_t> checked{0};
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    started.store(true);
    bool last_pass = false;
    while (!last_pass) {
      last_pass = done.load(std::memory_order_acquire);
      for (int64_t i = 0; i < kElems; ++i) {
        if (!fs.region_written(0, nd::Region::point({i}))) continue;
        if (view->at_flat<int32_t>(i) != static_cast<int32_t>(i + 1)) {
          zero_reads.fetch_add(1);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fs, &started, w] {
      while (!started.load()) std::this_thread::yield();
      for (int64_t i = 1 + w; i < kElems; i += kWriters) {
        const auto v = static_cast<int32_t>(i + 1);
        fs.store(0, nd::Region::point({i}), bytes_of(v));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(zero_reads.load(), 0);
  EXPECT_GE(checked.load(), kElems) << "the final pass sees every element";
  EXPECT_TRUE(fs.is_complete(0));
}

// The directory is paged by age: ages on several pages (and far beyond
// the first spine) resolve independently, and releasing one leaves the
// others intact.
TEST(FieldStorageConcurrency, AgesSpanningDirectoryPages) {
  const std::vector<Age> ages = {0, 1, 255, 256, 257, 511, 512, 4000, 70000};
  FieldStorage fs(decl1d("paged"));
  for (const Age a : ages) {
    fs.seal(a, nd::Extents({1}));
    const auto v = static_cast<int32_t>(a);
    fs.store(a, nd::Region::point({0}), bytes_of(v));
  }
  for (const Age a : ages) {
    EXPECT_TRUE(fs.is_complete(a)) << a;
    const auto view = fs.try_fetch_view_whole(a);
    ASSERT_TRUE(view.has_value()) << a;
    EXPECT_EQ(view->at_flat<int32_t>(0), static_cast<int32_t>(a));
  }
  EXPECT_FALSE(fs.is_sealed(2));
  EXPECT_FALSE(fs.is_sealed(100000));
  fs.release_age(256);
  EXPECT_TRUE(fs.is_sealed(256)) << "released ages stay sealed";
  EXPECT_TRUE(fs.is_complete(256));
  EXPECT_EQ(thrown_kind([&] { (void)fs.try_fetch_view_whole(256); }),
            ErrorKind::kInternal);
  EXPECT_TRUE(fs.is_complete(255));
  EXPECT_TRUE(fs.is_complete(257));
  EXPECT_EQ(fs.live_ages().size(), ages.size() - 1);
}

// Released ages are recorded as a run plus sparse ages, in any release
// order; directory pages whose ages are all released are unlinked while
// their neighbours keep resolving.
TEST(FieldStorageConcurrency, ReleasedRecordAndPagesInAnyOrder) {
  constexpr Age kAges = 3 * 256;
  FieldStorage fs(decl1d("record"));
  for (Age a = 0; a < kAges; ++a) {
    fs.seal(a, nd::Extents({1}));
    const auto v = static_cast<int32_t>(a);
    fs.store(a, nd::Region::point({0}), bytes_of(v));
  }
  // Out of order: the run starts at 300, grows down to 0 and up past the
  // sparse ages 520 and 600, which it absorbs.
  fs.release_age(600);
  fs.release_age(520);
  for (Age a = 300; a >= 0; --a) fs.release_age(a);
  for (Age a = 301; a < 520; ++a) fs.release_age(a);
  fs.release_age(520);  // already released: no-op
  for (Age a = 521; a < 600; ++a) fs.release_age(a);
  for (Age a = 0; a <= 600; ++a) {
    ASSERT_TRUE(fs.is_sealed(a)) << a;
    ASSERT_TRUE(fs.is_complete(a)) << a;
    ASSERT_EQ(thrown_kind([&] { (void)fs.try_fetch_view_whole(a); }),
              ErrorKind::kInternal)
        << a;
  }
  EXPECT_EQ(fs.live_ages().size(), static_cast<size_t>(kAges - 601));
  for (Age a = 601; a < kAges; ++a) {
    const auto view = fs.try_fetch_view_whole(a);
    ASSERT_TRUE(view.has_value()) << a;
    EXPECT_EQ(view->at_flat<int32_t>(0), static_cast<int32_t>(a));
  }
  EXPECT_FALSE(fs.is_sealed(kAges)) << "ages past the run are untouched";
}

// release_age of a published age with and without a live view.
TEST(FieldStorageConcurrency, ReleasePublishedAgeWithAndWithoutView) {
  FieldStorage fs(decl1d());
  for (Age a = 0; a < 2; ++a) {
    fs.seal(a, nd::Extents({3}));
    fs.store_whole(a, ints({7, 8, 9}));
  }
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  const size_t before = fs.memory_bytes();
  fs.release_age(0);  // a view is live
  fs.release_age(1);  // no view
  EXPECT_LT(fs.memory_bytes(), before);
  EXPECT_TRUE(fs.live_ages().empty());
  EXPECT_TRUE(fs.is_sealed(1));
  EXPECT_TRUE(fs.is_complete(1));
  EXPECT_EQ(thrown_kind([&] { (void)fs.written_count(1); }),
            ErrorKind::kInternal);
  EXPECT_EQ(view->at_flat<int32_t>(2), 9);  // the keepalive holds
  // A released age stays released: it is not re-created by a store.
  const int32_t v = 1;
  EXPECT_EQ(thrown_kind([&] {
              fs.store(1, nd::Region::point({0}), bytes_of(v));
            }),
            ErrorKind::kWriteOnceViolation);
  EXPECT_TRUE(fs.is_sealed(1));
  EXPECT_TRUE(fs.live_ages().empty());
}

// Lock-free lookups racing release_age: every answer is either the
// pre-release one or the released one (sealed and complete; reads of the
// data or shape throw kInternal), never a crash or a torn record.
TEST(FieldStorageConcurrency, LookupsRaceRelease) {
  constexpr Age kAges = 300;
  constexpr int64_t kElems = 16;
  FieldStorage fs(decl1d("released"));
  for (Age a = 0; a < kAges; ++a) {
    fs.seal(a, nd::Extents({kElems}));
    nd::AnyBuffer buf(nd::ElementType::kInt32, nd::Extents({kElems}));
    for (int64_t i = 0; i < kElems; ++i) {
      buf.data<int32_t>()[i] = static_cast<int32_t>(a);
    }
    fs.store_whole(a, buf);
  }
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&fs, &bad, t] {
      for (int iter = 0; iter < 3000; ++iter) {
        const Age a = (iter * 7 + t * 31) % kAges;
        // A read either succeeds with the stored answer or finds the age
        // released.
        const auto read = [&bad](auto&& fn) {
          const std::optional<ErrorKind> kind = thrown_kind(fn);
          if (kind && *kind != ErrorKind::kInternal) bad.fetch_add(1);
        };
        read([&] {
          if (fs.written_count(a) != kElems) bad.fetch_add(1);
        });
        read([&] {
          if (fs.extents(a).dim(0) != kElems) bad.fetch_add(1);
        });
        if (!fs.is_sealed(a) || !fs.is_complete(a)) bad.fetch_add(1);
        read([&] {
          if (!fs.region_written(a, nd::Region::point({3}))) bad.fetch_add(1);
        });
        read([&] {
          const auto view = fs.try_fetch_view(a, nd::Region::point({3}));
          if (!view || view->at_flat<int32_t>(0) != static_cast<int32_t>(a)) {
            bad.fetch_add(1);
          }
        });
      }
    });
  }
  std::thread releaser([&fs] {
    for (Age a = 0; a < kAges; ++a) fs.release_age(a);
  });
  for (std::thread& r : readers) r.join();
  releaser.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(fs.live_ages().empty());
}

// Non-contiguous (block) stores into a published age claim and commit row
// by row; a conflict names the first already-written element, as the
// locked path does.
TEST(FieldStorageConcurrency, BlockStoresOnPublishedAge) {
  FieldDecl d;
  d.id = 0;
  d.name = "plane";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  fs.seal(0, nd::Extents({4, 4}));
  const nd::Region block({nd::Interval{0, 2}, nd::Interval{1, 3}});
  const nd::AnyBuffer values = ints({1, 2, 3, 4});
  fs.store(0, block, values.raw());
  EXPECT_TRUE(fs.region_written(0, block));
  EXPECT_FALSE(fs.region_written(
      0, nd::Region({nd::Interval{0, 3}, nd::Interval{1, 3}})));
  EXPECT_EQ(fs.written_count(0), 4);
  const nd::AnyBuffer out = fs.fetch(0, block);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out.at<int32_t>(i), static_cast<int32_t>(i + 1));
  }
  const nd::Region overlap({nd::Interval{1, 3}, nd::Interval{0, 2}});
  try {
    fs.store(0, overlap, values.raw());
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    const std::string what = e.what();
    EXPECT_NE(what.find("region " + nd::Region::point({1, 1}).to_string() +
                        " of field plane age 0 overlaps"),
              std::string::npos)
        << what;
  }
}

// store_fill on a published age writes only the cells not written yet and
// never overwrites a committed one.
TEST(FieldStorageConcurrency, StoreFillOnPublishedAge) {
  FieldStorage fs(decl1d());
  fs.seal(0, nd::Extents({4}));
  const int32_t v = 42;
  fs.store(0, nd::Region::point({1}), bytes_of(v));  // publishes
  const nd::AnyBuffer fill = ints({1, 2, 3, 4});
  EXPECT_EQ(fs.store_fill(0, nd::Region::whole(fill.extents()), fill.raw()),
            3);
  EXPECT_TRUE(fs.is_complete(0));
  const nd::AnyBuffer out = fs.fetch_whole(0);
  EXPECT_EQ(out.at<int32_t>(0), 1);
  EXPECT_EQ(out.at<int32_t>(1), 42) << "fill must not overwrite";
  EXPECT_EQ(out.at<int32_t>(3), 4);
  EXPECT_EQ(fs.store_fill(0, nd::Region::whole(fill.extents()), fill.raw()),
            0);
  EXPECT_THROW(fs.store_fill(0, nd::Region::point({9}), fill.raw()), Error);
}

// Checked-mode provenance survives publishing: a violation on the
// published path still names the earlier writer, whether it stored before
// or after the age was published.
TEST(FieldStorageConcurrency, PublishedPathNamesBothWriters) {
  FieldStorage fs(decl1d());
  fs.track_writers(true);
  const int32_t v = 7;
  const StoreOrigin before_seal{"early", 0, {0}};
  fs.store(0, nd::Region::point({0}), bytes_of(v), &before_seal);
  fs.seal(0, nd::Extents({3}));
  const StoreOrigin alpha{"alpha", 0, {2}};
  fs.store(0, nd::Region::point({2}), bytes_of(v), &alpha);  // publishes
  for (const auto& [element, first] :
       {std::pair<int64_t, const char*>{0, "early"}, {2, "alpha"}}) {
    const StoreOrigin beta{"beta", 0, {element}};
    try {
      fs.store(0, nd::Region::point({element}), bytes_of(v), &beta);
      FAIL() << "expected write-once violation";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
      const std::string what = e.what();
      EXPECT_NE(what.find("writer: kernel 'beta'"), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("previously written by kernel '") +
                          first + "'"),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace p2g
