// Tests for the p2gcheck concurrency subsystem: the vector-clock
// happens-before engine, the recording session, the seeded schedule
// explorer (determinism, replay, exhaustive enumeration), the built-in
// suites over the converted core/dist/ft subsystems, and the seeded-bug
// fixtures the checker must find.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>

#include "check/explore.h"
#include "check/hb_engine.h"
#include "check/registry.h"
#include "check/session.h"
#include "check/sync.h"
#include "check/vector_clock.h"
#include "core/trace.h"

namespace p2g::check {
namespace {

Site site(const char* label) { return Site{label, "test.cpp", 1}; }

int dummy_a = 0;
int dummy_b = 0;

// --- vector clocks -----------------------------------------------------------

TEST(VectorClock, CoversAndJoin) {
  VectorClock a;
  a.set(0, 3);
  a.set(1, 1);
  EXPECT_TRUE(a.covers(Epoch{0, 3}));
  EXPECT_FALSE(a.covers(Epoch{0, 4}));
  EXPECT_FALSE(a.covers(Epoch{2, 1}));

  VectorClock b;
  b.set(2, 5);
  b.join(a);
  EXPECT_TRUE(b.covers(Epoch{0, 3}));
  EXPECT_TRUE(b.covers(Epoch{2, 5}));
  EXPECT_TRUE(b.covers(a));
  EXPECT_FALSE(a.covers(b));
}

// --- happens-before engine ---------------------------------------------------

TEST(HbEngine, ReportsWriteWriteRaceWithBothSites) {
  HbEngine engine;
  engine.begin_thread(0, "alpha");
  engine.begin_thread(1, "beta");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.access(1, &dummy_a, sizeof(dummy_a), true, site("x"));
  ASSERT_EQ(engine.report().count(analysis::kDataRace), 1u);
  const analysis::Diagnostic& d = engine.report().diagnostics[0];
  EXPECT_NE(d.primary.name.find("beta"), std::string::npos) << d.to_string();
  EXPECT_NE(d.secondary.name.find("alpha"), std::string::npos)
      << d.to_string();
  EXPECT_NE(d.primary.name.find("'x'"), std::string::npos);
}

TEST(HbEngine, MutexHandoffOrdersAccesses) {
  HbEngine engine;
  engine.begin_thread(0, "a");
  engine.begin_thread(1, "b");
  engine.acquired(0, &dummy_b, LockMode::kExclusive, "m");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.released(0, &dummy_b, LockMode::kExclusive);
  engine.acquired(1, &dummy_b, LockMode::kExclusive, "m");
  engine.access(1, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.released(1, &dummy_b, LockMode::kExclusive);
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, SharedLockDoesNotOrderConcurrentWriters) {
  // Two threads touching the same cell under *shared* (reader) locks: the
  // reader release clock must not create an edge that masks the race.
  HbEngine engine;
  engine.begin_thread(0, "a");
  engine.begin_thread(1, "b");
  engine.acquired(0, &dummy_b, LockMode::kShared, "rw");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.released(0, &dummy_b, LockMode::kShared);
  engine.acquired(1, &dummy_b, LockMode::kShared, "rw");
  engine.access(1, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.released(1, &dummy_b, LockMode::kShared);
  EXPECT_EQ(engine.report().count(analysis::kDataRace), 1u)
      << engine.report().to_text();
}

TEST(HbEngine, SharedReadersThenExclusiveWriterIsOrdered) {
  HbEngine engine;
  engine.begin_thread(0, "r1");
  engine.begin_thread(1, "r2");
  engine.begin_thread(2, "w");
  for (int tid : {0, 1}) {
    engine.acquired(tid, &dummy_b, LockMode::kShared, "rw");
    engine.access(tid, &dummy_a, sizeof(dummy_a), false, site("x"));
    engine.released(tid, &dummy_b, LockMode::kShared);
  }
  engine.acquired(2, &dummy_b, LockMode::kExclusive, "rw");
  engine.access(2, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.released(2, &dummy_b, LockMode::kExclusive);
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, ForkAndJoinCreateEdges) {
  HbEngine engine;
  engine.begin_thread(0, "parent");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.begin_thread(1, "child");
  engine.fork(0, 1);
  engine.access(1, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.join(0, 1);
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, ReleaseAcquireTokenPublishes) {
  HbEngine engine;
  engine.begin_thread(0, "pub");
  engine.begin_thread(1, "sub");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("payload"));
  engine.hb_release(0, &dummy_b);
  engine.hb_acquire(1, &dummy_b);
  engine.access(1, &dummy_a, sizeof(dummy_a), false, site("payload"));
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, MissingAcquireIsARace) {
  HbEngine engine;
  engine.begin_thread(0, "pub");
  engine.begin_thread(1, "sub");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("payload"));
  engine.hb_release(0, &dummy_b);
  engine.access(1, &dummy_a, sizeof(dummy_a), false, site("payload"));
  EXPECT_EQ(engine.report().count(analysis::kDataRace), 1u);
}

TEST(HbEngine, FencesOrderEachOther) {
  HbEngine engine;
  engine.begin_thread(0, "a");
  engine.begin_thread(1, "b");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("x"));
  engine.fence(0);
  engine.fence(1);
  engine.access(1, &dummy_a, sizeof(dummy_a), false, site("x"));
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, ResetForgetsRecycledMemory) {
  HbEngine engine;
  engine.begin_thread(0, "a");
  engine.begin_thread(1, "b");
  engine.access(0, &dummy_a, sizeof(dummy_a), true, site("old tenant"));
  engine.reset(&dummy_a, sizeof(dummy_a));
  engine.access(1, &dummy_a, sizeof(dummy_a), true, site("new tenant"));
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

TEST(HbEngine, LockOrderCycleReported) {
  HbEngine engine;
  engine.begin_thread(0, "ab");
  engine.begin_thread(1, "ba");
  engine.acquired(0, &dummy_a, LockMode::kExclusive, "A");
  engine.acquired(0, &dummy_b, LockMode::kExclusive, "B");
  engine.released(0, &dummy_b, LockMode::kExclusive);
  engine.released(0, &dummy_a, LockMode::kExclusive);
  engine.acquired(1, &dummy_b, LockMode::kExclusive, "B");
  engine.acquired(1, &dummy_a, LockMode::kExclusive, "A");
  engine.released(1, &dummy_a, LockMode::kExclusive);
  engine.released(1, &dummy_b, LockMode::kExclusive);
  engine.finish();
  ASSERT_EQ(engine.report().count(analysis::kLockCycle), 1u)
      << engine.report().to_text();
  const analysis::Diagnostic* d = engine.report().find(analysis::kLockCycle);
  EXPECT_NE(d->message.find("'A'"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("'B'"), std::string::npos) << d->message;
}

TEST(HbEngine, ConsistentLockOrderIsClean) {
  HbEngine engine;
  engine.begin_thread(0, "t0");
  engine.begin_thread(1, "t1");
  for (int tid : {0, 1}) {
    engine.acquired(tid, &dummy_a, LockMode::kExclusive, "A");
    engine.acquired(tid, &dummy_b, LockMode::kExclusive, "B");
    engine.released(tid, &dummy_b, LockMode::kExclusive);
    engine.released(tid, &dummy_a, LockMode::kExclusive);
  }
  engine.finish();
  EXPECT_TRUE(engine.report().empty()) << engine.report().to_text();
}

// --- recording mode ----------------------------------------------------------

TEST(RecordSession, LockedCounterIsClean) {
  CheckSession::Options options;
  options.mode = CheckSession::Mode::kRecord;
  CheckSession session(options);
  {
    sync::Mutex m("test.m");
    int64_t counter = 0;
    const auto body = [&] {
      std::scoped_lock lock(m);
      check::write(counter, "test.counter");
      counter += 1;
    };
    sync::Thread t1("t1", body);
    sync::Thread t2("t2", body);
    t1.join();
    t2.join();
  }
  session.finish();
  EXPECT_TRUE(session.report().empty()) << session.report().to_text();
}

TEST(RecordSession, UnsyncCounterIsARaceUnderAnySchedule) {
  // No locks at all: whatever interleaving the OS produced, there is no
  // happens-before edge between the two writes, so recording mode flags
  // it deterministically.
  CheckSession::Options options;
  options.mode = CheckSession::Mode::kRecord;
  CheckSession session(options);
  {
    int64_t counter = 0;
    const auto body = [&] {
      check::write(counter, "test.counter");
      counter += 1;
    };
    sync::Thread t1("t1", body);
    sync::Thread t2("t2", body);
    t1.join();
    t2.join();
  }
  session.finish();
  EXPECT_EQ(session.report().count(analysis::kDataRace), 1u)
      << session.report().to_text();
}

// --- schedule explorer -------------------------------------------------------

/// Small two-thread body used by the determinism and enumeration tests.
void tiny_body(CheckSession& session) {
  auto m = std::make_shared<sync::Mutex>("tiny.m");
  auto counter = std::make_shared<int64_t>(0);
  const auto body = [m, counter] {
    std::scoped_lock lock(*m);
    check::write(*counter, "tiny.counter");
    *counter += 1;
  };
  session.spawn("t1", body);
  session.spawn("t2", body);
}

TEST(Explorer, SameSeedSameSchedule) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    const RunResult first = run_once(tiny_body, seed);
    const RunResult second = run_once(tiny_body, seed);
    EXPECT_EQ(first.trace, second.trace) << "seed " << seed;
    EXPECT_FALSE(first.trace.empty());
    EXPECT_TRUE(first.report.empty()) << first.report.to_text();
  }
}

TEST(Explorer, ExhaustiveEnumerationCompletesOnSmallBody) {
  SweepOptions options;
  options.exhaustive = true;
  options.max_runs = 512;
  const SweepResult result = sweep(tiny_body, options);
  EXPECT_TRUE(result.complete);
  // At minimum both orders of the two lock acquisitions are explored.
  EXPECT_GT(result.runs, 1u);
  EXPECT_TRUE(result.clean());
}

TEST(Explorer, FindsSeededRaceWithBothSites) {
  register_builtin_suites();
  const CheckSuite* suite = find_suite("demo.known_race");
  ASSERT_NE(suite, nullptr);
  SweepOptions options;
  options.seeds = 50;
  const SweepResult result = sweep(suite->body, options);
  ASSERT_FALSE(result.clean());
  const RunResult& failure = result.failures[0];
  ASSERT_EQ(failure.report.count(analysis::kDataRace), 1u)
      << failure.report.to_text();
  const analysis::Diagnostic* d = failure.report.find(analysis::kDataRace);
  EXPECT_NE(d->primary.name.find("incr-"), std::string::npos);
  EXPECT_NE(d->secondary.name.find("incr-"), std::string::npos);

  // Replay: the reported seed reproduces the identical schedule and the
  // identical finding.
  const RunResult replay = run_once(suite->body, failure.seed);
  EXPECT_EQ(replay.trace, failure.trace);
  EXPECT_EQ(replay.report.count(analysis::kDataRace), 1u);
}

TEST(Explorer, FindsLostWakeup) {
  register_builtin_suites();
  const CheckSuite* suite = find_suite("demo.lost_wakeup");
  ASSERT_NE(suite, nullptr);
  SweepOptions options;
  options.seeds = 100;
  const SweepResult result = sweep(suite->body, options);
  ASSERT_FALSE(result.clean());
  EXPECT_GE(result.failures[0].report.count(analysis::kLostWakeup), 1u)
      << result.failures[0].report.to_text();
}

TEST(Explorer, FindsLockCycle) {
  register_builtin_suites();
  const CheckSuite* suite = find_suite("demo.lock_cycle");
  ASSERT_NE(suite, nullptr);
  SweepOptions options;
  options.seeds = 100;
  const SweepResult result = sweep(suite->body, options);
  ASSERT_FALSE(result.clean());
  EXPECT_GE(result.failures[0].report.count(analysis::kLockCycle), 1u)
      << result.failures[0].report.to_text();
}

TEST(Explorer, StepBudgetOverrunReportsLivelock) {
  CheckSession::Options options;
  options.max_steps = 200;
  CheckSession session(options);
  session.spawn("spinner", [] {
    for (;;) check::fence();
  });
  session.run();
  EXPECT_EQ(session.report().count(analysis::kLiveLock), 1u)
      << session.report().to_text();
}

TEST(Explorer, PublicationWithoutReleaseIsFlagged) {
  // The publication pattern with the release edge removed: the annotations
  // on FieldStorage are load-bearing, not decorative.
  const auto broken = [](CheckSession& session) {
    struct Shared {
      int64_t payload = 0;
      int64_t flag = 0;
    };
    auto s = std::make_shared<Shared>();
    session.spawn("publisher", [s] {
      check::write(s->payload, "pub.payload");
      s->payload = 7;
      // BUG: missing check::release(&s->flag).
    });
    session.spawn("subscriber", [s] {
      check::acquire(&s->flag);
      check::read(s->payload, "pub.payload");
    });
  };
  SweepOptions options;
  options.seeds = 50;
  const SweepResult result = sweep(broken, options);
  ASSERT_FALSE(result.clean());
  EXPECT_EQ(result.failures[0].report.count(analysis::kDataRace), 1u);
}

// --- converted-subsystem suites (the acceptance sweeps) ----------------------

class BuiltinSuiteSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(BuiltinSuiteSweep, TwoHundredSeedsClean) {
  register_builtin_suites();
  const CheckSuite* suite = find_suite(GetParam());
  ASSERT_NE(suite, nullptr);
  ASSERT_FALSE(suite->expect_findings);
  SweepOptions options;
  options.seeds = 200;
  const SweepResult result = sweep(suite->body, options);
  EXPECT_EQ(result.runs, 200u);
  EXPECT_TRUE(result.clean())
      << result.failures[0].report.to_text() << "\nreplay seed "
      << result.failures[0].seed;
}

INSTANTIATE_TEST_SUITE_P(
    Converted, BuiltinSuiteSweep,
    ::testing::Values("blocking_queue.pop_all_shutdown",
                      "ready_queue.shutdown", "analyzer.combine",
                      "field.seal_publish",
                      "field.release_on_done", "bus.shutdown",
                      "reliable.stop", "flight_recorder.ring"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// --- passthrough path --------------------------------------------------------

TEST(Passthrough, PrimitivesWorkWithoutASession) {
  sync::Mutex m("loose.m");
  sync::SharedMutex rw("loose.rw");
  sync::CondVar cv("loose.cv");
  int64_t counter = 0;
  {
    std::scoped_lock lock(m);
    check::write(counter, "loose.counter");
    counter = 1;
  }
  {
    std::shared_lock lock(rw);
    check::read(counter, "loose.counter");
  }
  sync::Thread t("loose.t", [&] {
    std::unique_lock lock(m);
    counter = 2;
    cv.notify_all();
  });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return counter == 2; });
  }
  t.join();
  EXPECT_EQ(counter, 2);
}

// --- SIGABRT dump regression (async-signal-safe formatting) ------------------

TEST(FlightRecorderAbortDump, DumpsRingsFromSignalContext) {
  const std::string path =
      ::testing::TempDir() + "/p2g_check_abort_dump.jsonl";
  std::remove(path.c_str());
  TraceCollector recorder(TraceCollector::kFlightCapacity);
  TraceCollector::Record r;
  r.start_ns = 1234;
  r.duration_ns = 56;
  r.thread_id = 3;
  r.kind = SpanKind::kOther;
  r.name = recorder.intern("fatal-step");
  r.span_id = 0xabcdef;
  recorder.record(r);
  TraceCollector::install_abort_dump(path);
  // The death-test child inherits the handler, the registry, and the open
  // fd; abort() runs the handler in true signal context before dying.
  EXPECT_DEATH(std::abort(), "");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  EXPECT_NE(dump.find("\"fatal-step\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"p2g.flight\""), std::string::npos);
  EXPECT_NE(dump.find("\"ts_ns\": 1234"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"dur_ns\": 56"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"span\": \"0xabcdef\""), std::string::npos) << dump;
}

}  // namespace
}  // namespace p2g::check
