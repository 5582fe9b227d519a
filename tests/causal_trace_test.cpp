// Distributed causal tracing (ISSUE 6): critical-path analysis over
// hand-built span DAGs, flight recording (bounded collectors), the
// trace-JSON reader, and
// an end-to-end distributed run producing a merged trace with cross-node
// flow arrows and non-empty critical paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "dist/master.h"
#include "obs/causal.h"
#include "obs/trace_reader.h"
#include "workloads/mul2plus5.h"

namespace p2g {
namespace {

// The obs layer mirrors core's SpanKind by value (it sits below core in
// the library graph); the converting layers cast between them, so the
// enumerators must stay aligned.
TEST(SpanKindMirror, ObsEnumMatchesCoreEnum) {
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kWorker),
            static_cast<int>(SpanKind::kWorker));
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kAnalyzer),
            static_cast<int>(SpanKind::kAnalyzer));
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kWire),
            static_cast<int>(SpanKind::kWire));
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kRemoteStore),
            static_cast<int>(SpanKind::kRemoteStore));
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kRecovery),
            static_cast<int>(SpanKind::kRecovery));
  EXPECT_EQ(static_cast<int>(obs::SpanKind::kOther),
            static_cast<int>(SpanKind::kOther));
}

TEST(FrameTraceId, DeterministicAndNeverZero) {
  const uint64_t id = frame_trace_id(3, 17);
  EXPECT_EQ(id, frame_trace_id(3, 17));  // nodes agree w/o coordination
  EXPECT_NE(id, 0u);
  EXPECT_NE(id, frame_trace_id(3, 18));
  EXPECT_NE(id, frame_trace_id(4, 17));
  EXPECT_NE(frame_trace_id(0, 0), 0u);
}

// ------------------------------------------------ critical-path analyzer

obs::SpanRecord make_span(const char* name, const char* node,
                          int64_t start_ns, int64_t duration_ns,
                          uint64_t trace, uint64_t span, uint64_t parent,
                          obs::SpanKind kind) {
  obs::SpanRecord rec;
  rec.name = name;
  rec.node = node;
  rec.start_ns = start_ns;
  rec.duration_ns = duration_ns;
  rec.trace_id = trace;
  rec.span_id = span;
  rec.parent_span = parent;
  rec.kind = kind;
  return rec;
}

int64_t bucket_ns(const obs::CriticalPath& path, obs::Bucket bucket) {
  return path.bucket_ns[static_cast<size_t>(bucket)];
}

// producer(A) -> wire(A) -> recv(B) -> consumer(B): durations land in
// exec/wire/store, same-node gaps in queue, the cross-node gap in wire.
std::vector<obs::SpanRecord> cross_node_chain() {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(make_span("produce", "nodeA", 0, 100, 7, 1, 0,
                            obs::SpanKind::kWorker));
  spans.push_back(make_span("wire->nodeB", "nodeA", 200, 50, 7, 2, 1,
                            obs::SpanKind::kWire));
  spans.push_back(make_span("recv:field", "nodeB", 400, 20, 7, 3, 2,
                            obs::SpanKind::kRemoteStore));
  spans.push_back(make_span("consume", "nodeB", 500, 100, 7, 4, 3,
                            obs::SpanKind::kWorker));
  return spans;
}

TEST(CriticalPath, AttributesChainLatencyToBuckets) {
  const obs::CriticalPathReport report =
      obs::analyze_critical_paths(cross_node_chain());
  ASSERT_EQ(report.paths.size(), 1u);
  const obs::CriticalPath& path = report.paths[0];

  EXPECT_EQ(path.trace_id, 7u);
  EXPECT_EQ(path.root_name, "produce");
  EXPECT_EQ(path.terminal_name, "consume");
  ASSERT_EQ(path.chain.size(), 4u);
  EXPECT_EQ(path.total_ns, 600);  // root start 0 -> terminal end 600

  EXPECT_EQ(bucket_ns(path, obs::Bucket::kExec), 200);   // 100 + 100
  // wire span (50) + cross-node gap recv.start - wire.end (150).
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kWire), 200);
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kStore), 20);
  // same-node gaps: produce->wire (100) and recv->consume (80).
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kQueue), 180);
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kRecovery), 0);

  // Buckets + total are consistent.
  int64_t sum = 0;
  for (const int64_t b : path.bucket_ns) sum += b;
  EXPECT_EQ(sum, path.total_ns);

  // Distributions carry one observation per frame.
  EXPECT_EQ(report.total_latency.count, 1);
  ASSERT_EQ(report.bucket_latency.size(), obs::kBucketCount);
  EXPECT_EQ(report.bucket_latency[0].name, "critpath_queue_ns");
  EXPECT_EQ(report.total_latency.name, "critpath_total_ns");

  const std::string text =
      report.to_string(cross_node_chain(), /*top_k=*/5);
  EXPECT_NE(text.find("critical paths: 1 frame(s)"), std::string::npos);
  EXPECT_NE(text.find("produce@nodeA"), std::string::npos);
  EXPECT_NE(text.find("consume@nodeB"), std::string::npos);
}

TEST(CriticalPath, RecoveryOverlapReattributesGapTime) {
  std::vector<obs::SpanRecord> spans = cross_node_chain();
  // A recovery window on the consumer's node overlapping the recv ->
  // consume gap [420, 500) for 50ns.
  spans.push_back(make_span("reassign:nodeC", "nodeB", 430, 50, 0, 99, 0,
                            obs::SpanKind::kRecovery));
  const obs::CriticalPathReport report =
      obs::analyze_critical_paths(spans);
  ASSERT_EQ(report.paths.size(), 1u);
  const obs::CriticalPath& path = report.paths[0];
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kRecovery), 50);
  EXPECT_EQ(bucket_ns(path, obs::Bucket::kQueue), 130);  // 180 - 50
  // A recovery window on the *other* node must not be attributed.
  spans.back().node = "nodeA";
  const obs::CriticalPathReport unaffected =
      obs::analyze_critical_paths(spans);
  EXPECT_EQ(bucket_ns(unaffected.paths[0], obs::Bucket::kRecovery), 0);
}

TEST(CriticalPath, SortsFramesLongestFirst) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(
      make_span("short", "n", 0, 10, 1, 1, 0, obs::SpanKind::kWorker));
  spans.push_back(
      make_span("long", "n", 0, 500, 2, 2, 0, obs::SpanKind::kWorker));
  const obs::CriticalPathReport report =
      obs::analyze_critical_paths(spans);
  ASSERT_EQ(report.paths.size(), 2u);
  EXPECT_EQ(report.paths[0].trace_id, 2u);
  EXPECT_EQ(report.paths[1].trace_id, 1u);
  EXPECT_EQ(report.total_latency.count, 2);
}

TEST(CriticalPath, MissingParentAndCyclesTerminateTheWalk) {
  std::vector<obs::SpanRecord> spans;
  // Parent span 77 was never captured (e.g. it died with a crashed node).
  spans.push_back(make_span("orphan", "n", 100, 10, 5, 6, 77,
                            obs::SpanKind::kWorker));
  // A (accidental) parent cycle between two spans of another frame.
  spans.push_back(
      make_span("a", "n", 0, 10, 9, 10, 11, obs::SpanKind::kWorker));
  spans.push_back(
      make_span("b", "n", 20, 10, 9, 11, 10, obs::SpanKind::kWorker));
  const obs::CriticalPathReport report =
      obs::analyze_critical_paths(spans);
  ASSERT_EQ(report.paths.size(), 2u);  // frames 5 and 9, both terminate
  for (const obs::CriticalPath& path : report.paths) {
    EXPECT_LE(path.chain.size(), 3u);
  }
}

TEST(CriticalPath, EmptyInputYieldsEmptyReport) {
  const obs::CriticalPathReport report = obs::analyze_critical_paths({});
  EXPECT_TRUE(report.empty());
  EXPECT_NE(report.to_string({}).find("0 frame(s)"), std::string::npos);
}

// ------------------------------------------------------- flight recorder

/// A flight recorder: a collector keeping each thread's newest spans.
TraceCollector::Record flight_record(uint32_t name, SpanKind kind,
                                     int64_t t_ns, int64_t thread_id,
                                     uint64_t span_id) {
  TraceCollector::Record r;
  r.start_ns = t_ns;
  r.duration_ns = 1;
  r.thread_id = thread_id;
  r.kind = kind;
  r.name = name;
  r.span_id = span_id;
  return r;
}

TEST(FlightTrace, RecordsEntriesWithExactNames) {
  TraceCollector recorder(TraceCollector::kFlightCapacity);
  const std::string long_name = "a-rather-long-span-name-kept-whole-now";
  TraceCollector::Record first =
      flight_record(recorder.intern("short"), SpanKind::kWorker, 100, 0, 9);
  first.duration_ns = 10;
  first.trace_id = 7;
  first.parent_span = 8;
  first.age = 3;
  recorder.record(first);
  recorder.record(flight_record(recorder.intern(long_name), SpanKind::kWire,
                                200, 0, 10));
  const std::vector<TraceCollector::Span> entries = recorder.spans_snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "short");
  EXPECT_EQ(entries[0].start_ns, 100);
  EXPECT_EQ(entries[0].trace_id, 7u);
  EXPECT_EQ(entries[0].parent_span, 8u);
  EXPECT_EQ(entries[0].span_id, 9u);
  EXPECT_EQ(entries[0].age, 3);
  EXPECT_EQ(entries[0].kind, SpanKind::kWorker);
  EXPECT_EQ(entries[1].name, long_name);
}

TEST(FlightTrace, RingWrapsKeepingTheMostRecentEntries) {
  TraceCollector recorder(TraceCollector::kFlightCapacity);
  const uint32_t name = recorder.intern("e");
  const int total = static_cast<int>(TraceCollector::kFlightCapacity) + 32;
  for (int i = 0; i < total; ++i) {
    recorder.record(flight_record(name, SpanKind::kWorker, i, 0, 1));
  }
  const std::vector<TraceCollector::Span> entries = recorder.spans_snapshot();
  ASSERT_EQ(entries.size(), TraceCollector::kFlightCapacity);
  // The newest 256 survive, oldest -> newest: #32 .. #total-1.
  for (size_t k = 0; k < entries.size(); ++k) {
    EXPECT_EQ(entries[k].start_ns, static_cast<int64_t>(k) + 32);
  }
}

TEST(FlightTrace, ThreadsRecordIntoIndependentRings) {
  TraceCollector recorder(TraceCollector::kFlightCapacity);
  const uint32_t name = recorder.intern("t");
  constexpr int kThreads = 4;
  // Each thread wraps its own ring; no thread evicts another's spans.
  constexpr int kPerThread =
      static_cast<int>(TraceCollector::kFlightCapacity) + 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, name, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(
            flight_record(name, SpanKind::kWorker, t * 1000 + i, t, 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<int64_t, std::vector<int64_t>> by_thread;
  for (const TraceCollector::Span& span : recorder.spans_snapshot()) {
    by_thread[span.thread_id].push_back(span.start_ns);
  }
  ASSERT_EQ(by_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [t, starts] : by_thread) {
    ASSERT_EQ(starts.size(), TraceCollector::kFlightCapacity);
    EXPECT_EQ(starts.front(), t * 1000 + 16);
    EXPECT_EQ(starts.back(), t * 1000 + kPerThread - 1);
  }
}

TEST(FlightTrace, DumpFileIsParseableFlightTrace) {
  TraceCollector recorder(TraceCollector::kFlightCapacity);
  TraceCollector::Record r = flight_record(recorder.intern("postmortem"),
                                           SpanKind::kWorker, 1000, 0, 5);
  r.duration_ns = 50;
  r.trace_id = 3;
  r.parent_span = 4;
  r.age = 1;
  recorder.record(r);
  const std::string path =
      std::string(::testing::TempDir()) + "p2g_flight_dump.json";
  ASSERT_TRUE(recorder.dump_flight(path, "crashed-node"));
  const obs::TraceDocument doc = obs::read_trace_file(path);
  EXPECT_EQ(doc.malformed_lines, 0u);
  EXPECT_EQ(doc.flight_spans, 1u);
  ASSERT_EQ(doc.spans.size(), 1u);
  EXPECT_EQ(doc.spans[0].name, "postmortem");
  EXPECT_EQ(doc.spans[0].node, "crashed-node");
  EXPECT_EQ(doc.spans[0].trace_id, 3u);
  EXPECT_EQ(doc.spans[0].span_id, 5u);
  EXPECT_EQ(doc.spans[0].parent_span, 4u);
  std::remove(path.c_str());
}

// Readers take no lock: snapshots racing writers (wrapping their rings,
// or growing unbounded buffers) must still see each thread's spans in
// order and never a torn or overwritten one (span i carries start_ns i
// and span_id i + 1).
TEST(FlightTrace, SnapshotsRacingWritersSeeOrderedUntornSpans) {
  for (const size_t capacity : {size_t{0}, TraceCollector::kFlightCapacity}) {
    TraceCollector recorder(capacity);
    const uint32_t name = recorder.intern("w");
    constexpr int kWriters = 2;
    constexpr int64_t kSpans = 20000;
    std::atomic<int> done{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&recorder, &done, name, t] {
        for (int64_t i = 0; i < kSpans; ++i) {
          recorder.record(flight_record(name, SpanKind::kWorker, i, t,
                                        static_cast<uint64_t>(i) + 1));
        }
        done.fetch_add(1);
      });
    }
    size_t snapshots = 0;
    while (done.load() < kWriters || snapshots == 0) {
      std::map<int64_t, int64_t> last;
      std::map<int64_t, size_t> count;
      for (const TraceCollector::Span& span : recorder.spans_snapshot()) {
        ASSERT_EQ(span.span_id, static_cast<uint64_t>(span.start_ns) + 1);
        const auto it = last.find(span.thread_id);
        if (it != last.end()) {
          ASSERT_GT(span.start_ns, it->second);
        }
        last[span.thread_id] = span.start_ns;
        ++count[span.thread_id];
      }
      for (const auto& [t, n] : count) {
        ASSERT_LE(n, capacity != 0 ? capacity : size_t{kSpans});
      }
      ++snapshots;
    }
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(recorder.span_count(),
              capacity != 0 ? kWriters * capacity : kWriters * kSpans);
  }
}

// A collector built where a destroyed one lived must not inherit its
// buffers: the per-thread buffer cache is keyed by a never-reused id, not
// by address.
TEST(FlightTrace, CollectorRebuiltAtTheSameAddressSeesOnlyItsOwnRecords) {
  for (const size_t capacity : {size_t{0}, TraceCollector::kFlightCapacity}) {
    std::optional<TraceCollector> slot;
    slot.emplace(capacity);
    const TraceCollector* address = &*slot;
    slot->record(TraceCollector::Span{"first", 1, 1, 0, 0, 1});
    slot->record(TraceCollector::Span{"first", 2, 1, 0, 0, 1});
    slot.emplace(capacity);
    ASSERT_EQ(&*slot, address);
    EXPECT_EQ(slot->span_count(), 0u);
    slot->record(TraceCollector::Span{"second", 3, 1, 0, 0, 1});
    const std::vector<TraceCollector::Span> spans = slot->spans_snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "second");
    EXPECT_EQ(spans[0].start_ns, 3);
  }
}

// ----------------------------------------------------------- trace reader

TEST(TraceReader, RoundTripsCollectorOutput) {
  TraceCollector collector;
  TraceCollector::Span span;
  span.name = "kernel:mul2";
  span.start_ns = 1000;
  span.duration_ns = 2000;
  span.thread_id = 0;
  span.age = 4;
  span.bodies = 1;
  span.kind = SpanKind::kWorker;
  span.trace_id = 0xAB;
  span.span_id = 0xCD;
  span.parent_span = 0xEF;
  collector.record(span);
  collector.record_flow_start(TraceContext{0xAB, 0xCD}, 3000, 0);
  collector.record_flow_finish(TraceContext{0xAB, 0xCD}, 3500, 1);

  const std::string path =
      std::string(::testing::TempDir()) + "p2g_reader_trace.json";
  collector.write_file(path);
  const obs::TraceDocument doc = obs::read_trace_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(doc.malformed_lines, 0u);
  ASSERT_EQ(doc.spans.size(), 1u);
  EXPECT_EQ(doc.spans[0].name, "kernel:mul2");
  EXPECT_EQ(doc.spans[0].trace_id, 0xABu);
  EXPECT_EQ(doc.spans[0].span_id, 0xCDu);
  EXPECT_EQ(doc.spans[0].parent_span, 0xEFu);
  EXPECT_EQ(doc.spans[0].kind, obs::SpanKind::kWorker);
  EXPECT_EQ(doc.spans[0].duration_ns, 2000);
  EXPECT_EQ(doc.flow_starts, 1u);
  EXPECT_EQ(doc.flow_finishes, 1u);
  EXPECT_EQ(doc.cross_node_flows(), 0u);  // single pid lane
  EXPECT_FALSE(doc.process_names.empty());
}

// ------------------------------------------------- end-to-end distributed

TEST(DistributedTrace, MergedTraceHasCrossNodeFlowsAndCriticalPaths) {
  workloads::Mul2Plus5 workload;
  const std::string path =
      std::string(::testing::TempDir()) + "p2g_merged_trace.json";

  dist::MasterOptions options;
  options.nodes = 2;
  options.workers_per_node = 2;
  options.base_options.max_age = 3;
  options.program_factory = [&workload] { return workload.build(); };
  options.trace_path = path;

  dist::Master master(options);
  const dist::DistributedRunReport report = master.run();
  ASSERT_FALSE(report.timed_out);
  ASSERT_TRUE(report.trace_file.has_value());

  // Well-formed JSON array document (one event per line).
  std::ifstream in(*report.trace_file, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '[');
  EXPECT_EQ(content[content.size() - 2], ']');

  const obs::TraceDocument doc = obs::read_trace_json(content);
  std::remove(path.c_str());
  EXPECT_EQ(doc.malformed_lines, 0u);
  EXPECT_GT(doc.spans.size(), 0u);
  // Node lanes are labeled with their names.
  bool node0_lane = false;
  for (const auto& [pid, name] : doc.process_names) {
    node0_lane = node0_lane || name == "node0";
  }
  EXPECT_TRUE(node0_lane);
  // At least one dependency arrow crosses a node boundary (the wire
  // span's flow finishing at the receiving node's remote-store span).
  EXPECT_GE(doc.cross_node_flows(), 1u);

  // The report carries the same DAG plus its critical paths.
  EXPECT_GT(report.trace_spans.size(), 0u);
  ASSERT_FALSE(report.critical_paths.empty());
  // Every completed frame has a non-empty chain and a wire span exists
  // somewhere in the DAG (data crossed nodes).
  for (const auto& cp : report.critical_paths.paths) {
    EXPECT_FALSE(cp.chain.empty());
    EXPECT_GT(cp.total_ns, 0);
  }
  bool has_wire_span = false;
  for (const obs::SpanRecord& rec : report.trace_spans) {
    has_wire_span = has_wire_span || rec.kind == obs::SpanKind::kWire;
  }
  EXPECT_TRUE(has_wire_span);
  // Per-bucket latency distributions fold into the cluster metrics.
  EXPECT_NE(report.combined_metrics.find_histogram("critpath_total_ns"),
            nullptr);
  EXPECT_NE(report.combined_metrics.find_histogram("critpath_wire_ns"),
            nullptr);

  // The distributed run still computes the right answer while traced.
  ASSERT_EQ(workload.printed->size(), 4u);
  EXPECT_EQ((*workload.printed)[0],
            (std::vector<int32_t>{10, 11, 12, 13, 14, 20, 22, 24, 26,
                                  28}));
}

}  // namespace
}  // namespace p2g
