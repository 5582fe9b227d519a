// Tests for the simulated cluster: serialization, bus, execution nodes,
// master/HLS, distributed runs of the paper's workloads.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "dist/bus.h"
#include "dist/master.h"
#include "dist/message.h"
#include "dist/serialize.h"
#include "net/wire.h"
#include "workloads/kmeans.h"
#include "workloads/mul2plus5.h"
#include "workloads/pipeline.h"

namespace p2g::dist {
namespace {

TEST(Serialize, ScalarAndStringRoundTrip) {
  Writer w;
  w.u8(7);
  w.u32(123456);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  const std::vector<uint8_t> data{1, 2, 3};
  w.blob(data.data(), data.size());

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), data);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncatedMessageThrowsProtocolError) {
  Writer w;
  w.str("hello");
  std::vector<uint8_t> bytes = w.take();
  bytes.resize(bytes.size() - 2);
  Reader r(bytes);
  try {
    r.str();
    FAIL() << "expected protocol error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(Messages, RemoteStoreRoundTrip) {
  RemoteStore store;
  store.field = 3;
  store.age = 17;
  store.region = nd::Region(std::vector<nd::Interval>{{2, 3}, {0, 64}});
  store.producer = 5;
  store.store_decl = 1;
  store.whole = false;
  store.payload = {10, 20, 30};

  const RemoteStore back = RemoteStore::decode(store.encode());
  EXPECT_EQ(back.field, 3);
  EXPECT_EQ(back.age, 17);
  EXPECT_EQ(back.region, store.region);
  EXPECT_EQ(back.producer, 5);
  EXPECT_EQ(back.store_decl, 1u);
  EXPECT_FALSE(back.whole);
  EXPECT_EQ(back.payload, store.payload);
}

TEST(Messages, TopologyReportRoundTrip) {
  TopologyReport report;
  report.topology.name = "node7";
  report.topology.memory_gb = 16.0;
  report.topology.units.push_back(
      graph::ProcessingUnit{graph::ProcessingUnit::Type::kGpu, 16.0});
  report.topology.buses.push_back(graph::Link{0, 0, 5000.0, 1.5});

  const TopologyReport back = TopologyReport::decode(report.encode());
  EXPECT_EQ(back.topology.name, "node7");
  EXPECT_DOUBLE_EQ(back.topology.memory_gb, 16.0);
  ASSERT_EQ(back.topology.units.size(), 1u);
  EXPECT_EQ(back.topology.units[0].type,
            graph::ProcessingUnit::Type::kGpu);
  ASSERT_EQ(back.topology.buses.size(), 1u);
  EXPECT_DOUBLE_EQ(back.topology.buses[0].bandwidth_mbps, 5000.0);
}

TEST(Messages, ProfileAndIdleReportRoundTrip) {
  ProfileReport profile;
  KernelStats stats;
  stats.name = "assign";
  stats.dispatches = 11;
  stats.instances = 12;
  stats.dispatch_ns = 13;
  stats.kernel_ns = 14;
  profile.report.kernels.push_back(stats);
  const ProfileReport back = ProfileReport::decode(profile.encode());
  ASSERT_EQ(back.report.kernels.size(), 1u);
  EXPECT_EQ(back.report.kernels[0].name, "assign");
  EXPECT_EQ(back.report.kernels[0].kernel_ns, 14);

  IdleReport idle{true, 100, 100};
  const IdleReport idle_back = IdleReport::decode(idle.encode());
  EXPECT_TRUE(idle_back.idle);
  EXPECT_EQ(idle_back.stores_sent, 100);
}

TEST(Messages, MetricsReportRoundTrip) {
  obs::HistogramSnapshot h;
  h.name = "lat_ns";
  h.record(5);
  h.record(900);

  MetricsReport report;
  report.node = "node3";
  report.snapshot.counters = {{"events_total", 9}, {"delta", -2}};
  report.snapshot.histograms.push_back(h);
  report.snapshot.series.push_back(
      obs::TimeSeries{"depth", {{100, 1}, {200, 4}}});

  const MetricsReport back = MetricsReport::decode(report.encode());
  EXPECT_EQ(back.node, "node3");
  ASSERT_NE(back.snapshot.find_counter("events_total"), nullptr);
  EXPECT_EQ(back.snapshot.find_counter("events_total")->value, 9);
  ASSERT_NE(back.snapshot.find_counter("delta"), nullptr);
  EXPECT_EQ(back.snapshot.find_counter("delta")->value, -2);
  const obs::HistogramSnapshot* lat = back.snapshot.find_histogram("lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2);
  EXPECT_EQ(lat->sum, 905);
  EXPECT_EQ(lat->min, 5);
  EXPECT_EQ(lat->max, 900);
  EXPECT_EQ(lat->buckets, report.snapshot.find_histogram("lat_ns")->buckets);
  const obs::TimeSeries* series = back.snapshot.find_series("depth");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->samples.size(), 2u);
  EXPECT_EQ(series->samples[1].t_ns, 200);
  EXPECT_EQ(series->samples[1].value, 4);
}

TEST(Bus, DirectedSendAndBroadcast) {
  MessageBus bus;
  auto a = bus.register_endpoint("a");
  auto b = bus.register_endpoint("b");
  auto c = bus.register_endpoint("c");

  Message m;
  m.type = MessageType::kShutdown;
  m.from = "a";
  bus.send("b", m);
  EXPECT_EQ(b->pop()->from, "a");
  EXPECT_TRUE(c->empty());

  bus.broadcast(m);  // from "a": delivered to b and c only
  EXPECT_TRUE(a->empty());
  EXPECT_FALSE(b->empty());
  EXPECT_FALSE(c->empty());
  EXPECT_EQ(bus.delivered(), 3);
}

TEST(Bus, TracksPerEndpointTraffic) {
  MessageBus bus;
  auto a = bus.register_endpoint("a");
  auto b = bus.register_endpoint("b");

  Message m;
  m.type = MessageType::kRemoteStore;
  m.from = "a";
  m.payload = {1, 2, 3, 4};
  bus.send("b", m);
  bus.send("b", m);

  const BusStats stats = bus.stats();
  EXPECT_EQ(stats.delivered, 2);
  EXPECT_EQ(stats.bytes, 8);
  ASSERT_EQ(stats.per_endpoint.count("b"), 1u);
  EXPECT_EQ(stats.per_endpoint.at("b").messages, 2);
  EXPECT_EQ(stats.per_endpoint.at("b").bytes, 8);
  EXPECT_EQ(stats.per_endpoint.count("a"), 0u);
}

TEST(Bus, UnknownEndpointThrows) {
  MessageBus bus;
  Message m;
  EXPECT_THROW(bus.send("nobody", m), Error);
}

TEST(Bus, DuplicateRegistrationThrows) {
  MessageBus bus;
  bus.register_endpoint("a");
  EXPECT_THROW(bus.register_endpoint("a"), Error);
}

TEST(Bus, ClosedBusReturnsStatusAndCountsDeadLetters) {
  MessageBus bus;
  bus.register_endpoint("a");
  bus.register_endpoint("b");

  Message m;
  m.type = MessageType::kRemoteStore;
  m.from = "a";
  EXPECT_EQ(bus.send("b", m), SendStatus::kDelivered);

  bus.close_all();
  EXPECT_EQ(bus.send("b", m), SendStatus::kClosed);
  EXPECT_EQ(bus.broadcast(m), 0);
  EXPECT_EQ(bus.stats().delivered, 1);
  EXPECT_EQ(bus.stats().dead_letters, 1);
}

TEST(Bus, DeadEndpointBlackholesTraffic) {
  MessageBus bus;
  bus.register_endpoint("a");
  auto b = bus.register_endpoint("b");
  auto c = bus.register_endpoint("c");

  bus.mark_dead("b");
  EXPECT_TRUE(bus.is_dead("b"));
  EXPECT_FALSE(bus.is_dead("c"));

  Message m;
  m.type = MessageType::kRemoteStore;
  m.from = "a";
  EXPECT_EQ(bus.send("b", m), SendStatus::kDead);
  EXPECT_EQ(bus.send("c", m), SendStatus::kDelivered);

  // Broadcast skips the dead endpoint but still reaches the live one.
  EXPECT_EQ(bus.broadcast(m), 1);
  EXPECT_FALSE(b->try_pop().has_value());
  EXPECT_EQ(bus.stats().dead_letters, 1);
}

// A shutdown racing concurrent senders must never throw or lose track of a
// message: every send resolves to kDelivered or kClosed, and the bus
// counters account for each attempt exactly once.
TEST(Bus, ShutdownRaceNeverThrowsAndConservesMessages) {
  MessageBus bus;
  bus.register_endpoint("a");
  bus.register_endpoint("b");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> rejected{0};
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&bus, &delivered, &rejected] {
      Message m;
      m.type = MessageType::kRemoteStore;
      m.from = "a";
      m.payload = {1};
      for (int i = 0; i < kPerThread; ++i) {
        switch (bus.send("b", m)) {
          case SendStatus::kDelivered:
            delivered.fetch_add(1);
            break;
          case SendStatus::kClosed:
            rejected.fetch_add(1);
            break;
          default:
            ADD_FAILURE() << "unexpected send status";
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  bus.close_all();
  for (std::thread& t : senders) t.join();

  EXPECT_EQ(delivered.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(bus.stats().delivered, delivered.load());
  EXPECT_EQ(bus.stats().dead_letters, rejected.load());
}

TEST(Messages, FaultToleranceMessagesRoundTrip) {
  DataEnvelope envelope;
  envelope.seq = 42;
  envelope.trace_id = 0xDEADBEEFCAFE0001ULL;
  envelope.parent_span = 0x1234567890ABCDEFULL;
  envelope.inner_type = MessageType::kRemoteStore;
  envelope.inner = {9, 8, 7, 6};
  const DataEnvelope envelope_back = DataEnvelope::decode(envelope.encode());
  EXPECT_EQ(envelope_back.seq, 42u);
  EXPECT_EQ(envelope_back.trace_id, envelope.trace_id);
  EXPECT_EQ(envelope_back.parent_span, envelope.parent_span);
  EXPECT_EQ(envelope_back.inner_type, MessageType::kRemoteStore);
  EXPECT_EQ(envelope_back.inner, envelope.inner);

  AckMsg ack{1234567890123ULL};
  EXPECT_EQ(AckMsg::decode(ack.encode()).cumulative, ack.cumulative);

  HeartbeatMsg beat{17, 987654321};
  const HeartbeatMsg beat_back = HeartbeatMsg::decode(beat.encode());
  EXPECT_EQ(beat_back.seq, 17);
  EXPECT_EQ(beat_back.sent_ns, 987654321);

  ReassignMsg reassign;
  reassign.dead = "node2";
  reassign.kernels = {{"stage1", "node0"}, {"stage3", "node1"}};
  const ReassignMsg reassign_back = ReassignMsg::decode(reassign.encode());
  EXPECT_EQ(reassign_back.dead, "node2");
  EXPECT_EQ(reassign_back.kernels, reassign.kernels);
}

TEST(Messages, AssignMsgRoundTripsProgramAndRunOptions) {
  net::AssignMsg assign;
  assign.source = "int32[] m_data age;\n";
  assign.kernels = {{"mul2", "node0"}, {"plus5", "node1"}};
  assign.capture_fields = {"m_data"};
  assign.max_age = 3;
  assign.metrics = true;
  const net::AssignMsg back = net::AssignMsg::decode(assign.encode());
  EXPECT_EQ(back.source, assign.source);
  EXPECT_EQ(back.kernels, assign.kernels);
  EXPECT_EQ(back.capture_fields, assign.capture_fields);
  EXPECT_EQ(back.max_age, std::optional<Age>(3));
  EXPECT_TRUE(back.metrics);

  assign.max_age.reset();
  assign.metrics = false;
  const net::AssignMsg uncapped = net::AssignMsg::decode(assign.encode());
  EXPECT_FALSE(uncapped.max_age.has_value());
  EXPECT_FALSE(uncapped.metrics);
}

// --- Codec truncation corpus ------------------------------------------
//
// Every wire codec must reject every strict prefix of a valid encoding
// (underflow mid-parse) and any trailing garbage (the decoders assert
// Reader::exhausted()) with ErrorKind::kProtocol — never crash, never
// silently accept.

struct CodecCase {
  std::string name;
  std::vector<uint8_t> bytes;
  std::function<void(const std::vector<uint8_t>&)> decode;
};

std::vector<CodecCase> codec_corpus() {
  std::vector<CodecCase> cases;

  RemoteStore store;
  store.field = 3;
  store.age = 17;
  store.region = nd::Region(std::vector<nd::Interval>{{2, 3}, {0, 4}});
  store.producer = 5;
  store.store_decl = 1;
  store.whole = true;
  store.payload = {10, 20, 30};
  cases.push_back({"RemoteStore", store.encode(),
                   [](const std::vector<uint8_t>& b) {
                     RemoteStore::decode(b);
                   }});

  TopologyReport topo;
  topo.topology.name = "node7";
  topo.topology.memory_gb = 16.0;
  topo.topology.units.push_back(
      graph::ProcessingUnit{graph::ProcessingUnit::Type::kGpu, 16.0});
  topo.topology.buses.push_back(graph::Link{0, 0, 5000.0, 1.5});
  cases.push_back({"TopologyReport", topo.encode(),
                   [](const std::vector<uint8_t>& b) {
                     TopologyReport::decode(b);
                   }});

  ProfileReport profile;
  KernelStats stats;
  stats.name = "assign";
  stats.dispatches = 11;
  stats.instances = 12;
  stats.dispatch_ns = 13;
  stats.kernel_ns = 14;
  profile.report.kernels.push_back(stats);
  cases.push_back({"ProfileReport", profile.encode(),
                   [](const std::vector<uint8_t>& b) {
                     ProfileReport::decode(b);
                   }});

  MetricsReport metrics;
  metrics.node = "node3";
  metrics.snapshot.counters = {{"events_total", 9}, {"delta", -2}};
  obs::HistogramSnapshot lat;
  lat.name = "lat_ns";
  lat.record(5);
  metrics.snapshot.histograms.push_back(lat);
  metrics.snapshot.series.push_back(
      obs::TimeSeries{"depth", {{100, 1}, {200, 4}}});
  cases.push_back({"MetricsReport", metrics.encode(),
                   [](const std::vector<uint8_t>& b) {
                     MetricsReport::decode(b);
                   }});

  DataEnvelope envelope;
  envelope.seq = 9;
  envelope.trace_id = 0xABCDEF0102030405ULL;  // trace header (ISSUE 6)
  envelope.parent_span = 0x0504030201FEDCBAULL;
  envelope.inner_type = MessageType::kRemoteStore;
  envelope.inner = {1, 2, 3};
  cases.push_back({"DataEnvelope", envelope.encode(),
                   [](const std::vector<uint8_t>& b) {
                     DataEnvelope::decode(b);
                   }});

  AckMsg ack{77};
  cases.push_back(
      {"AckMsg", ack.encode(),
       [](const std::vector<uint8_t>& b) { AckMsg::decode(b); }});

  HeartbeatMsg beat{5, 123456789};
  cases.push_back(
      {"HeartbeatMsg", beat.encode(),
       [](const std::vector<uint8_t>& b) { HeartbeatMsg::decode(b); }});

  ReassignMsg reassign;
  reassign.dead = "node1";
  reassign.kernels = {{"stage1", "node0"}, {"stage2", "node2"}};
  cases.push_back({"ReassignMsg", reassign.encode(),
                   [](const std::vector<uint8_t>& b) {
                     ReassignMsg::decode(b);
                   }});

  IdleReport idle{true, 3, 4};
  cases.push_back(
      {"IdleReport", idle.encode(),
       [](const std::vector<uint8_t>& b) { IdleReport::decode(b); }});

  // Out-of-process wire format (src/net): a complete length-prefixed
  // frame, driven through decode_frame so every strict prefix — including
  // cuts inside the length word itself — throws kProtocol.
  net::NetEnvelope envelope_frame;
  envelope_frame.to = "node1";
  envelope_frame.msg.type = MessageType::kRemoteStore;
  envelope_frame.msg.from = "node0";
  envelope_frame.msg.payload = {9, 8, 7, 6};
  envelope_frame.msg.seq = 0xF1F2F3F4F5F6F7F8ULL;  // exercises u64<->i64
  envelope_frame.msg.attempt = 2;
  envelope_frame.msg.trace.trace_id = 0xABCDEF0102030405ULL;
  envelope_frame.msg.trace.span_id = 0x0504030201FEDCBAULL;
  cases.push_back({"NetFrame", net::encode_frame(envelope_frame),
                   [](const std::vector<uint8_t>& b) {
                     net::decode_frame(b);
                   }});

  net::HelloMsg hello;
  hello.name = "node2";
  hello.pid = 43210;
  cases.push_back({"HelloMsg", hello.encode(),
                   [](const std::vector<uint8_t>& b) {
                     net::HelloMsg::decode(b);
                   }});

  net::AssignMsg assign;
  assign.source = "uint8[4096] frame age;\nsrc:\n  local uint8[] v;\n";
  assign.kernels = {{"src", "node0"}, {"xform", "node1"}, {"pump", "node2"}};
  assign.capture_fields = {"out"};
  assign.max_age = 8;
  assign.metrics = true;
  cases.push_back({"AssignMsg", assign.encode(),
                   [](const std::vector<uint8_t>& b) {
                     net::AssignMsg::decode(b);
                   }});
  assign.max_age.reset();  // a program that ends by itself
  cases.push_back({"AssignMsgUncapped", assign.encode(),
                   [](const std::vector<uint8_t>& b) {
                     net::AssignMsg::decode(b);
                   }});

  dist::CaptureMsg capture;
  capture.field = "out";
  capture.age = 7;
  capture.payload = {1, 2, 3, 4, 5};
  cases.push_back({"CaptureMsg", capture.encode(),
                   [](const std::vector<uint8_t>& b) {
                     dist::CaptureMsg::decode(b);
                   }});

  dist::NodeDoneMsg done;
  done.ok = false;
  done.error = "kernel 'xform' threw";
  cases.push_back({"NodeDoneMsg", done.encode(),
                   [](const std::vector<uint8_t>& b) {
                     dist::NodeDoneMsg::decode(b);
                   }});

  return cases;
}

TEST(Codecs, EveryStrictPrefixThrowsProtocolError) {
  for (const CodecCase& c : codec_corpus()) {
    ASSERT_FALSE(c.bytes.empty()) << c.name;
    EXPECT_NO_THROW(c.decode(c.bytes)) << c.name << " full encoding";
    for (size_t n = 0; n < c.bytes.size(); ++n) {
      const std::vector<uint8_t> prefix(c.bytes.begin(),
                                        c.bytes.begin() +
                                            static_cast<ptrdiff_t>(n));
      try {
        c.decode(prefix);
        ADD_FAILURE() << c.name << " accepted a strict prefix (" << n << "/"
                      << c.bytes.size() << " bytes)";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kProtocol)
            << c.name << " prefix " << n;
      }
    }
  }
}

TEST(Codecs, TrailingGarbageThrowsProtocolError) {
  for (const CodecCase& c : codec_corpus()) {
    std::vector<uint8_t> extended = c.bytes;
    extended.push_back(0xEE);
    try {
      c.decode(extended);
      ADD_FAILURE() << c.name << " accepted trailing garbage";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << c.name;
    }
  }
}

TEST(Codecs, PreTraceDataEnvelopeRejectedCleanly) {
  // The pre-ISSUE-6 envelope layout was {seq, inner_type, blob}. Its
  // maximum-header form is strictly shorter than the new fixed header
  // (the trace words sit before the type byte), so decoding an
  // old-format envelope underflows mid-parse and throws kProtocol —
  // never a silent misread. Probe with several payload sizes, including
  // one whose *total* length exceeds the new minimum (the blob-length
  // word then lands inside the trace header and the final
  // require_exhausted/underflow check still rejects it).
  for (const size_t payload_bytes : {0u, 3u, 64u}) {
    Writer w;
    w.i64(42);  // seq
    w.u8(static_cast<uint8_t>(MessageType::kRemoteStore));
    const std::vector<uint8_t> payload(payload_bytes, 0x5A);
    w.blob(payload.data(), payload.size());
    try {
      DataEnvelope::decode(w.take());
      ADD_FAILURE() << "old-format envelope (payload " << payload_bytes
                    << "B) decoded without error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol)
          << "payload " << payload_bytes;
    }
  }
}

TEST(DistributedRun, Mul2Plus5AcrossTwoNodes) {
  workloads::Mul2Plus5 workload;  // shared print sink across node programs

  MasterOptions options;
  options.nodes = 2;
  options.workers_per_node = 2;
  options.base_options.max_age = 3;
  options.program_factory = [&workload] { return workload.build(); };

  Master master(options);
  const DistributedRunReport report = master.run();
  EXPECT_FALSE(report.timed_out);

  // The paper's golden sequence survives distribution.
  ASSERT_EQ(workload.printed->size(), 4u);
  EXPECT_EQ((*workload.printed)[0],
            (std::vector<int32_t>{10, 11, 12, 13, 14, 20, 22, 24, 26, 28}));
  EXPECT_EQ((*workload.printed)[1],
            (std::vector<int32_t>{25, 27, 29, 31, 33, 50, 54, 58, 62, 66}));

  // Every kernel ran somewhere, exactly once per expected instance.
  const KernelStats* mul2 = report.combined.find("mul2");
  ASSERT_NE(mul2, nullptr);
  EXPECT_EQ(mul2->instances, 4 * 5);
  EXPECT_EQ(report.combined.find("print")->instances, 4);

  // If the partition actually split the graph, stores crossed the bus.
  const bool split =
      report.partition.cut_weight(master.final_graph()) > 0.0;
  if (split) {
    EXPECT_GT(report.messages_delivered, 0);
  }
  EXPECT_EQ(report.topology.nodes().size(), 2u);

  // Telemetry: every node shipped a snapshot, the master aggregated them,
  // and the bus accounted for the traffic per endpoint.
  ASSERT_EQ(report.node_metrics.size(), 2u);
  const obs::HistogramSnapshot* dispatch =
      report.combined_metrics.find_histogram("dispatch_latency_ns");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GT(dispatch->count, 0);
  int64_t per_node_count = 0;
  for (const auto& [node, snapshot] : report.node_metrics) {
    if (const obs::HistogramSnapshot* h =
            snapshot.find_histogram("dispatch_latency_ns")) {
      per_node_count += h->count;
    }
  }
  EXPECT_EQ(dispatch->count, per_node_count)
      << "combined histogram is the bucket-wise sum of the node snapshots";
  EXPECT_EQ(report.bus.delivered, report.messages_delivered);
  ASSERT_EQ(report.bus.per_endpoint.count("master"), 1u);
  EXPECT_GT(report.bus.per_endpoint.at("master").bytes, 0)
      << "topology + metrics reports flow to the master";
}

TEST(DistributedRun, InProcessStoresBypassTheBus) {
  workloads::PipelineConfig config;
  config.frame_bytes = 4096;
  config.frames = 12;
  config.seed = 7;
  const auto options_for = [config](int nodes) {
    MasterOptions options;
    options.nodes = nodes;
    options.workers_per_node = 1;
    workloads::PipelineWorkload{config}.apply_schedule(options.base_options);
    options.capture_fields = {"out"};
    options.program_factory = [config] {
      return workloads::PipelineWorkload{config}.build();
    };
    return options;
  };
  Master single(options_for(1));
  const DistributedRunReport reference = single.run();
  ASSERT_FALSE(reference.timed_out);
  ASSERT_EQ(reference.captured.at("out").size(),
            static_cast<size_t>(config.frames + 1));

  // In-process nodes without fault tolerance hand stores over by direct
  // call: the bus carries the control traffic only, which for a node is
  // far less than one frame.
  ThreadLauncher launcher;
  Master master(options_for(3));
  const DistributedRunReport report = master.run(launcher);
  ASSERT_FALSE(report.timed_out);
  ASSERT_GT(report.partition.cut_weight(master.final_graph()), 0.0);
  int64_t sent = 0;
  int64_t received = 0;
  for (ExecutionNode* node : launcher.local_nodes()) {
    const IdleReport idle = node->idle_report();
    sent += idle.stores_sent;
    received += idle.stores_received;
    const auto it = report.bus.per_endpoint.find(node->name());
    const int64_t bytes =
        it != report.bus.per_endpoint.end() ? it->second.bytes : 0;
    EXPECT_LT(bytes, config.frame_bytes)
        << node->name() << " received a store over the bus";
  }
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, received);
  EXPECT_EQ(report.captured.at("out"), reference.captured.at("out"));

  // Fault tolerance keeps its data on the reliable channel.
  MasterOptions ft_options = options_for(3);
  ft_options.ft.enabled = true;
  Master ft_master(ft_options);
  const DistributedRunReport ft_report = ft_master.run();
  ASSERT_FALSE(ft_report.timed_out);
  EXPECT_GT(ft_report.ft.data_sent, 0);
  EXPECT_EQ(ft_report.captured.at("out"), reference.captured.at("out"));
}

TEST(DistributedRun, KmeansMatchesSequential) {
  workloads::KmeansWorkload workload;
  workload.config = workloads::KmeansConfig{.n = 40, .k = 4, .dim = 2,
                                            .iterations = 3, .seed = 5};

  MasterOptions options;
  options.nodes = 2;
  options.workers_per_node = 1;
  workload.apply_schedule(options.base_options);
  options.program_factory = [&workload] { return workload.build(); };

  Master master(options);
  const DistributedRunReport report = master.run();
  EXPECT_FALSE(report.timed_out);

  ASSERT_FALSE(workload.snapshots->empty());
  EXPECT_EQ(workload.snapshots->back(),
            workloads::kmeans_sequential(workload.config))
      << "distribution must not change the result (determinism)";
}

TEST(DistributedRun, SingleNodeDegeneratesToLocalRun) {
  workloads::Mul2Plus5 workload;
  MasterOptions options;
  options.nodes = 1;
  options.base_options.max_age = 2;
  options.program_factory = [&workload] { return workload.build(); };

  Master master(options);
  const DistributedRunReport report = master.run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(workload.printed->size(), 3u);
  EXPECT_DOUBLE_EQ(report.partition.cut_weight(master.final_graph()), 0.0);
}

TEST(DistributedRun, RepartitionUsesProfileWeights) {
  workloads::Mul2Plus5 workload;
  MasterOptions options;
  options.nodes = 2;
  options.base_options.max_age = 5;
  options.program_factory = [&workload] { return workload.build(); };

  Master master(options);
  const DistributedRunReport report = master.run();
  const graph::Partition refined = master.repartition(report);
  EXPECT_EQ(refined.assignment.size(),
            master.final_graph().kernel_count());
  // The reweighted partition is still sane.
  graph::FinalGraph weighted = master.final_graph();
  weighted.apply_instrumentation(report.combined);
  EXPECT_LE(refined.imbalance(weighted), 2.0);
}

TEST(DistributedRun, TabuPartitionerWorksEndToEnd) {
  workloads::Mul2Plus5 workload;
  MasterOptions options;
  options.nodes = 2;
  options.use_tabu = true;
  options.base_options.max_age = 2;
  options.program_factory = [&workload] { return workload.build(); };

  Master master(options);
  const DistributedRunReport report = master.run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(workload.printed->size(), 3u);
}

}  // namespace
}  // namespace p2g::dist
