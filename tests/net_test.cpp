// Tests for the out-of-process transport and the shared-memory data plane
// (src/net): SPSC ring semantics, arena allocation and cross-mapping
// aliasing, the framed wire format, the socket hub/node transports (with
// MessageBus-parity dead-letter accounting), ChaosBus decorating a real
// socket transport, and — behind P2G_NODE_BINARY — dist::Master running
// the shipped .p2g programs on real node processes, compared bit-exactly
// against in-process nodes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dist/master.h"
#include "ft/chaos_bus.h"
#include "ft/reliable.h"
#include "lang/driver.h"
#include "net/cluster.h"
#include "net/shm.h"
#include "net/socket.h"
#include "net/wire.h"

namespace p2g::net {
namespace {

using dist::Message;
using dist::MessageType;

// --- ShmRing ----------------------------------------------------------------

ShmSlot make_slot(int64_t age) {
  ShmSlot slot{};
  slot.field = 3;
  slot.age = age;
  slot.offset = static_cast<uint64_t>(age) * 64;
  slot.bytes = 48;
  return slot;
}

TEST(ShmRing, ZeroedMemoryIsTheValidEmptyState) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(4), 0);
  ShmRing ring(mem.data(), 4);
  ASSERT_TRUE(ring.valid());
  EXPECT_FALSE(ring.closed());
  ShmSlot slot{};
  EXPECT_EQ(ring.pop(&slot), ShmRing::Pop::kEmpty);
}

TEST(ShmRing, PushPopRoundTripsSlotContents) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(4), 0);
  ShmRing tx(mem.data(), 4);
  ShmRing rx(mem.data(), 4);  // the other process's mapping of same pages

  ASSERT_TRUE(tx.push(make_slot(7)));
  ShmSlot got{};
  ASSERT_EQ(rx.pop(&got), ShmRing::Pop::kGot);
  EXPECT_EQ(got.field, 3);
  EXPECT_EQ(got.age, 7);
  EXPECT_EQ(got.offset, 7u * 64);
  EXPECT_EQ(got.bytes, 48u);
  EXPECT_EQ(rx.pop(&got), ShmRing::Pop::kEmpty);
}

TEST(ShmRing, FullWindowRejectsPushUntilConsumerDrains) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(2), 0);
  ShmRing tx(mem.data(), 2);
  ShmRing rx(mem.data(), 2);

  ASSERT_TRUE(tx.push(make_slot(0)));
  ASSERT_TRUE(tx.push(make_slot(1)));
  EXPECT_FALSE(tx.push(make_slot(2))) << "2-slot ring must be full";

  ShmSlot got{};
  ASSERT_EQ(rx.pop(&got), ShmRing::Pop::kGot);
  EXPECT_TRUE(tx.push(make_slot(2))) << "drained slot must be reusable";
}

TEST(ShmRing, WrapsAroundManyTimesInOrder) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(3), 0);
  ShmRing tx(mem.data(), 3);
  ShmRing rx(mem.data(), 3);

  for (int64_t i = 0; i < 100; ++i) {  // 100 slots through a 3-slot ring
    ASSERT_TRUE(tx.push(make_slot(i))) << i;
    ShmSlot got{};
    ASSERT_EQ(rx.pop(&got), ShmRing::Pop::kGot) << i;
    EXPECT_EQ(got.age, i);
  }
}

TEST(ShmRing, CloseDrainsBufferedSlotsThenReportsClosed) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(4), 0);
  ShmRing tx(mem.data(), 4);
  ShmRing rx(mem.data(), 4);

  ASSERT_TRUE(tx.push(make_slot(1)));
  ASSERT_TRUE(tx.push(make_slot(2)));
  tx.close();

  ShmSlot got{};
  ASSERT_EQ(rx.pop(&got), ShmRing::Pop::kGot) << "buffered slots drain first";
  EXPECT_EQ(got.age, 1);
  ASSERT_EQ(rx.pop(&got), ShmRing::Pop::kGot);
  EXPECT_EQ(got.age, 2);
  EXPECT_EQ(rx.pop(&got), ShmRing::Pop::kClosed);
  EXPECT_EQ(rx.pop(&got), ShmRing::Pop::kClosed) << "kClosed is sticky";
}

TEST(ShmRing, ConcurrentProducerConsumerPreservesFifo) {
  std::vector<uint8_t> mem(ShmRing::bytes_required(8), 0);
  ShmRing tx(mem.data(), 8);
  ShmRing rx(mem.data(), 8);

  const int64_t kCount = 20'000;
  std::thread producer([&] {
    for (int64_t i = 0; i < kCount; ++i) {
      while (!tx.push(make_slot(i))) std::this_thread::yield();
    }
    tx.close();
  });
  int64_t expected = 0;
  while (true) {
    ShmSlot got{};
    const ShmRing::Pop r = rx.pop(&got);
    if (r == ShmRing::Pop::kClosed) break;
    if (r == ShmRing::Pop::kEmpty) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(got.age, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

// --- ShmArena ---------------------------------------------------------------

TEST(ShmArena, AllocatesAlignedChunksAndTracksContainment) {
  auto arena = ShmArena::create(1u << 16);
  std::byte* a = arena->alloc(10);
  std::byte* b = arena->alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_GE(b - a, 64) << "10-byte chunk still occupies a 64-byte stride";

  EXPECT_TRUE(arena->contains(a, 10));
  EXPECT_TRUE(arena->contains(b, 100));
  int64_t stack_local = 0;
  EXPECT_FALSE(arena->contains(
      reinterpret_cast<const std::byte*>(&stack_local), sizeof(stack_local)));

  // Offsets round-trip through the "other process" view of the mapping.
  EXPECT_EQ(arena->at(arena->offset_of(b)), b);
}

TEST(ShmArena, ExhaustionReturnsNullInsteadOfOverflowing) {
  auto arena = ShmArena::create(4096);
  std::byte* first = arena->alloc(1024);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(arena->alloc(1u << 20), nullptr);
  // A smaller request may still fit after the oversized one was refused.
  EXPECT_NE(arena->alloc(512), nullptr);
}

TEST(ShmArena, AttachedMappingAliasesTheSamePages) {
  auto owner = ShmArena::create(1u << 16);
  auto peer = ShmArena::attach(owner->fd(), owner->capacity());

  std::byte* p = owner->alloc(64);
  ASSERT_NE(p, nullptr);
  std::memcpy(p, "frame-payload", 13);

  // The peer mapping sees the bytes at the same offset without any copy —
  // the property the whole data plane rests on.
  const std::byte* mirrored = peer->at(owner->offset_of(p));
  EXPECT_EQ(std::memcmp(mirrored, "frame-payload", 13), 0);
}

// --- wire format ------------------------------------------------------------

NetEnvelope sample_envelope() {
  NetEnvelope envelope;
  envelope.to = "node1";
  envelope.msg.type = MessageType::kRemoteStore;
  envelope.msg.from = "node0";
  envelope.msg.payload = {1, 2, 3, 4, 5};
  envelope.msg.seq = 0x8000000000000001ULL;  // u64 MSB survives i64 transit
  envelope.msg.attempt = 3;
  envelope.msg.trace.trace_id = 0x1122334455667788ULL;
  envelope.msg.trace.span_id = 0x99AABBCCDDEEFF00ULL;
  return envelope;
}

TEST(Wire, FrameRoundTripsEveryEnvelopeField) {
  const NetEnvelope sent = sample_envelope();
  const NetEnvelope got = decode_frame(encode_frame(sent));
  EXPECT_EQ(got.to, sent.to);
  EXPECT_EQ(got.msg.type, sent.msg.type);
  EXPECT_EQ(got.msg.from, sent.msg.from);
  EXPECT_EQ(got.msg.payload, sent.msg.payload);
  EXPECT_EQ(got.msg.seq, sent.msg.seq);
  EXPECT_EQ(got.msg.attempt, sent.msg.attempt);
  EXPECT_EQ(got.msg.trace.trace_id, sent.msg.trace.trace_id);
  EXPECT_EQ(got.msg.trace.span_id, sent.msg.trace.span_id);
}

TEST(Wire, FrameReaderCutsFramesFromAByteDribble) {
  const std::vector<uint8_t> one = encode_frame(sample_envelope());
  NetEnvelope second_envelope = sample_envelope();
  second_envelope.to = "master";
  second_envelope.msg.payload.clear();
  const std::vector<uint8_t> two = encode_frame(second_envelope);

  std::vector<uint8_t> stream = one;
  stream.insert(stream.end(), two.begin(), two.end());

  FrameReader reader;
  std::vector<NetEnvelope> out;
  for (const uint8_t byte : stream) {  // worst-case fragmentation
    reader.feed(&byte, 1);
    while (auto envelope = reader.poll()) out.push_back(std::move(*envelope));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, "node1");
  EXPECT_EQ(out[1].to, "master");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(Wire, FrameReaderRejectsAbsurdLengthPrefix) {
  FrameReader reader;
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  reader.feed(huge, sizeof(huge));
  try {
    reader.poll();
    FAIL() << "4 GiB frame length must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(Wire, DecodeFrameRejectsLengthPayloadMismatch) {
  std::vector<uint8_t> frame = encode_frame(sample_envelope());
  frame.push_back(0xEE);  // trailing garbage: length word no longer matches
  try {
    decode_frame(frame);
    FAIL() << "length/payload mismatch must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

// --- socket transport -------------------------------------------------------

Message make_message(MessageType type, const std::string& from,
                     std::vector<uint8_t> payload = {}) {
  Message message;
  message.type = type;
  message.from = from;
  message.payload = std::move(payload);
  return message;
}

TEST(Socket, HubAndNodeExchangeMessagesBothWays) {
  SocketHub hub;
  auto master_box = hub.register_endpoint("master");
  SocketNodeTransport node("127.0.0.1", hub.port(), "a");
  auto a_box = node.register_endpoint("a");
  ASSERT_TRUE(hub.wait_for_nodes(1, std::chrono::seconds(10)));
  EXPECT_EQ(hub.connected_nodes(), std::vector<std::string>{"a"});

  EXPECT_EQ(node.send("master",
                      make_message(MessageType::kIdleReport, "a", {1, 2})),
            SendStatus::kDelivered);
  auto up = master_box->pop();
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->type, MessageType::kIdleReport);
  EXPECT_EQ(up->from, "a");
  EXPECT_EQ(up->payload, (std::vector<uint8_t>{1, 2}));

  EXPECT_EQ(hub.send("a", make_message(MessageType::kShutdown, "master")),
            SendStatus::kDelivered);
  auto down = a_box->pop();
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->type, MessageType::kShutdown);
  EXPECT_EQ(down->from, "master");

  hub.close_all();
  node.close_all();
}

TEST(Socket, BroadcastReachesEveryEndpointExceptTheSender) {
  SocketHub hub;
  auto master_box = hub.register_endpoint("master");
  SocketNodeTransport a("127.0.0.1", hub.port(), "a");
  auto a_box = a.register_endpoint("a");
  SocketNodeTransport b("127.0.0.1", hub.port(), "b");
  auto b_box = b.register_endpoint("b");
  ASSERT_TRUE(hub.wait_for_nodes(2, std::chrono::seconds(10)));

  EXPECT_EQ(hub.broadcast(make_message(MessageType::kIdleProbe, "master")), 2);
  EXPECT_EQ(a_box->pop()->type, MessageType::kIdleProbe);
  EXPECT_EQ(b_box->pop()->type, MessageType::kIdleProbe);
  EXPECT_FALSE(master_box->try_pop().has_value())
      << "broadcast must skip the sender";

  hub.close_all();
  a.close_all();
  b.close_all();
}

TEST(Socket, UnknownEndpointThrowsProtocolLikeTheInProcessBus) {
  SocketHub hub;
  hub.register_endpoint("master");
  try {
    hub.send("nobody", make_message(MessageType::kShutdown, "master"));
    FAIL() << "unknown endpoint must throw (wiring bug, not a failure)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  hub.close_all();
}

TEST(Socket, DeadEndpointFeedsDeadLetterStats) {
  // The SendStatus seam must behave exactly like MessageBus::mark_dead:
  // kDead results feed BusStats::dead_letters (total and per endpoint).
  SocketHub hub;
  hub.register_endpoint("master");
  SocketNodeTransport node("127.0.0.1", hub.port(), "a");
  node.register_endpoint("a");
  ASSERT_TRUE(hub.wait_for_nodes(1, std::chrono::seconds(10)));

  hub.mark_dead("a");
  EXPECT_TRUE(hub.is_dead("a"));
  EXPECT_TRUE(hub.unreachable("a"));
  EXPECT_FALSE(hub.unreachable("master"));

  EXPECT_EQ(hub.send("a", make_message(MessageType::kShutdown, "master")),
            SendStatus::kDead);
  EXPECT_EQ(hub.send("a", make_message(MessageType::kShutdown, "master")),
            SendStatus::kDead);

  const BusStats stats = hub.stats();
  EXPECT_EQ(stats.dead_letters, 2);
  ASSERT_TRUE(stats.per_endpoint.count("a"));
  EXPECT_EQ(stats.per_endpoint.at("a").dead_letters, 2);

  hub.close_all();
  node.close_all();
}

TEST(Socket, NodeDeadLetterCountersMatchBusStats) {
  // A node ships net_dead_letters_total:<peer> from the same per-endpoint
  // tally BusStats reports, so sends to a fenced endpoint (kDead) and to a
  // closed one (kClosed) both count.
  SocketHub hub;
  hub.register_endpoint("master");
  SocketNodeTransport node("127.0.0.1", hub.port(), "a");
  node.register_endpoint("a");
  node.register_endpoint("closed")->close();
  ASSERT_TRUE(hub.wait_for_nodes(1, std::chrono::seconds(10)));

  node.mark_dead("fenced");
  EXPECT_EQ(node.send("fenced", make_message(MessageType::kShutdown, "a")),
            SendStatus::kDead);
  EXPECT_EQ(node.send("closed", make_message(MessageType::kShutdown, "a")),
            SendStatus::kClosed);
  EXPECT_EQ(node.send("closed", make_message(MessageType::kShutdown, "a")),
            SendStatus::kClosed);

  const BusStats stats = node.stats();
  EXPECT_EQ(stats.dead_letters, 3);
  obs::MetricsSnapshot shipped;
  node.add_metrics(shipped);
  for (const char* peer : {"fenced", "closed"}) {
    const obs::CounterValue* counter =
        shipped.find_counter(std::string("net_dead_letters_total:") + peer);
    ASSERT_NE(counter, nullptr) << peer;
    ASSERT_TRUE(stats.per_endpoint.count(peer)) << peer;
    EXPECT_EQ(counter->value, stats.per_endpoint.at(peer).dead_letters)
        << peer;
  }
  EXPECT_EQ(shipped.find_counter("net_dead_letters_total:closed")->value, 2);
  // No data frame went through the hub.
  EXPECT_EQ(shipped.find_counter("net_tx_frames_total"), nullptr);

  hub.close_all();
  node.close_all();
}

TEST(Socket, ClosedTransportReturnsClosedStatus) {
  SocketHub hub;
  hub.register_endpoint("master");
  hub.close_all();
  EXPECT_EQ(hub.send("master", make_message(MessageType::kShutdown, "x")),
            SendStatus::kClosed);
  EXPECT_GE(hub.stats().dead_letters, 1);
}

// --- chaos over a real socket transport -------------------------------------

// Pumps one endpoint's mailbox through its reliable channel (dedup,
// in-order delivery, ack-after-apply) — the ft_test pump, unchanged except
// that the mailbox now hangs off a socket transport.
struct Pump {
  std::shared_ptr<Transport::Mailbox> mailbox;
  ft::ReliableChannel* channel;
  std::vector<std::vector<uint8_t>>* received = nullptr;
  std::thread thread;

  void start() {
    thread = std::thread([this] {
      while (auto message = mailbox->pop()) {
        if (message->type == MessageType::kData) {
          for (const Message& inner : channel->on_data(*message)) {
            if (received) received->push_back(inner.payload);
          }
          channel->ack(message->from);
        } else if (message->type == MessageType::kAck) {
          channel->on_ack(*message);
        }
      }
    });
  }
};

TEST(ChaosSocket, ReliableChannelRecoversDropsOverARealSocketPair) {
  // ChaosBus decorating a *socket* transport: every first-attempt kData
  // frame from "a" rolls the drop dice before hitting the real TCP
  // connection; the reliable channel's retransmissions (exempt from chaos)
  // recover every loss, end to end across hub routing.
  SocketHub hub;
  hub.register_endpoint("master");
  SocketNodeTransport a_socket("127.0.0.1", hub.port(), "a");
  auto a_box = a_socket.register_endpoint("a");
  SocketNodeTransport b_socket("127.0.0.1", hub.port(), "b");
  auto b_box = b_socket.register_endpoint("b");
  ASSERT_TRUE(hub.wait_for_nodes(2, std::chrono::seconds(10)));

  ft::ChaosBus lossy(ft::FaultPlan::uniform(21, 0.3), a_socket);

  ft::ReliableChannel::Options fast;
  fast.rto_initial_us = 3000;
  fast.rto_max_us = 20000;
  ft::ReliableChannel a(lossy, "a", fast);
  ft::ReliableChannel b(b_socket, "b", fast);

  std::vector<std::vector<uint8_t>> received;
  Pump pump_a{a_box, &a, nullptr, {}};
  Pump pump_b{b_box, &b, &received, {}};
  pump_a.start();
  pump_b.start();

  const int n = 40;
  for (uint8_t i = 0; i < n; ++i) {
    a.send("b", MessageType::kRemoteStore, {i});
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (a.unacked() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(a.unacked(), 0) << "every drop must be recovered by retransmit";

  a_socket.close_all();
  b_socket.close_all();
  hub.close_all();
  pump_a.thread.join();
  pump_b.thread.join();
  a.stop();
  b.stop();

  ASSERT_EQ(received.size(), static_cast<size_t>(n))
      << "exactly-once application despite socket transit and chaos";
  for (uint8_t i = 0; i < n; ++i) {
    EXPECT_EQ(received[i], std::vector<uint8_t>{i}) << "in-order delivery";
  }
  EXPECT_GT(lossy.chaos_stats().dropped, 0)
      << "seed produced no drops; the test proved nothing";
  EXPECT_GT(a.stats().retransmits, 0);
}

// --- real multi-process clusters --------------------------------------------

#ifdef P2G_NODE_BINARY

/// Kernel-language source of examples/programs/<program>.p2g.
std::string program_source(const std::string& program) {
  return lang::read_file(std::string(P2G_PROGRAM_DIR) + "/" + program +
                         ".p2g");
}

/// Master options running examples/programs/<program>.p2g on `nodes`
/// nodes under the age cap it is run with (`p2gc run <file> N`; none for
/// a program that ends by itself), capturing every field.
dist::MasterOptions program_options(const std::string& program, int nodes) {
  static const std::map<std::string, Age> caps = {
      {"mul2plus5", 3}, {"kmeans", 6}, {"mjpeg", 4}, {"pipeline", 8}};
  dist::MasterOptions options;
  options.program_factory = [source = program_source(program)] {
    return lang::compile_source(source).program;
  };
  const Program reference = options.program_factory();
  for (const FieldDecl& field : reference.fields()) {
    options.capture_fields.push_back(field.name);
  }
  if (const auto cap = caps.find(program); cap != caps.end()) {
    options.base_options.max_age = cap->second;
  }
  options.nodes = nodes;
  return options;
}

/// dist::Master over real `p2gnode` processes running `program`.
dist::DistributedRunReport run_processes(const std::string& program,
                                         dist::MasterOptions options,
                                         ProcessLaunch launch = {}) {
  launch.source = program_source(program);
  launch.node_binary = P2G_NODE_BINARY;
  ProcessLauncher launcher(launch);
  return dist::Master(std::move(options)).run(launcher);
}

class Cluster : public ::testing::TestWithParam<const char*> {};

TEST_P(Cluster, ProcessLauncherIsBitExactAgainstThreadLauncher) {
  // One Master, same partitioning and placement, two launchers: three
  // in-process nodes on threads and three real OS processes over sockets
  // must produce the same field contents, age by age and byte by byte,
  // and run every kernel the same number of times.
  const std::string program = GetParam();
  const dist::DistributedRunReport threads =
      dist::Master(program_options(program, 3)).run();
  const dist::DistributedRunReport processes =
      run_processes(program, program_options(program, 3));
  ASSERT_FALSE(threads.timed_out);
  ASSERT_FALSE(processes.timed_out);
  EXPECT_TRUE(processes.ft.dead_nodes.empty());
  EXPECT_EQ(processes.node_ok.size(), 3u);
  for (const auto& [name, ok] : processes.node_ok) EXPECT_TRUE(ok) << name;

  ASSERT_FALSE(threads.captured.empty());
  EXPECT_EQ(processes.captured, threads.captured)
      << "the process launcher changed the data";
  ASSERT_EQ(processes.combined.kernels.size(),
            threads.combined.kernels.size());
  for (size_t k = 0; k < threads.combined.kernels.size(); ++k) {
    const KernelStats& thread_stats = threads.combined.kernels[k];
    const KernelStats& process_stats = processes.combined.kernels[k];
    EXPECT_EQ(process_stats.name, thread_stats.name);
    EXPECT_EQ(process_stats.instances, thread_stats.instances)
        << thread_stats.name;
  }
  EXPECT_GT(processes.data_frames, 0)
      << "a 3-way split must cross the wire";
}

TEST_P(Cluster, SplittingAcrossNodesKeepsTheOneNodeResult) {
  // Partitioning must not change what a program computes: a field whose
  // chain is split across nodes still seals on the node that reads it
  // (mjpeg's vlc and smoothing's report fetch whole fields whose
  // producers' index domains are bound on other nodes).
  const std::string program = GetParam();
  const dist::DistributedRunReport one =
      dist::Master(program_options(program, 1)).run();
  for (const int nodes : {2, 3}) {
    const dist::DistributedRunReport split =
        dist::Master(program_options(program, nodes)).run();
    ASSERT_FALSE(split.timed_out) << nodes << " nodes";
    EXPECT_EQ(split.captured, one.captured) << nodes << " nodes";
    for (size_t k = 0; k < one.combined.kernels.size(); ++k) {
      EXPECT_EQ(split.combined.kernels[k].instances,
                one.combined.kernels[k].instances)
          << one.combined.kernels[k].name << " on " << nodes << " nodes";
    }
  }
}

// Every examples/programs/*.p2g.
INSTANTIATE_TEST_SUITE_P(Workloads, Cluster,
                         ::testing::Values("mul2plus5", "kmeans", "mjpeg",
                                           "smoothing", "pipeline"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Cluster, ProcessLauncherRejectsTracingAndFaultTolerance) {
  // Merged traces, flight dumps and FT recovery read in-process nodes'
  // state; with node processes they must fail loudly, before any fork.
  const auto expect_rejected = [](const dist::MasterOptions& options) {
    try {
      run_processes("mul2plus5", options);
      FAIL() << "expected kInvalidArgument";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
    }
  };
  dist::MasterOptions traced = program_options("mul2plus5", 2);
  traced.trace_path = "unused.json";
  expect_rejected(traced);
  dist::MasterOptions flight = program_options("mul2plus5", 2);
  flight.flight_dir = ".";
  expect_rejected(flight);
  dist::MasterOptions ft = program_options("mul2plus5", 2);
  ft.ft.enabled = true;
  expect_rejected(ft);
}

TEST(Cluster, ProcessLauncherRejectsABadProgramBeforeForking) {
  ProcessLaunch launch;
  launch.node_binary = P2G_NODE_BINARY;
  launch.source = "int32[] values age;\nbroken: %{";
  try {
    ProcessLauncher launcher(launch);
    FAIL() << "expected kParse";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParse);
  }
}

TEST(Cluster, NodeMetricsOffLeavesNodeMetricsEmptyUnderBothLaunchers) {
  // collect_node_metrics is a node option like any other: process nodes
  // get it in their assignment and keep telemetry off, as thread nodes do.
  dist::MasterOptions options = program_options("mul2plus5", 2);
  options.collect_node_metrics = false;
  const dist::DistributedRunReport threads = dist::Master(options).run();
  const dist::DistributedRunReport processes =
      run_processes("mul2plus5", options);
  ASSERT_FALSE(threads.timed_out);
  ASSERT_FALSE(processes.timed_out);
  EXPECT_TRUE(threads.node_metrics.empty());
  EXPECT_TRUE(processes.node_metrics.empty());
  EXPECT_EQ(processes.captured, threads.captured);
}

TEST(Cluster, ShmDataPlaneShipsFramesWithoutCopies) {
  // Same host, same program, two transports: the shm run must be bit-exact
  // with the socket run while copying (approximately) zero payload bytes —
  // whole frames travel as arena offsets and the receiver adopts the
  // mapped pages directly.
  ProcessLaunch shm_launch;
  shm_launch.shm = true;
  const dist::DistributedRunReport socket =
      run_processes("pipeline", program_options("pipeline", 3));
  const dist::DistributedRunReport shm =
      run_processes("pipeline", program_options("pipeline", 3), shm_launch);
  ASSERT_FALSE(socket.timed_out);
  ASSERT_FALSE(shm.timed_out);
  EXPECT_TRUE(shm.ft.dead_nodes.empty());

  ASSERT_FALSE(shm.captured.empty());
  EXPECT_EQ(shm.captured, socket.captured)
      << "transports must agree bit-exactly";

  EXPECT_GT(socket.data_frames, 0);
  EXPECT_GT(socket.bytes_copied_per_frame, 1000.0)
      << "socket frames serialize whole 4 KiB payloads";
  EXPECT_GT(shm.data_frames, 0);
  EXPECT_EQ(shm.copied_bytes, 0)
      << "every whole-frame store must take the zero-copy fast lane";
  EXPECT_EQ(shm.bytes_copied_per_frame, 0.0);

  // The receiver really adopted mapped pages (no fallback rebuilds).
  const obs::CounterValue* adopted =
      shm.combined_metrics.find_counter("shm_rx_adopted_total");
  ASSERT_NE(adopted, nullptr);
  EXPECT_GT(adopted->value, 0);
}

TEST(Cluster, CrashedNodeIsDetectedFencedAndReported) {
  // node0 runs the pipeline's xform and pump kernels and hard-exits right
  // after its 3rd committed store, so the crash lands mid-run however the
  // processes are scheduled. The master must detect the death (dead
  // socket / silent heartbeats), fence the endpoint, keep the survivor
  // draining, and still terminate without tripping the watchdog.
  const dist::DistributedRunReport full =
      dist::Master(program_options("pipeline", 2)).run();
  int64_t victim_stores = 0;
  for (const KernelStats& k : full.node_reports.at("node0").kernels) {
    victim_stores += k.instances;  // one store per pipeline instance
  }
  ASSERT_GT(victim_stores, 3) << "the crash must land before node0's work ends";

  ProcessLaunch crash;
  crash.crash_node = "node0";
  crash.crash_after_stores = 3;
  const dist::DistributedRunReport report =
      run_processes("pipeline", program_options("pipeline", 2), crash);
  ASSERT_FALSE(report.timed_out)
      << "a crash must not stall termination detection";
  ASSERT_EQ(report.ft.dead_nodes, std::vector<std::string>{"node0"});
  ASSERT_TRUE(report.node_ok.count("node1"));
  EXPECT_TRUE(report.node_ok.at("node1"))
      << "the survivor must still shut down cleanly";
  EXPECT_FALSE(report.node_ok.count("node0"));
  EXPECT_GT(report.bus.dead_letters, 0)
      << "traffic to the fenced node must surface as dead letters";
}

#endif  // P2G_NODE_BINARY

}  // namespace
}  // namespace p2g::net
