#include "net/cluster.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "dist/exec_node.h"
#include "dist/message.h"
#include "ft/failure_detector.h"
#include "graph/partition.h"
#include "graph/static_graph.h"
#include "graph/topology.h"
#include "net/shm.h"
#include "net/socket.h"
#include "net/wire.h"
#include "workloads/kmeans.h"
#include "workloads/mul2plus5.h"
#include "workloads/pipeline.h"

namespace p2g::net {
namespace {

using dist::Message;
using dist::MessageType;

workloads::KmeansWorkload make_kmeans() {
  workloads::KmeansWorkload w;
  w.config.n = 24;
  w.config.k = 3;
  w.config.dim = 2;
  w.config.iterations = 3;
  w.config.seed = 7;
  return w;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::map<std::string, WorkloadSpec> registry = [] {
    std::map<std::string, WorkloadSpec> reg;
    {
      WorkloadSpec spec;
      spec.build = [] { return workloads::Mul2Plus5{}.build(); };
      spec.schedule = [](RunOptions& options) { options.max_age = 3; };
      spec.capture = {"m_data", "p_data"};
      reg.emplace("mul2", std::move(spec));
    }
    {
      WorkloadSpec spec;
      spec.build = [] { return make_kmeans().build(); };
      spec.schedule = [](RunOptions& options) {
        make_kmeans().apply_schedule(options);
      };
      spec.capture = {"centroids"};
      reg.emplace("kmeans", std::move(spec));
    }
    {
      WorkloadSpec spec;
      spec.build = [] { return workloads::PipelineWorkload{}.build(); };
      spec.schedule = [](RunOptions& options) {
        workloads::PipelineWorkload{}.apply_schedule(options);
      };
      spec.capture = {"out"};
      reg.emplace("pipeline", std::move(spec));
    }
    return reg;
  }();
  const auto it = registry.find(name);
  return it != registry.end() ? &it->second : nullptr;
}

// --- supervisor -------------------------------------------------------------

namespace {

int make_ring_memfd(uint32_t slots) {
  const int fd = static_cast<int>(::memfd_create("p2g-ring", 0));
  P2G_CHECK_INTERNAL(fd >= 0, "memfd_create for ring failed");
  P2G_CHECK_INTERNAL(::ftruncate(fd, static_cast<off_t>(
                                         ShmRing::bytes_required(slots))) == 0,
                     "ftruncate for ring failed");
  return fd;  // zero-filled: the valid empty-ring state
}

}  // namespace

ClusterReport run_cluster(const ClusterOptions& options) {
  const WorkloadSpec* spec = find_workload(options.workload);
  P2G_CHECK_ARGUMENT(spec != nullptr,
                     "unknown workload '" + options.workload + "'");
  P2G_CHECK_ARGUMENT(!options.node_binary.empty(),
                     "ClusterOptions::node_binary is required");
  P2G_CHECK_ARGUMENT(options.nodes >= 1, "need at least one node");

  ClusterReport report;
  Stopwatch stopwatch;

  // Same derivation as dist::Master::run(): partition the final static
  // graph, place partitions on the (uniform) topology, name an owner per
  // kernel. Bit-exactness against the in-process run needs an identical
  // ownership map, and this is where it comes from in both drivers.
  Program reference = spec->build();
  const graph::FinalGraph final_graph =
      graph::FinalGraph::from_program(reference);
  const graph::Partition partition =
      graph::partition_graph(final_graph, options.nodes);

  std::vector<std::string> node_names;
  for (int i = 0; i < options.nodes; ++i) {
    node_names.push_back("node" + std::to_string(i));
  }
  graph::GlobalTopology topology;
  for (const std::string& name : node_names) {
    topology.add_node(graph::NodeTopology::local_machine(name));
  }
  const std::vector<size_t> placement =
      topology.place_partitions(partition.part_weights(final_graph));
  std::map<std::string, std::string> kernel_owner;
  for (size_t k = 0; k < final_graph.kernel_count(); ++k) {
    const int part = partition.assignment[k];
    const size_t node = placement[static_cast<size_t>(part)];
    kernel_owner[final_graph.kernel_names[k]] = node_names[node];
  }

  obs::MetricsRegistry hub_registry;
  SocketHub hub(&hub_registry);
  auto master_mailbox = hub.register_endpoint("master");

  // Shared-memory wiring: one arena memfd per node, one ring memfd per
  // directed pair. Created before fork so the fds are inherited; the
  // supervisor's own copies are closed after the last fork.
  const int n = options.nodes;
  std::vector<std::shared_ptr<ShmArena>> arenas;
  std::vector<std::vector<int>> ring_fd(  // ring_fd[i][j]: i -> j
      static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(n), -1));
  if (options.shm) {
    for (int i = 0; i < n; ++i) {
      arenas.push_back(ShmArena::create(options.arena_bytes));
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          ring_fd[static_cast<size_t>(i)][static_cast<size_t>(j)] =
              make_ring_memfd(options.ring_slots);
        }
      }
    }
  }

  // Launch one process per node. The argv is assembled pre-fork; the child
  // only execs (fork from a threaded process must not run arbitrary code).
  std::map<std::string, pid_t> pids;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> args;
    args.push_back(options.node_binary);
    args.push_back("--node");
    args.push_back(node_names[static_cast<size_t>(i)]);
    args.push_back("--connect");
    args.push_back(std::to_string(hub.port()));
    args.push_back("--workload");
    args.push_back(options.workload);
    args.push_back("--workers");
    args.push_back(std::to_string(options.workers));
    if (options.crash_after_ms > 0 &&
        options.crash_node == node_names[static_cast<size_t>(i)]) {
      args.push_back("--crash-after-ms");
      args.push_back(std::to_string(options.crash_after_ms));
    }
    if (options.shm) {
      args.push_back("--shm-arena");
      args.push_back(std::to_string(arenas[static_cast<size_t>(i)]->fd()) +
                     ":" + std::to_string(options.arena_bytes));
      args.push_back("--shm-slots");
      args.push_back(std::to_string(options.ring_slots));
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        // peer:arena_fd:arena_bytes:tx_fd:rx_fd (tx = i->j, rx = j->i)
        args.push_back("--shm-peer");
        args.push_back(
            node_names[static_cast<size_t>(j)] + ":" +
            std::to_string(arenas[static_cast<size_t>(j)]->fd()) + ":" +
            std::to_string(options.arena_bytes) + ":" +
            std::to_string(ring_fd[static_cast<size_t>(i)]
                                  [static_cast<size_t>(j)]) +
            ":" +
            std::to_string(ring_fd[static_cast<size_t>(j)]
                                  [static_cast<size_t>(i)]));
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    P2G_CHECK_INTERNAL(pid >= 0, "fork failed");
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);  // exec failed
    }
    pids[node_names[static_cast<size_t>(i)]] = pid;
  }
  // Children hold their inherited copies; drop the supervisor's.
  for (auto& row : ring_fd) {
    for (int& fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }

  std::set<std::string> dead;
  const auto kill_node = [&](const std::string& name) {
    if (dead.count(name)) return;
    dead.insert(name);
    hub.mark_dead(name);
    const auto it = pids.find(name);
    if (it != pids.end()) ::kill(it->second, SIGKILL);
    report.dead_nodes.push_back(name);
    P2G_WARNC("net") << "cluster: node " << name << " declared dead";
  };

  ft::FailureDetector::Options detector_options;
  detector_options.min_silence_us = 2'000'000;  // real processes: 2s floor
  ft::FailureDetector detector(detector_options);

  std::map<std::string, obs::MetricsSnapshot> node_metrics;
  std::set<std::string> done_nodes;
  std::map<std::string, dist::IdleReport>* active_round = nullptr;

  const auto handle = [&](Message&& message) {
    switch (message.type) {
      case MessageType::kHeartbeat:
        detector.heartbeat(message.from, now_ns());
        break;
      case MessageType::kIdleReport:
        if (active_round != nullptr && !dead.count(message.from)) {
          (*active_round)[message.from] =
              dist::IdleReport::decode(message.payload);
        }
        break;
      case MessageType::kMetricsReport: {
        dist::MetricsReport metrics =
            dist::MetricsReport::decode(message.payload);
        node_metrics[metrics.node] = std::move(metrics.snapshot);
        break;
      }
      case MessageType::kCapture: {
        const CaptureMsg capture = CaptureMsg::decode(message.payload);
        auto& ages = report.captured[capture.field];
        if (!ages.count(capture.age)) ages[capture.age] = capture.payload;
        break;
      }
      case MessageType::kNodeDone: {
        const NodeDoneMsg nd = NodeDoneMsg::decode(message.payload);
        report.node_ok[message.from] = nd.ok;
        if (!nd.ok) report.node_errors[message.from] = nd.error;
        done_nodes.insert(message.from);
        break;
      }
      default:
        break;  // topology reports etc.
    }
  };
  const auto drain = [&] {
    while (auto message = master_mailbox->try_pop()) handle(std::move(*message));
  };

  const int64_t deadline_ns = now_ns() + options.watchdog.count() * 1'000'000;

  if (!hub.wait_for_nodes(static_cast<size_t>(n),
                          std::chrono::milliseconds(15000))) {
    report.timed_out = true;
  } else {
    // Ship the kernel assignment (and what to capture) to every node, and
    // prime the failure detector so a node that dies before its first
    // heartbeat is still suspected.
    AssignMsg assign;
    for (const auto& [kernel, owner] : kernel_owner) {
      assign.kernels.emplace_back(kernel, owner);
    }
    assign.capture_fields = spec->capture;
    const int64_t t0 = now_ns();
    for (const std::string& name : node_names) {
      Message message;
      message.type = MessageType::kAssign;
      message.from = "master";
      message.payload = assign.encode();
      hub.send(name, std::move(message));
      detector.heartbeat(name, t0);
    }

    // Termination detection, the out-of-process variant: probe every
    // alive node, require every one to answer "idle" with globally
    // conserved and unchanged store counts, twice in a row.
    int stable_rounds = 0;
    int64_t last_sent = -1;
    while (stable_rounds < 2) {
      if (now_ns() > deadline_ns) {
        report.timed_out = true;
        break;
      }
      for (const std::string& suspect : detector.suspects(now_ns())) {
        kill_node(suspect);
        detector.remove(suspect);
      }
      std::vector<std::string> alive;
      for (const std::string& name : node_names) {
        if (!dead.count(name)) alive.push_back(name);
      }
      if (alive.empty()) break;

      Message probe;
      probe.type = MessageType::kIdleProbe;
      probe.from = "master";
      for (const std::string& name : alive) {
        if (hub.send(name, probe) != SendStatus::kDelivered) kill_node(name);
      }

      std::map<std::string, dist::IdleReport> replies;
      active_round = &replies;
      const int64_t round_deadline = now_ns() + 500'000'000;
      while (replies.size() < alive.size() && now_ns() < round_deadline &&
             now_ns() < deadline_ns) {
        drain();
        bool lost = false;
        for (const std::string& name : alive) {
          if (dead.count(name)) lost = true;
        }
        if (lost) break;
        if (replies.size() < alive.size()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      active_round = nullptr;
      if (replies.size() < alive.size()) {
        stable_rounds = 0;  // straggler or death: not quiescent
        continue;
      }
      bool all_idle = true;
      int64_t sent = 0;
      int64_t received = 0;
      for (const auto& [name, idle] : replies) {
        all_idle = all_idle && idle.idle;
        sent += idle.stores_sent;
        received += idle.stores_received;
      }
      // A dead node takes its receive counters with it, so global
      // conservation can never balance again after a crash; alive-side
      // quiescence with stable send counts is the strongest terminating
      // condition left.
      const bool conserved = sent == received || !dead.empty();
      if (all_idle && conserved && sent == last_sent) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
      }
      last_sent = sent;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Shut down: every alive node drains, captures, reports done and exits.
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = "master";
  hub.broadcast(std::move(shutdown));

  const int64_t collect_deadline = now_ns() + 10'000'000'000LL;
  const auto all_done = [&] {
    for (const std::string& name : node_names) {
      if (!dead.count(name) && !done_nodes.count(name)) return false;
    }
    return true;
  };
  while (!all_done() && now_ns() < collect_deadline) {
    drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain();

  // Reap the children; anything still alive past the grace window is
  // killed hard.
  const int64_t reap_deadline = now_ns() + 5'000'000'000LL;
  for (const auto& [name, pid] : pids) {
    while (true) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || r < 0) break;
      if (now_ns() > reap_deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  for (const auto& [name, snapshot] : node_metrics) {
    report.combined_metrics.merge(snapshot);
  }
  report.combined_metrics.merge(hub_registry.snapshot());

  const auto counter_value = [&](const char* name) -> int64_t {
    const obs::CounterValue* c = report.combined_metrics.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  report.data_frames = counter_value("net_tx_frames_total") +
                       counter_value("shm_tx_frames_total");
  report.copied_bytes = counter_value("net_tx_copied_bytes_total") +
                        counter_value("shm_tx_copied_bytes_total");
  report.bytes_copied_per_frame =
      report.data_frames > 0
          ? static_cast<double>(report.copied_bytes) /
                static_cast<double>(report.data_frames)
          : 0.0;

  report.bus = hub.stats();
  hub.close_all();
  report.wall_s = stopwatch.elapsed_s();
  return report;
}

// --- node process -----------------------------------------------------------

int run_node(const NodeConfig& config) {
  const WorkloadSpec* spec = find_workload(config.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "p2gnode: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  try {
    SocketNodeTransport bus(config.host, config.port, config.name);
    auto mailbox = bus.register_endpoint(config.name);

    // The assignment must arrive before the node can be built (kernel
    // ownership decides forwarding maps and enabled kernels).
    std::map<std::string, std::string> kernel_owner;
    std::vector<std::string> capture_fields;
    while (true) {
      auto message = mailbox->pop();
      if (!message) return 3;  // hub gone before assignment
      if (message->type == MessageType::kShutdown) return 0;
      if (message->type != MessageType::kAssign) continue;
      const AssignMsg assign = AssignMsg::decode(message->payload);
      for (const auto& [kernel, owner] : assign.kernels) {
        kernel_owner[kernel] = owner;
      }
      capture_fields = assign.capture_fields;
      break;
    }

    RunOptions options;
    options.workers = config.workers;
    options.metrics.enabled = true;
    spec->schedule(options);
    dist::ExecutionNode node(config.name, spec->build(), kernel_owner, bus,
                             options, dist::NodeFtOptions{});
    bus.set_metrics(node.runtime().mutable_metrics());

    std::shared_ptr<ShmArena> arena;
    std::unique_ptr<ShmDataPlane> plane;
    if (config.arena_fd >= 0) {
      arena = ShmArena::attach(config.arena_fd, config.arena_bytes);
      plane = std::make_unique<ShmDataPlane>(arena);
      for (const PeerShmConfig& peer : config.peers) {
        plane->add_peer(peer.name,
                        ShmArena::attach(peer.arena_fd, peer.arena_bytes),
                        peer.tx_ring_fd, peer.rx_ring_fd, config.ring_slots);
      }
      plane->attach(node);
    }

    node.announce("master");
    node.start();

    if (config.crash_after_ms > 0) {
      std::thread([ms = config.crash_after_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        ::_exit(137);  // simulated hard crash: no shutdown, no flush
      }).detach();
    }

    std::atomic<bool> heartbeat_stop{false};
    std::thread heartbeat([&] {
      int64_t seq = 0;
      while (!heartbeat_stop.load(std::memory_order_relaxed)) {
        dist::HeartbeatMsg beat;
        beat.seq = ++seq;
        beat.sent_ns = now_ns();
        Message message;
        message.type = MessageType::kHeartbeat;
        message.from = config.name;
        message.payload = beat.encode();
        bus.send("master", std::move(message));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.heartbeat_period_ms));
      }
    });

    bool ok = true;
    std::string error;
    try {
      node.join();  // blocks until the supervisor's kShutdown
    } catch (const Error& e) {
      ok = false;
      error = e.what();
    }
    heartbeat_stop.store(true, std::memory_order_relaxed);
    heartbeat.join();

    if (plane) {
      plane->close_tx();
      // The poller exits once every peer closed too; guard against a
      // crashed peer whose ring never closes.
      std::atomic<bool> joined{false};
      std::thread guard([&] {
        for (int i = 0; i < 10'000; ++i) {
          if (joined.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        plane->stop();
      });
      plane->join();
      joined.store(true, std::memory_order_relaxed);
      guard.join();
    }

    if (ok) {
      for (const std::string& field_name : capture_fields) {
        FieldStorage& storage = node.runtime().storage(field_name);
        for (const Age age : storage.live_ages()) {
          if (!storage.is_complete(age)) continue;
          const nd::AnyBuffer data = storage.fetch_whole(age);
          const auto* raw = reinterpret_cast<const uint8_t*>(data.raw());
          CaptureMsg capture;
          capture.field = field_name;
          capture.age = age;
          capture.payload.assign(
              raw, raw + static_cast<size_t>(data.element_count()) *
                             nd::element_size(data.type()));
          Message message;
          message.type = MessageType::kCapture;
          message.from = config.name;
          message.payload = capture.encode();
          bus.send("master", std::move(message));
        }
      }
    }

    NodeDoneMsg done;
    done.ok = ok;
    done.error = error;
    Message message;
    message.type = MessageType::kNodeDone;
    message.from = config.name;
    message.payload = done.encode();
    bus.send("master", std::move(message));
    bus.close_all();
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2gnode(%s): %s\n", config.name.c_str(), e.what());
    return 1;
  }
}

}  // namespace p2g::net
