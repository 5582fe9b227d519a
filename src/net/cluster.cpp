#include "net/cluster.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "lang/driver.h"
#include "net/shm.h"
#include "net/wire.h"

namespace p2g::net {
namespace {

using dist::Message;
using dist::MessageType;

/// Per-node arena size of the shared-memory data plane.
constexpr size_t kArenaBytes = 16u << 20;
constexpr uint32_t kRingSlots = ShmDataPlane::kDefaultRingSlots;

int make_ring_memfd() {
  const int fd = static_cast<int>(::memfd_create("p2g-ring", 0));
  P2G_CHECK_INTERNAL(fd >= 0, "memfd_create for ring failed");
  const auto bytes = static_cast<off_t>(ShmRing::bytes_required(kRingSlots));
  P2G_CHECK_INTERNAL(::ftruncate(fd, bytes) == 0, "ftruncate for ring failed");
  return fd;  // zero-filled: the valid empty-ring state
}

}  // namespace

// --- launcher ---------------------------------------------------------------

ProcessLauncher::ProcessLauncher(ProcessLaunch launch)
    : launch_(std::move(launch)) {
  P2G_CHECK_ARGUMENT(!launch_.node_binary.empty(),
                     "ProcessLaunch::node_binary is required");
  lang::compile_source(launch_.source);  // a bad program throws here
}

ProcessLauncher::~ProcessLauncher() { reap(0); }

bool ProcessLauncher::start(const dist::NodePlan& plan, Transport&) {
  const size_t n = plan.names.size();

  // Shared-memory wiring: one arena memfd per node, one ring memfd per
  // directed pair. Created before fork so the fds are inherited; this
  // process's own copies are dropped after the last fork.
  std::vector<std::shared_ptr<ShmArena>> arenas;
  std::vector<std::vector<int>> ring_fd(n, std::vector<int>(n, -1));  // i->j
  if (launch_.shm) {
    for (size_t i = 0; i < n; ++i) {
      arenas.push_back(ShmArena::create(kArenaBytes));
      for (size_t j = 0; j < n; ++j) {
        if (i != j) ring_fd[i][j] = make_ring_memfd();
      }
    }
  }

  // Launch one process per node. The argv is assembled pre-fork; the child
  // only execs (fork from a threaded process must not run arbitrary code).
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> args = {
        launch_.node_binary,
        "--node", plan.names[i],
        "--connect", std::to_string(hub_.port()),
        "--workers", std::to_string(plan.options.workers),
        "--heartbeat-ms", std::to_string(plan.ft.heartbeat_period_ms)};
    if (launch_.crash_after_stores > 0 && launch_.crash_node == plan.names[i]) {
      args.push_back("--crash-after-stores");
      args.push_back(std::to_string(launch_.crash_after_stores));
    }
    if (launch_.shm) {
      args.push_back("--shm-arena");
      args.push_back(std::to_string(arenas[i]->fd()));
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        // peer:arena_fd:tx_fd:rx_fd (tx = i->j, rx = j->i)
        args.push_back("--shm-peer");
        args.push_back(plan.names[j] + ":" + std::to_string(arenas[j]->fd()) +
                       ":" + std::to_string(ring_fd[i][j]) + ":" +
                       std::to_string(ring_fd[j][i]));
      }
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    P2G_CHECK_INTERNAL(pid >= 0, "fork failed");
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);  // exec failed
    }
    pids_[plan.names[i]] = pid;
  }
  for (auto& row : ring_fd) {
    for (const int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }

  if (!hub_.wait_for_nodes(n, std::chrono::milliseconds(15000))) {
    return false;
  }
  // Ship the program, the kernel ownership map, what to capture and the
  // run options to every node.
  AssignMsg assign;
  assign.source = launch_.source;
  assign.max_age = plan.options.max_age;
  assign.metrics = plan.options.metrics.enabled;
  assign.kernels.assign(plan.kernel_owner.begin(), plan.kernel_owner.end());
  assign.capture_fields = plan.capture_fields;
  Message message;
  message.type = MessageType::kAssign;
  message.from = "master";
  message.payload = assign.encode();
  for (const std::string& name : plan.names) hub_.send(name, message);
  return true;
}

bool ProcessLauncher::request_idle(const std::string& node,
                                   std::map<std::string, dist::IdleReport>*) {
  Message probe;
  probe.type = MessageType::kIdleProbe;
  probe.from = "master";
  return hub_.send(node, std::move(probe)) == SendStatus::kDelivered;
}

void ProcessLauncher::kill(const std::string& node) {
  const auto it = pids_.find(node);
  if (it != pids_.end()) ::kill(it->second, SIGKILL);
}

void ProcessLauncher::join(std::map<std::string, dist::NodeResult>*,
                           dist::FieldCaptures*) {
  // Every alive node drains, ships its results and exits on kShutdown.
  reap(now_ns() + 15'000'000'000LL);
}

void ProcessLauncher::reap(int64_t deadline_ns) {
  for (const auto& [name, pid] : pids_) {
    while (true) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || r < 0) break;
      if (now_ns() > deadline_ns) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  pids_.clear();
}

// --- node process -----------------------------------------------------------

int run_node(const NodeConfig& config) {
  try {
    SocketNodeTransport bus("127.0.0.1", config.port, config.name);
    auto mailbox = bus.register_endpoint(config.name);

    // The assignment must arrive before the node can be built (it carries
    // the program, and kernel ownership decides forwarding maps and
    // enabled kernels).
    AssignMsg assign;
    while (true) {
      auto message = mailbox->pop();
      if (!message) return 3;  // hub gone before assignment
      if (message->type == MessageType::kShutdown) return 0;
      if (message->type != MessageType::kAssign) continue;
      assign = AssignMsg::decode(message->payload);
      break;
    }
    const std::map<std::string, std::string> kernel_owner(
        assign.kernels.begin(), assign.kernels.end());

    RunOptions options;
    options.workers = config.workers;
    options.max_age = assign.max_age;
    options.metrics.enabled = assign.metrics;
    if (config.crash_after_stores > 0) {
      // Simulated hard crash right after the Nth committed store: no
      // shutdown, no flush. Causal, so it always lands mid-run.
      auto stores = std::make_shared<std::atomic<int>>(0);
      options.store_tap = [stores, n = config.crash_after_stores](
                              const StoreEvent&) {
        if (stores->fetch_add(1) + 1 == n) ::_exit(137);
      };
    }
    dist::NodeFtOptions supervision;
    supervision.heartbeat_period_ms = config.heartbeat_period_ms;
    dist::ExecutionNode node(config.name,
                             lang::compile_source(assign.source).program,
                             kernel_owner, bus, options, supervision,
                             assign.capture_fields);

    std::unique_ptr<ShmDataPlane> plane;
    if (config.arena_fd >= 0) {
      plane = std::make_unique<ShmDataPlane>(
          ShmArena::attach(config.arena_fd, kArenaBytes));
      for (const PeerShmConfig& peer : config.peers) {
        plane->add_peer(peer.name, ShmArena::attach(peer.arena_fd, kArenaBytes),
                        peer.tx_ring_fd, peer.rx_ring_fd, kRingSlots);
      }
      plane->attach(node);
    }

    node.announce("master");
    node.start();

    bool ok = true;
    std::string error;
    try {
      node.join();  // blocks until the master's kShutdown
    } catch (const Error& e) {
      ok = false;
      error = e.what();
    }

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

    const auto send = [&](MessageType type, std::vector<uint8_t> payload) {
      Message message;
      message.type = type;
      message.from = config.name;
      message.payload = std::move(payload);
      bus.send("master", std::move(message));
    };
    if (ok) {
      dist::ProfileReport profile;
      profile.report = node.runtime().instrumentation();
      send(MessageType::kProfileReport, profile.encode());
      dist::FieldCaptures captured;
      node.capture(&captured);
      for (auto& [field, ages] : captured) {
        for (auto& [age, payload] : ages) {
          send(MessageType::kCapture,
               dist::CaptureMsg{field, age, std::move(payload)}.encode());
        }
      }
    }
    send(MessageType::kNodeDone, dist::NodeDoneMsg{ok, error}.encode());
    bus.close_all();
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2gnode(%s): %s\n", config.name.c_str(), e.what());
    return 1;
  }
}

}  // namespace p2g::net
