// Out-of-process execution nodes.
//
// ProcessLauncher is the dist::Launcher that puts every execution node in
// its own OS process: it fork+execs one `p2gnode` per node, wires them
// through a SocketHub (control + data frames) and optionally a
// shared-memory data plane (memfd arenas + SPSC rings inherited across
// exec by fd number), and ships each node the program's kernel-language
// source, the master's kernel ownership map and the node's run options in
// one kAssign message. dist::Master drives it like the in-process launcher
// — partitioning, termination detection, fencing and the report are the
// master's — except that idle reports and results travel as messages.
//
// run_node() is the other side: what a `p2gnode` process does between
// exec and exit.
#pragma once

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/master.h"
#include "net/socket.h"

namespace p2g::net {

/// How ProcessLauncher starts the node processes.
struct ProcessLaunch {
  /// Kernel-language (.p2g) source of the program every node process
  /// compiles. Kernel bodies are code, so the program must be the one the
  /// master partitioned (MasterOptions::program_factory).
  std::string source;
  /// Path of the node binary to exec (tools/p2gnode).
  std::string node_binary;
  /// Enable the same-host shared-memory data plane.
  bool shm = false;
  /// Fault injection for supervision tests: this node hard-exits right
  /// after its crash_after_stores-th committed store; the master must
  /// detect it, fence it and still terminate cleanly.
  std::string crash_node;
  int crash_after_stores = 0;
};

class ProcessLauncher final : public dist::Launcher {
 public:
  /// Compiles launch.source once, so a bad program fails here (kParse,
  /// kSema) before any process is forked.
  explicit ProcessLauncher(ProcessLaunch launch);
  /// Kills and reaps node processes still running (a run that threw).
  ~ProcessLauncher() override;

  bool in_process() const override { return false; }
  Transport& transport() override { return hub_; }
  bool start(const dist::NodePlan& plan, Transport& bus) override;
  bool request_idle(const std::string& node,
                    std::map<std::string, dist::IdleReport>* replies) override;
  void kill(const std::string& node) override;
  void join(std::map<std::string, dist::NodeResult>* results,
            dist::FieldCaptures* captured) override;

 private:
  /// Waits for every node process to exit; past `deadline_ns` the
  /// stragglers are killed hard.
  void reap(int64_t deadline_ns);

  ProcessLaunch launch_;
  SocketHub hub_;
  std::map<std::string, pid_t> pids_;
};

/// Shared-memory wiring of one peer, as handed to the node process (fd
/// numbers survive exec because the memfds are not close-on-exec).
struct PeerShmConfig {
  std::string name;
  int arena_fd = -1;
  int tx_ring_fd = -1;  ///< this node -> peer
  int rx_ring_fd = -1;  ///< peer -> this node
};

struct NodeConfig {
  std::string name;
  uint16_t port = 0;  ///< the master's hub on 127.0.0.1
  int workers = 1;
  int64_t heartbeat_period_ms = 15;
  /// Fault injection: hard-exit after this many committed stores (0 = off).
  int crash_after_stores = 0;
  /// Shared-memory plane (disabled when arena_fd < 0).
  int arena_fd = -1;
  std::vector<PeerShmConfig> peers;
};

/// The node-process main loop: connect, handshake, receive the
/// assignment, compile and run its program, ship profile, captures and
/// status.
/// Returns the process exit code.
int run_node(const NodeConfig& config);

}  // namespace p2g::net
