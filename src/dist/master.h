// The master node / high-level scheduler (paper §IV, Fig. 1).
//
// The master derives the final implicit static dependency graph from the
// program, partitions it (greedy + Kernighan-Lin, or tabu search), places
// the partitions on the global topology assembled from the execution
// nodes' reports, runs the cluster to completion (a two-round
// quiescence+message-conservation termination detector — the distributed
// analogue of the single-node outstanding counter), and collects
// instrumentation for repartitioning.
//
// Where the nodes live is the Launcher's business, and the only thing that
// differs between runs: Master::run() starts in-process ExecutionNodes on
// threads over a MessageBus; Master::run(launcher) hands the same
// ownership map and node options to another launcher — net::ProcessLauncher
// fork/execs one `p2gnode` process per node over sockets and ships them the
// program's kernel-language source. Partitioning, termination, failure
// detection and fencing, and the report exist once, here.
//
// With MasterFtOptions::enabled (in-process nodes only) the run goes
// through the src/ft subsystem: the bus becomes a seeded ChaosBus, nodes
// forward through reliable channels, and the master turns into a recovery
// coordinator — it consumes heartbeats and checkpoints, suspects silent
// nodes (phi-accrual style), fences them off the bus, reassigns their
// kernels round-robin over the survivors, and replays retained
// checkpoints. Out-of-process nodes heartbeat too: a silent or
// disconnected process is fenced and killed, without reassignment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/runtime.h"
#include "dist/bus.h"
#include "dist/exec_node.h"
#include "ft/chaos_bus.h"
#include "ft/failure_detector.h"
#include "ft/fault_plan.h"
#include "graph/partition.h"
#include "graph/static_graph.h"
#include "graph/tabu.h"
#include "graph/topology.h"
#include "obs/causal.h"

namespace p2g::dist {

/// Fault injection + fault tolerance for a distributed run.
struct MasterFtOptions {
  bool enabled = false;
  /// Seeded chaos: per-link drop/dup/reorder/delay plus scripted crashes.
  ft::FaultPlan plan;
  /// Node heartbeat period toward the master.
  int64_t heartbeat_period_ms = 15;
  /// Nodes ship checkpoints every N beats (0 disables).
  int checkpoint_every_beats = 4;
  ft::FailureDetector::Options detector;
  ft::ReliableChannel::Options channel;
};

struct MasterOptions {
  /// Number of execution nodes.
  int nodes = 2;
  /// Worker threads per node.
  int workers_per_node = 1;
  /// Use tabu search instead of greedy+KL for the partitioning.
  bool use_tabu = false;
  /// Enable telemetry on every node and aggregate the shipped snapshots
  /// into DistributedRunReport (node_metrics / combined_metrics).
  bool collect_node_metrics = true;
  /// Extra runtime options applied to every node (schedules, caps, ...).
  /// Process nodes get max_age and metrics.enabled in their kAssign
  /// message, like the program itself; the rest apply to in-process nodes.
  RunOptions base_options;
  /// Abort if the cluster does not terminate in time.
  std::chrono::milliseconds watchdog{30000};
  /// Program factory: each node needs its own Program instance because
  /// kernel bodies may capture per-run state.
  std::function<Program()> program_factory;
  /// Fault tolerance / chaos injection (src/ft; in-process nodes only).
  MasterFtOptions ft;
  /// Field names whose final contents are gathered into
  /// DistributedRunReport::captured after the run (every complete age,
  /// merged across surviving nodes) — the bit-exactness probe used by the
  /// chaos tests.
  std::vector<std::string> capture_fields;

  // --- distributed causal tracing (in-process nodes only) ------------------

  /// Write one merged Chrome trace of the whole cluster here: a process
  /// lane per node plus the master control lane (recovery spans) and, for
  /// crashed nodes, their flight lanes; cross-node dependency
  /// arrows as flow events. Implies collect_trace on every node.
  std::optional<std::string> trace_path;
  /// Enable per-node flight recording; crashed nodes dump each thread's
  /// newest spans as flight_<node>.json artifacts into this directory.
  std::optional<std::string> flight_dir;
};

/// Fault-tolerance outcome of a run. The chaos-plane counters
/// (data_messages..reordered) and the recovery counters (recoveries,
/// kernels_reassigned, dead_nodes) are deterministic functions of the
/// fault-plan seed; the delivery-layer counters (retransmits, acks, ...)
/// depend on timing and are only lower-bounded by the chaos counters.
struct FtRunReport {
  int64_t data_messages = 0;
  int64_t dropped = 0;
  int64_t duplicated = 0;
  int64_t delayed = 0;
  int64_t reordered = 0;
  int64_t crashes_fired = 0;
  int64_t dead_letters = 0;
  int64_t data_sent = 0;
  int64_t retransmits = 0;
  int64_t duplicates_dropped = 0;
  int64_t acks_sent = 0;
  int64_t heartbeats = 0;
  int64_t recoveries = 0;
  int64_t kernels_reassigned = 0;
  int64_t checkpoints_stored = 0;
  int64_t checkpoint_restores = 0;
  /// Nodes the master declared dead and fenced, in detection order.
  std::vector<std::string> dead_nodes;
  std::vector<int64_t> recovery_latency_ns;
};

struct DistributedRunReport {
  double wall_s = 0.0;
  bool timed_out = false;
  graph::Partition partition;
  /// Which node each partition landed on.
  std::vector<size_t> placement;
  /// Per-node instrumentation (kernels that ran elsewhere show zeroes).
  std::map<std::string, InstrumentationReport> node_reports;
  /// Merged instrumentation across the cluster.
  InstrumentationReport combined;
  /// Per-node telemetry snapshots, shipped over the bus as
  /// kMetricsReport messages (empty unless collect_node_metrics).
  std::map<std::string, obs::MetricsSnapshot> node_metrics;
  /// Cross-node reduction of node_metrics: counters summed, histograms
  /// merged bucket-wise (time series stay per node). FT runs also fold in
  /// the master's FtRunReport (recovery latency histogram,
  /// heartbeat/recovery counters).
  obs::MetricsSnapshot combined_metrics;
  int64_t messages_delivered = 0;
  /// Interconnect traffic: messages/bytes per destination endpoint.
  BusStats bus;
  graph::GlobalTopology topology;
  /// Fault-tolerance outcome (all zeroes when ft was disabled).
  FtRunReport ft;
  /// Final field contents per MasterOptions::capture_fields.
  FieldCaptures captured;
  /// Per-node final status (nodes that finished; a process node reports
  /// false with its error when its runtime failed).
  std::map<std::string, bool> node_ok;
  std::map<std::string, std::string> node_errors;

  /// Data-plane economics of process nodes: cross-process store frames
  /// (socket kRemoteStore + shm descriptors) and the payload bytes copied
  /// to ship them. On the shm fast lane a frame ships as an arena offset,
  /// so bytes_copied_per_frame collapses toward zero. Zero in-process.
  int64_t data_frames = 0;
  int64_t copied_bytes = 0;
  double bytes_copied_per_frame = 0.0;

  // --- distributed causal tracing -------------------------------------------

  /// The merged trace file (set when MasterOptions::trace_path was).
  std::optional<std::string> trace_file;
  /// The cluster-wide causal span DAG, node-qualified (empty unless the
  /// run collected traces). Timestamps are raw monotonic ns.
  std::vector<obs::SpanRecord> trace_spans;
  /// Per-frame critical paths over trace_spans with latency attributed to
  /// queue/exec/wire/store/recovery buckets; the per-bucket p50/p99
  /// distributions are also folded into combined_metrics as
  /// critpath_<bucket>_ns histograms.
  obs::CriticalPathReport critical_paths;
  /// Flight-recorder dump artifacts written by crashed nodes.
  std::vector<std::string> flight_dumps;
};

/// What a launcher needs to bring the execution nodes up.
struct NodePlan {
  std::vector<std::string> names;
  /// Kernel name -> owning node (partition -> placement -> owner).
  std::map<std::string, std::string> kernel_owner;
  std::function<Program()> program_factory;
  RunOptions options;
  NodeFtOptions ft;
  std::vector<std::string> capture_fields;
};

/// What one node hands back after shutdown (besides its captures).
struct NodeResult {
  bool done = false;
  bool ok = true;
  std::string error;
  InstrumentationReport profile;
};

/// Where the execution nodes live. The master drives every launcher the
/// same way: start, probe for idleness until termination, fence the dead,
/// broadcast kShutdown, join.
class Launcher {
 public:
  virtual ~Launcher() = default;
  /// False when the nodes run in other processes: they heartbeat, and
  /// their tracing state is out of the master's reach.
  virtual bool in_process() const = 0;
  /// The interconnect the master and nodes talk over.
  virtual net::Transport& transport() = 0;
  /// Brings the nodes up; in-process nodes attach to `bus` (the transport,
  /// or a ChaosBus over it). False when they did not come up in time.
  virtual bool start(const NodePlan& plan, net::Transport& bus) = 0;
  /// Asks `node` whether it is idle: in-process nodes answer into
  /// `replies`, others get a kIdleProbe and answer with a kIdleReport to
  /// the master. False when `node` is unreachable.
  virtual bool request_idle(const std::string& node,
                            std::map<std::string, IdleReport>* replies) = 0;
  /// Stops a node the master declared dead.
  virtual void kill(const std::string& node) = 0;
  /// Waits for the nodes to finish after kShutdown. In-process nodes fill
  /// `results` and `captured`; others send kProfileReport, kCapture and
  /// kNodeDone.
  virtual void join(std::map<std::string, NodeResult>* results,
                    FieldCaptures* captured) = 0;
  /// The in-process nodes (trace stitching, channel statistics).
  virtual std::vector<ExecutionNode*> local_nodes() { return {}; }
};

/// In-process nodes: one ExecutionNode per name on this process's threads,
/// answering the master by direct calls instead of wire messages. Without
/// fault tolerance the nodes also hand stores to each other by direct call
/// (ExecutionNode::deliver_local), so the bus carries control messages
/// only. The nodes stay alive after the run, for inspection through
/// local_nodes().
class ThreadLauncher final : public Launcher {
 public:
  bool in_process() const override { return true; }
  net::Transport& transport() override { return bus_; }
  bool start(const NodePlan& plan, net::Transport& bus) override;
  bool request_idle(const std::string& node,
                    std::map<std::string, IdleReport>* replies) override;
  void kill(const std::string& node) override;
  void join(std::map<std::string, NodeResult>* results,
            FieldCaptures* captured) override;
  std::vector<ExecutionNode*> local_nodes() override;

 private:
  /// The node named `name`; throws kInternal for an unknown name.
  ExecutionNode& find(const std::string& name);

  MessageBus bus_;
  /// One in-process forwarder per node (FT off); outlives the nodes.
  std::vector<std::unique_ptr<StoreForwarder>> forwarders_;
  std::vector<std::unique_ptr<ExecutionNode>> nodes_;
  std::map<std::string, ExecutionNode*> by_name_;
};

class Master {
 public:
  explicit Master(MasterOptions options);

  /// Partitions, places, runs the cluster on in-process nodes and collects
  /// profiles.
  DistributedRunReport run();

  /// The same run with the nodes wherever `launcher` puts them. Tracing
  /// (trace_path, flight_dir) and fault tolerance need in-process nodes
  /// and are rejected with kInvalidArgument otherwise.
  DistributedRunReport run(Launcher& launcher);

  /// HLS repartitioning input: reweights the final graph with the profile
  /// data of a finished run and partitions again (the paper repartitions
  /// to improve throughput; live task migration is future work there too).
  graph::Partition repartition(const DistributedRunReport& previous) const;

  const graph::FinalGraph& final_graph() const { return final_graph_; }

 private:
  MasterOptions options_;
  Program reference_program_;  ///< used for graph derivation only
  graph::FinalGraph final_graph_;
};

}  // namespace p2g::dist
