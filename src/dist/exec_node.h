// A simulated P2G execution node (paper Fig. 1).
//
// Each node owns a full Runtime but only *enables* the kernels of its
// partition. Stores produced locally on fields that remote kernels consume
// are forwarded to the nodes hosting those kernels and injected into their
// field storage, feeding the remote dependency analyzer exactly like a
// local store. How a store travels depends on where the target lives: a
// node in the same process gets it by direct call (a view of the committed
// bytes, no message; see deliver_local), a node in another process over
// the shared-memory data plane or as a serialized kRemoteStore message,
// and every store of a fault-tolerant run through the reliable channel.
// Every node also reports its local topology to the master.
//
// A node with a heartbeat period beats to the master from its heartbeat
// thread (fault-tolerant runs and every out-of-process node). Fault-tolerant
// mode (NodeFtOptions::enabled) layers the rest of the src/ft subsystem on
// top: store forwards travel through a ReliableChannel (seqnos, acks,
// retransmits), incoming stores apply idempotently (fill mode), the
// heartbeat thread periodically ships checkpoints of complete
// locally-produced (field, age) payloads, and kReassign messages from the
// master re-point the forwarding map and re-enable the kernels this node
// inherits from a dead peer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/program.h"
#include "core/runtime.h"
#include "dist/bus.h"
#include "ft/reliable.h"
#include "graph/topology.h"
#include "nd/view.h"

namespace p2g::dist {

/// Per-node supervision and fault-tolerance configuration (the master
/// derives it from MasterFtOptions and the launcher).
struct NodeFtOptions {
  bool enabled = false;
  /// Heartbeat period toward the master (0 = no heartbeat thread).
  int64_t heartbeat_period_ms = 0;
  /// Ship checkpoints and a telemetry snapshot every N beats (0 disables
  /// both).
  int checkpoint_every_beats = 0;
  /// Reliable-channel tuning (retransmission timers, jitter seed).
  ft::ReliableChannel::Options channel;
};

/// Out-of-band data plane hook: the in-process direct hand-off of
/// ThreadLauncher, or the shared-memory lane of src/net. When installed,
/// forward_store offers every outgoing store to the forwarder first; a
/// `true` return means the store is on its way to `target` and the
/// serialized message path is skipped for that target.
class StoreForwarder {
 public:
  virtual ~StoreForwarder() = default;
  virtual bool forward(const StoreEvent& event, const std::string& target) = 0;
  /// Adds the data plane's counters to the node's telemetry snapshot.
  virtual void add_metrics(obs::MetricsSnapshot& /*into*/) const {}
};

/// Final contents of captured fields: field name -> age -> densely packed
/// payload bytes.
using FieldCaptures =
    std::map<std::string, std::map<Age, std::vector<uint8_t>>>;

class ExecutionNode {
 public:
  /// `kernel_owner` maps every kernel name to the name of the node that
  /// runs it (the master's partitioning decision). A store_tap in
  /// `base_options` still fires, after the node forwarded the store.
  /// `capture_fields` are the fields capture() hands back after the run:
  /// the node retains (RunOptions::retain_fields) those it produces, and
  /// those it receives when their producers span several nodes, since it
  /// may then be the only node holding complete ages.
  ExecutionNode(std::string name, Program program,
                const std::map<std::string, std::string>& kernel_owner,
                net::Transport& bus, RunOptions base_options,
                NodeFtOptions ft = {},
                std::vector<std::string> capture_fields = {});

  /// Registers on the bus and reports the local topology to the master.
  void announce(const std::string& master_endpoint);

  /// Starts the runtime and the mailbox receiver threads (and, with a
  /// heartbeat period, the heartbeat thread).
  void start();

  /// Waits for both threads (after the master broadcast a shutdown). When
  /// the runtime collected metrics, ships a kMetricsReport snapshot to the
  /// master endpoint before closing the mailbox. Crashed nodes neither
  /// ship metrics nor rethrow their error.
  void join();

  /// Simulates a crash: ships a last telemetry snapshot to the master,
  /// then stops the runtime and silences the heartbeat. Idempotent, and it
  /// may be invoked from the crashing node's own send path (a ChaosBus
  /// crash trigger), so it must never join threads. The master fences the
  /// node via MessageBus::mark_dead, which blocks traffic *to* the node;
  /// the snapshot travels the other way.
  void crash();

  const std::string& name() const { return name_; }
  Runtime& runtime() { return *runtime_; }

  bool crashed() const { return crashed_.load(); }

  /// The node's answer to the master's termination probe: idle means the
  /// runtime is quiescent, the mailbox empty and the reliable channel (FT
  /// mode) drained; the store counters feed the conservation check. The
  /// in-process launcher calls it directly, a kIdleProbe gets it as a
  /// kIdleReport.
  IdleReport idle_report() const;

  ft::ReliableChannel::Stats channel_stats() const;

  /// Adds every complete age of the capture fields that `into` does not
  /// hold yet, densely packed (valid after join()).
  void capture(FieldCaptures* into);

  /// Installs a data-plane forwarder (see StoreForwarder). Must be called
  /// before start(); non-FT mode only — the reliable channel owns the FT
  /// data plane. The forwarder must outlive the node.
  void set_store_forwarder(StoreForwarder* forwarder);

  /// Fields that have at least one remote consumer (the set forward_store
  /// ships). A shared-memory data plane arena-backs exactly these.
  std::vector<FieldId> forwarded_fields() const;

  /// Applies a store that arrived over an out-of-band data plane: the
  /// counterpart of apply_remote_store for payloads that are already
  /// mapped into this process. Sets *adopted to true when the storage
  /// aliased the view's pages instead of copying. A valid `wire` (the
  /// sender's wire span) records the remote-store span and its flow
  /// arrows, as a traced kRemoteStore message does.
  void apply_plane_store(FieldId field, Age age, const nd::Region& region,
                         KernelId producer, uint32_t store_decl, bool whole,
                         const nd::ConstView& view, bool* adopted,
                         const TraceContext& wire = {});

  /// Hands one locally committed store to `target`, a node in this
  /// process, by direct call: no message and no serialization. The target
  /// gets a view of the committed bytes when storage yields one (a whole
  /// store is then adopted with zero copies), one fetch() copy otherwise.
  /// A traced store records the same wire span as the bus path.
  void deliver_local(const StoreEvent& event, ExecutionNode& target);

  /// The flight dump written by crash() (set only when the node crashed
  /// with flight_dir configured).
  const std::optional<std::string>& flight_dump() const {
    return flight_dump_path_;
  }

 private:
  void receiver_loop();
  void heartbeat_loop();
  void ship_checkpoints();
  /// Ships a kMetricsReport snapshot to the master: the runtime's metrics
  /// plus the transport's, the store forwarder's and the reliable
  /// channel's counters (nothing when metrics are disabled). Called
  /// periodically from the heartbeat loop and once more at join().
  void ship_metrics();
  /// Wire-send span bracket around one traced store forward: fresh span
  /// id before the send, span + flow endpoints after it. Returns the zero
  /// context when tracing is off or the store untraced.
  TraceContext begin_wire_span(const StoreEvent& event, int64_t* t0);
  void end_wire_span(const StoreEvent& event, const TraceContext& wire,
                     const std::string& target, int64_t t0);
  /// Remote-store span bracket around one traced incoming store: `recv`
  /// gets a fresh span id on `wire`'s frame before the apply; the span
  /// and its flow endpoints are recorded after it (the outgoing arrow
  /// only when the apply wrote fresh elements, i.e. pushed an event).
  /// Both are no-ops when tracing is off or `wire` is invalid.
  TraceContext begin_recv_span(const TraceContext& wire, int64_t* t0);
  void end_recv_span(const TraceContext& wire, const TraceContext& recv,
                     FieldId field, Age age, int64_t t0, bool fresh);
  /// Encodes the RemoteStore wire payload for one store event (fetches the
  /// freshly written bytes back out of local storage).
  std::vector<uint8_t> encode_store_payload(const StoreEvent& event);
  void forward_store(const StoreEvent& event);
  void apply_remote_store(const Message& message);
  void apply_reassign(const ReassignMsg& reassign);

  std::string name_;
  std::string master_endpoint_;  ///< set by announce()
  net::Transport& bus_;
  std::shared_ptr<net::Transport::Mailbox> mailbox_;
  std::unique_ptr<Runtime> runtime_;
  StoreForwarder* forwarder_ = nullptr;  ///< optional data plane

  NodeFtOptions ft_;
  std::unique_ptr<ft::ReliableChannel> channel_;  ///< FT mode only

  /// Guards the forwarding map, the ownership map and the store log, so a
  /// reassignment replays the log and flips the targets atomically with
  /// respect to concurrent forwards — every store reaches every current
  /// target exactly once (idempotent applies absorb the overlap anyway).
  std::mutex forward_mutex_;
  /// field id -> remote node names that host consumers of the field.
  std::vector<std::vector<std::string>> forward_targets_;
  std::map<std::string, std::string> kernel_owner_;
  std::vector<std::string> capture_fields_;
  /// Every forwarded payload, for replay to targets added by failover.
  std::vector<std::pair<FieldId, std::vector<uint8_t>>> store_log_;

  /// Interned net-lane span names (empty unless the runtime records
  /// spans): per peer node and per field id.
  std::map<std::string, uint32_t> wire_span_names_;
  std::map<std::string, uint32_t> reassign_span_names_;
  std::vector<uint32_t> recv_span_names_;

  /// (field, age) checkpoints already shipped (heartbeat thread only).
  std::set<std::pair<FieldId, Age>> checkpointed_;

  std::atomic<int64_t> stores_sent_{0};
  std::atomic<int64_t> stores_received_{0};
  std::atomic<bool> crashed_{false};

  std::mutex hb_mutex_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  std::thread runtime_thread_;
  std::thread receiver_thread_;
  std::thread heartbeat_thread_;
  std::optional<std::string> flight_dump_path_;  ///< written by crash()
  std::exception_ptr error_;
};

}  // namespace p2g::dist
