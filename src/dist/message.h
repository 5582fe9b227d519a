// Cluster message types (paper §IV: topology reports, partition
// assignment, data distribution via publish-subscribe, profiling feedback).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/instrumentation.h"
#include "core/trace.h"
#include "dist/serialize.h"
#include "graph/topology.h"
#include "nd/region.h"
#include "obs/metrics.h"

namespace p2g::dist {

enum class MessageType : uint8_t {
  kTopologyReport = 1,  ///< execution node -> master: local topology
  kRemoteStore = 2,     ///< node -> node: a store crossing the partition
  kProfileReport = 3,   ///< node -> master: instrumentation snapshot
  kIdleReport = 4,      ///< node -> master: quiescence probe answer
  kShutdown = 5,        ///< master -> nodes: stop
  kMetricsReport = 6,   ///< node -> master: telemetry snapshot

  // Fault-tolerance layer (src/ft).
  kData = 7,        ///< node -> node: reliable-channel envelope (DataEnvelope)
  kAck = 8,         ///< node -> node: cumulative ack (AckMsg)
  kHeartbeat = 9,   ///< node -> master: liveness beat (HeartbeatMsg)
  kReassign = 10,   ///< master -> nodes: failover ownership change
  kCheckpoint = 11, ///< node -> master: sealed-age snapshot (RemoteStore)

  // Out-of-process nodes (net::ProcessLauncher): real OS processes behind
  // a socket, which the master cannot call directly.
  kHello = 12,      ///< node -> hub: identify this connection (HelloMsg)
  kAssign = 13,     ///< master -> node: kernel ownership (AssignMsg)
  kIdleProbe = 14,  ///< master -> nodes: quiescence probe (empty payload)
  kCapture = 15,    ///< node -> master: captured field age (CaptureMsg)
  kNodeDone = 16,   ///< node -> master: final status (NodeDoneMsg)
};

struct Message {
  MessageType type = MessageType::kShutdown;
  std::string from;
  std::vector<uint8_t> payload;

  // In-process delivery metadata, mirrored out of the kData envelope by the
  // reliable channel so the chaos layer can reach fault verdicts without
  // decoding payloads. Zero on messages outside the reliable data plane.
  uint64_t seq = 0;      ///< per-(sender, destination) sequence number
  uint32_t attempt = 0;  ///< 1 = first transmission, >1 = retransmission

  // Causal trace context, mirrored out of the kData envelope (or stamped
  // directly on non-FT kRemoteStore forwards). `trace.span_id` is the
  // sending wire span — the causal parent of whatever the receiver does
  // with the payload. Zero when tracing is off or the data has no cause
  // (checkpoint restores).
  TraceContext trace;
};

/// A store forwarded across the partition boundary. Carries everything the
/// remote dependency analyzer needs for seal bookkeeping.
struct RemoteStore {
  int32_t field = -1;
  int64_t age = 0;
  nd::Region region;
  int32_t producer = -1;
  uint32_t store_decl = 0;
  bool whole = false;
  std::vector<uint8_t> payload;  ///< densely packed region elements

  std::vector<uint8_t> encode() const;
  static RemoteStore decode(const std::vector<uint8_t>& bytes);
};

/// An execution node's topology report.
struct TopologyReport {
  graph::NodeTopology topology;

  std::vector<uint8_t> encode() const;
  static TopologyReport decode(const std::vector<uint8_t>& bytes);
};

/// Instrumentation snapshot (for HLS reweighting / repartitioning).
struct ProfileReport {
  InstrumentationReport report;

  std::vector<uint8_t> encode() const;
  static ProfileReport decode(const std::vector<uint8_t>& bytes);
};

/// A node's full telemetry snapshot (counters, histograms, sampled
/// time series), shipped to the master after the node's runtime drained.
/// The master aggregates these into DistributedRunReport — the data side
/// of the paper's "instrumentation feeds the high-level scheduler" loop.
struct MetricsReport {
  std::string node;
  obs::MetricsSnapshot snapshot;

  std::vector<uint8_t> encode() const;
  static MetricsReport decode(const std::vector<uint8_t>& bytes);
};

/// Reliable-channel envelope: one data-plane message with its per-link
/// sequence number and the sender's causal trace context. The inner
/// message (currently always a RemoteStore) rides as opaque bytes so the
/// channel needs no knowledge of payloads.
///
/// Wire layout (ISSUE 6 revision): seq, trace_id, parent_span, inner_type,
/// inner blob. The two trace words sit *before* the type byte, so a
/// pre-revision envelope (8 + 1 + 4 bytes minimum) is always shorter than
/// the new minimum (29 bytes) and decoding it throws kProtocol instead of
/// silently misreading.
struct DataEnvelope {
  uint64_t seq = 0;
  uint64_t trace_id = 0;     ///< frame id (0 = untraced)
  uint64_t parent_span = 0;  ///< sending wire span (0 = untraced)
  MessageType inner_type = MessageType::kRemoteStore;
  std::vector<uint8_t> inner;

  std::vector<uint8_t> encode() const;
  static DataEnvelope decode(const std::vector<uint8_t>& bytes);
};

/// Cumulative acknowledgement: every data message up to and including
/// `cumulative` on the (sender -> acker) link has been delivered in order.
struct AckMsg {
  uint64_t cumulative = 0;

  std::vector<uint8_t> encode() const;
  static AckMsg decode(const std::vector<uint8_t>& bytes);
};

/// Liveness beat, node -> master. `sent_ns` feeds the phi-style detector's
/// inter-arrival statistics.
struct HeartbeatMsg {
  int64_t seq = 0;
  int64_t sent_ns = 0;

  std::vector<uint8_t> encode() const;
  static HeartbeatMsg decode(const std::vector<uint8_t>& bytes);
};

/// Failover directive, master -> every surviving node: `dead` has been
/// declared failed and each listed kernel moves to its new owner. Receivers
/// rebuild forwarding maps, enable newly owned kernels for deterministic
/// re-execution, and replay already-committed stores to the new consumers.
struct ReassignMsg {
  std::string dead;
  std::vector<std::pair<std::string, std::string>> kernels;  ///< name->owner

  std::vector<uint8_t> encode() const;
  static ReassignMsg decode(const std::vector<uint8_t>& bytes);
};

/// Quiescence probe answer used by the master's termination detection.
struct IdleReport {
  bool idle = false;
  int64_t stores_sent = 0;      ///< remote stores this node has sent
  int64_t stores_received = 0;  ///< remote stores it has applied

  std::vector<uint8_t> encode() const;
  static IdleReport decode(const std::vector<uint8_t>& bytes);
};

/// Node -> master: one complete age of a captured field, densely packed.
/// The master reassembles per-field output maps from these.
struct CaptureMsg {
  std::string field;
  int64_t age = 0;
  std::vector<uint8_t> payload;

  std::vector<uint8_t> encode() const;
  static CaptureMsg decode(const std::vector<uint8_t>& bytes);
};

/// Node -> master: final exit status of a node process.
struct NodeDoneMsg {
  bool ok = false;
  std::string error;

  std::vector<uint8_t> encode() const;
  static NodeDoneMsg decode(const std::vector<uint8_t>& bytes);
};

}  // namespace p2g::dist
