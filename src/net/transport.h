// The pluggable cluster transport abstraction (ISSUE 10).
//
// Everything above the wire — exec nodes, the master, the
// fault-tolerance decorators — talks to a Transport: named endpoints with
// mailboxes, point-to-point sends with an observable delivery status, and
// fencing of failed endpoints. The in-process dist::MessageBus is one
// implementation (the original simulated interconnect); net::SocketHub /
// net::SocketNodeTransport carry the same contract over real TCP sockets
// between OS processes, and ft::ChaosBus decorates any of them with seeded
// fault injection.
//
// Header-only by design: p2g_wire (bus), p2g_ft (chaos/reliable) and
// p2g_net (sockets, shm) all implement or decorate this interface without
// a library-dependency cycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/blocking_queue.h"
#include "dist/message.h"

namespace p2g::net {

/// Outcome of a send() attempt. Delivery failure is a normal, queryable
/// result — a distributed sender must be able to observe "the other side is
/// gone" without an exception tearing down its worker thread.
enum class SendStatus : uint8_t {
  kDelivered = 0,  ///< enqueued into the destination mailbox / socket
  kClosed = 1,     ///< transport already shut down (close_all() ran)
  kDead = 2,       ///< destination declared failed (mark_dead())
  kDropped = 3,    ///< chaos layer discarded the message
};

/// Traffic counters of one transport endpoint (destination side).
struct EndpointStats {
  int64_t messages = 0;
  int64_t bytes = 0;  ///< payload bytes delivered to this endpoint
  /// Sends to this endpoint that failed (closed, dead or socket error).
  int64_t dead_letters = 0;
};

/// Transport-wide traffic snapshot: the interconnect view the paper's HLS
/// would consult when weighing edge cuts against link capacity.
struct BusStats {
  int64_t delivered = 0;
  int64_t bytes = 0;
  /// Messages addressed to closed or dead endpoints (delivery failures).
  int64_t dead_letters = 0;
  /// Per destination endpoint.
  std::map<std::string, EndpointStats> per_endpoint;
};

/// Abstract cluster interconnect. Implementations must be thread-safe:
/// sends arrive concurrently from worker, heartbeat and receiver threads.
class Transport {
 public:
  /// A registered endpoint's mailbox.
  using Mailbox = BlockingQueue<dist::Message>;

  virtual ~Transport() = default;

  /// Registers an endpoint; the returned mailbox lives as long as the
  /// transport. Local to this process — a remote backend only creates
  /// mailboxes for the endpoints hosted on this side of the wire.
  virtual std::shared_ptr<Mailbox> register_endpoint(
      const std::string& name) = 0;

  /// Sends to one endpoint. Unknown destinations throw kProtocol (that is
  /// a wiring bug, not a runtime failure); closed/dead destinations return
  /// a failure status and count as dead letters.
  virtual SendStatus send(const std::string& to, dist::Message message) = 0;

  /// Sends to every live endpoint except the sender. Returns the number of
  /// endpoints the message was handed to (0 once closed).
  virtual int broadcast(dist::Message message) = 0;

  /// Shuts the transport down; subsequent sends return kClosed.
  virtual void close_all() = 0;

  /// Declares an endpoint failed: its mailbox/link is closed and all
  /// further traffic to it is blackholed (kDead). Models fencing a
  /// crashed node.
  virtual void mark_dead(const std::string& name) = 0;

  /// True if `name` was declared failed via mark_dead().
  virtual bool is_dead(const std::string& name) const = 0;

  /// True when a send to `to` cannot succeed (transport closed or endpoint
  /// dead). The chaos layer checks this *before* reaching a fault verdict
  /// so that crash timing never perturbs the verdict stream of live links.
  virtual bool unreachable(const std::string& to) const = 0;

  /// Messages delivered so far (diagnostics).
  virtual int64_t delivered() const = 0;

  /// Message/byte counters, total and per destination endpoint.
  virtual BusStats stats() const = 0;

  /// Adds this transport's telemetry counters to a node's snapshot. The
  /// default adds nothing: a transport shared by every in-process node
  /// would otherwise be counted once per node.
  virtual void add_metrics(obs::MetricsSnapshot& /*into*/) const {}
};

}  // namespace p2g::net
