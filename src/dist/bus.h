// In-process message bus: the simulated cluster interconnect.
//
// The paper's data distribution uses an event-based, distributed
// publish-subscribe model with direct communication between nodes (§IV).
// This bus gives every registered endpoint a mailbox; senders address
// endpoints by name or broadcast. In-process, but every message crosses the
// "wire" as serialized bytes. Store payloads between in-process nodes skip
// it unless the run is fault-tolerant: the thread launcher hands them over
// by direct call (ExecutionNode::deliver_local), so the bus carries the
// control traffic and the reliable channel's data.
//
// Since ISSUE 10 the bus is one implementation of the pluggable
// net::Transport interface; the socket/shared-memory backends in src/net
// carry the same contract between real OS processes, and the
// fault-tolerance layer (src/ft) decorates any Transport with a ChaosBus
// that drops, duplicates, delays, and reorders traffic according to a
// seeded FaultPlan.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/blocking_queue.h"
#include "dist/message.h"
#include "net/transport.h"

namespace p2g::dist {

// Historic spellings — the transport vocabulary moved to net:: when the bus
// became one backend among several. Existing call sites keep compiling.
using SendStatus = net::SendStatus;
using EndpointStats = net::EndpointStats;
using BusStats = net::BusStats;

class MessageBus : public net::Transport {
 public:
  /// A registered endpoint's mailbox.
  using Mailbox = net::Transport::Mailbox;

  ~MessageBus() override = default;

  /// Registers an endpoint; the returned mailbox lives as long as the bus.
  std::shared_ptr<Mailbox> register_endpoint(const std::string& name) override;

  /// Sends to one endpoint. Unknown destinations still throw kProtocol
  /// (that is a wiring bug, not a runtime failure); closed/dead
  /// destinations return a failure status and count as dead letters.
  SendStatus send(const std::string& to, Message message) override;

  /// Sends to every live endpoint except the sender. Returns the number of
  /// endpoints the message was actually delivered to (0 once closed).
  int broadcast(Message message) override;

  /// Closes every mailbox (shutdown). Subsequent sends return kClosed.
  void close_all() override;

  /// Declares an endpoint failed: its mailbox is closed and all further
  /// traffic to it is blackholed (kDead). Models fencing a crashed node.
  void mark_dead(const std::string& name) override;

  /// True if `name` was declared failed via mark_dead().
  bool is_dead(const std::string& name) const override;

  /// True when a send to `to` cannot succeed (bus closed or endpoint
  /// dead). The chaos layer checks this *before* reaching a fault verdict
  /// so that crash timing never perturbs the verdict stream of live links.
  bool unreachable(const std::string& to) const override;

  /// Messages delivered so far (diagnostics).
  int64_t delivered() const override;

  /// Message/byte counters, total and per destination endpoint.
  BusStats stats() const override;

 protected:
  /// Delivery primitive shared by send() and broadcast(): resolves the
  /// destination, applies closed/dead checks, updates counters, and
  /// enqueues.
  SendStatus deliver(const std::string& to, Message message);

 private:
  mutable sync::Mutex mutex_{"MessageBus.mutex"};
  std::map<std::string, std::shared_ptr<Mailbox>> endpoints_;
  std::set<std::string> dead_;
  bool closed_ = false;
  BusStats stats_;
};

}  // namespace p2g::dist
