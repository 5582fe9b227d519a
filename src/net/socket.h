// TCP socket transport: real out-of-process message passing.
//
// Topology is a hub-routed star: the master process runs a SocketHub
// listening on 127.0.0.1, every node process connects one socket and
// identifies itself with a kHello frame. All traffic flows through the
// hub — node->node stores are forwarded by destination name — which keeps
// the connection count linear and gives the master a single place to
// observe, fence, and count every link.
//
// Both ends implement net::Transport, so the Master/ExecutionNode code and
// the ft decorators (ReliableChannel, ChaosBus) run unchanged over real
// sockets.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"

namespace p2g::net {

/// Master-side transport: listens, accepts node connections, routes
/// frames between nodes and to local (in-process) mailboxes. The master
/// process's own endpoints ("master") are registered locally; every other
/// destination must be a connected node.
class SocketHub : public Transport {
 public:
  /// Binds 127.0.0.1 on an ephemeral port and starts the accept thread.
  SocketHub();
  ~SocketHub() override;

  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  /// The port nodes should connect to.
  uint16_t port() const { return port_; }

  /// Blocks until `n` nodes have completed the kHello handshake (or the
  /// timeout expires). Returns true when all arrived.
  bool wait_for_nodes(size_t n, std::chrono::milliseconds timeout);

  /// Names of currently connected (hello-completed) nodes.
  std::vector<std::string> connected_nodes() const;

  // --- Transport ------------------------------------------------------------
  std::shared_ptr<Mailbox> register_endpoint(const std::string& name) override;
  SendStatus send(const std::string& to, dist::Message msg) override;
  int broadcast(dist::Message msg) override;
  void close_all() override;
  void mark_dead(const std::string& name) override;
  bool is_dead(const std::string& name) const override;
  bool unreachable(const std::string& name) const override;
  int64_t delivered() const override;
  BusStats stats() const override;

 private:
  struct Connection {
    int fd = -1;
    std::string name;       ///< empty until kHello arrives
    bool dead = false;      ///< fenced or socket failed
    std::thread reader;
    std::mutex write_mutex; ///< serializes frame writes to this fd
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);

  /// Routes one message toward `to` ("*" = every endpoint except
  /// msg.from). Local mailboxes win over connections of the same name.
  SendStatus route(const std::string& to, dist::Message msg);

  /// Writes one frame to a connection; on failure marks it dead.
  /// Assumes the caller holds no hub lock (takes the write mutex).
  bool write_frame(const std::shared_ptr<Connection>& conn,
                   const NetEnvelope& envelope);

  /// Counts a failed send to `to`. Caller holds mutex_.
  void count_dead_letter(const std::string& to);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;

  mutable std::mutex mutex_;
  std::condition_variable hello_cv_;
  bool closed_ = false;
  std::map<std::string, std::shared_ptr<Mailbox>> local_;
  std::map<std::string, std::shared_ptr<Connection>> nodes_;  ///< by name
  std::vector<std::shared_ptr<Connection>> pending_;  ///< pre-hello
  std::map<std::string, bool> dead_;  ///< fenced endpoints (nodes or local)
  BusStats stats_;
};

/// Node-side transport: one socket to the hub. Local endpoints (the node's
/// own mailboxes) are delivered in-process; everything else is framed and
/// written to the hub, which routes it onward.
class SocketNodeTransport : public Transport {
 public:
  /// Connects to the hub and sends the kHello handshake for `name`.
  SocketNodeTransport(const std::string& host, uint16_t port,
                      const std::string& name);
  ~SocketNodeTransport() override;

  SocketNodeTransport(const SocketNodeTransport&) = delete;
  SocketNodeTransport& operator=(const SocketNodeTransport&) = delete;

  // --- Transport ------------------------------------------------------------
  /// Idempotent: registering the same name twice returns the same mailbox
  /// (the node driver registers before ExecutionNode's constructor does).
  std::shared_ptr<Mailbox> register_endpoint(const std::string& name) override;
  SendStatus send(const std::string& to, dist::Message msg) override;
  int broadcast(dist::Message msg) override;
  void close_all() override;
  void mark_dead(const std::string& name) override;
  bool is_dead(const std::string& name) const override;
  bool unreachable(const std::string& name) const override;
  int64_t delivered() const override;
  BusStats stats() const override;
  /// `net_dead_letters_total:<peer>` (from BusStats::per_endpoint) and the
  /// data-plane frames sent through the hub (`net_tx_frames_total`,
  /// `net_tx_copied_bytes_total`).
  void add_metrics(obs::MetricsSnapshot& into) const override;

 private:
  void reader_loop();
  void count_dead_letter(const std::string& to);

  std::string name_;
  int fd_ = -1;
  std::thread reader_;

  mutable std::mutex mutex_;
  std::mutex write_mutex_;
  bool closed_ = false;
  bool hub_dead_ = false;
  std::map<std::string, std::shared_ptr<Mailbox>> local_;
  std::map<std::string, bool> dead_;
  BusStats stats_;
  int64_t tx_frames_ = 0;  ///< kRemoteStore/kData frames written
  int64_t tx_copied_bytes_ = 0;
};

}  // namespace p2g::net
