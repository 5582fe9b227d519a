#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/logging.h"

namespace p2g::net {
namespace {

/// Writes the whole buffer, retrying short writes. MSG_NOSIGNAL: a peer
/// that died must surface as EPIPE, not kill the process with SIGPIPE.
bool write_all(int fd, const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool is_data_frame(dist::MessageType type) {
  return type == dist::MessageType::kRemoteStore ||
         type == dist::MessageType::kData;
}

}  // namespace

// --- SocketHub --------------------------------------------------------------

SocketHub::SocketHub(obs::MetricsRegistry* metrics) : metrics_(metrics) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  P2G_CHECK_INTERNAL(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  P2G_CHECK_INTERNAL(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind() failed: " + std::string(std::strerror(errno)));
  P2G_CHECK_INTERNAL(::listen(listen_fd_, 64) == 0, "listen() failed");

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

SocketHub::~SocketHub() { close_all(); }

void SocketHub::accept_loop() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (close_all)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::scoped_lock lock(mutex_);
      if (closed_) {
        ::close(fd);
        return;
      }
      pending_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void SocketHub::reader_loop(const std::shared_ptr<Connection>& conn) {
  FrameReader frames;
  uint8_t buf[64 * 1024];
  bool hello_done = false;
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: connection gone
    try {
      frames.feed(buf, static_cast<size_t>(n));
      while (auto envelope = frames.poll()) {
        if (!hello_done) {
          if (envelope->msg.type != dist::MessageType::kHello) {
            P2G_WARNC("net") << "first frame from fd " << conn->fd
                             << " is not kHello; dropping connection";
            break;
          }
          const HelloMsg hello = HelloMsg::decode(envelope->msg.payload);
          {
            std::scoped_lock lock(mutex_);
            conn->name = hello.name;
            nodes_[hello.name] = conn;
            for (auto it = pending_.begin(); it != pending_.end(); ++it) {
              if (it->get() == conn.get()) {
                pending_.erase(it);
                break;
              }
            }
          }
          hello_cv_.notify_all();
          hello_done = true;
          continue;
        }
        if (envelope->to == "*") {
          broadcast(std::move(envelope->msg));
        } else {
          route(envelope->to, std::move(envelope->msg));
        }
      }
    } catch (const Error& e) {
      P2G_WARNC("net") << "dropping connection '" << conn->name
                       << "': " << e.what();
      break;
    }
  }
  std::scoped_lock lock(mutex_);
  conn->dead = true;
  if (!conn->name.empty()) dead_[conn->name] = true;
}

bool SocketHub::wait_for_nodes(size_t n, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  return hello_cv_.wait_for(lock, timeout,
                            [&] { return nodes_.size() >= n || closed_; }) &&
         nodes_.size() >= n;
}

std::vector<std::string> SocketHub::connected_nodes() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, conn] : nodes_) names.push_back(name);
  return names;
}

std::shared_ptr<Transport::Mailbox> SocketHub::register_endpoint(
    const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto it = local_.find(name);
  if (it != local_.end()) return it->second;
  auto mailbox = std::make_shared<Mailbox>();
  local_.emplace(name, mailbox);
  return mailbox;
}

SendStatus SocketHub::send(const std::string& to, dist::Message msg) {
  return route(to, std::move(msg));
}

SendStatus SocketHub::route(const std::string& to, dist::Message msg) {
  std::shared_ptr<Connection> conn;
  {
    std::scoped_lock lock(mutex_);
    const auto dead_it = dead_.find(to);
    if (dead_it != dead_.end() && dead_it->second) {
      ++stats_.dead_letters;
      ++stats_.per_endpoint[to].dead_letters;
      if (metrics_ != nullptr) {
        metrics_->counter("net_dead_letters_total:" + to).add(1);
      }
      return SendStatus::kDead;
    }
    const auto local_it = local_.find(to);
    if (local_it != local_.end()) {
      if (closed_ || local_it->second->closed()) {
        ++stats_.dead_letters;
        ++stats_.per_endpoint[to].dead_letters;
        return SendStatus::kClosed;
      }
      ++stats_.delivered;
      stats_.bytes += static_cast<int64_t>(msg.payload.size());
      auto& ep = stats_.per_endpoint[to];
      ++ep.messages;
      ep.bytes += static_cast<int64_t>(msg.payload.size());
      local_it->second->push(std::move(msg));
      return SendStatus::kDelivered;
    }
    const auto node_it = nodes_.find(to);
    if (node_it == nodes_.end()) {
      throw_error(ErrorKind::kProtocol, "unknown endpoint '" + to + "'");
    }
    conn = node_it->second;
    if (conn->dead) {
      ++stats_.dead_letters;
      ++stats_.per_endpoint[to].dead_letters;
      if (metrics_ != nullptr) {
        metrics_->counter("net_dead_letters_total:" + to).add(1);
      }
      return SendStatus::kDead;
    }
  }
  NetEnvelope envelope;
  envelope.to = to;
  const size_t payload_bytes = msg.payload.size();
  envelope.msg = std::move(msg);
  if (!write_frame(conn, envelope)) {
    std::scoped_lock lock(mutex_);
    conn->dead = true;
    dead_[to] = true;
    ++stats_.dead_letters;
    ++stats_.per_endpoint[to].dead_letters;
    if (metrics_ != nullptr) {
      metrics_->counter("net_dead_letters_total:" + to).add(1);
    }
    return SendStatus::kDead;
  }
  std::scoped_lock lock(mutex_);
  ++stats_.delivered;
  stats_.bytes += static_cast<int64_t>(payload_bytes);
  auto& ep = stats_.per_endpoint[to];
  ++ep.messages;
  ep.bytes += static_cast<int64_t>(payload_bytes);
  return SendStatus::kDelivered;
}

int SocketHub::broadcast(dist::Message msg) {
  std::vector<std::string> targets;
  {
    std::scoped_lock lock(mutex_);
    for (const auto& [name, mailbox] : local_) {
      if (name != msg.from) targets.push_back(name);
    }
    for (const auto& [name, conn] : nodes_) {
      if (name != msg.from) targets.push_back(name);
    }
  }
  int delivered_count = 0;
  for (const auto& target : targets) {
    if (route(target, msg) == SendStatus::kDelivered) ++delivered_count;
  }
  return delivered_count;
}

bool SocketHub::write_frame(const std::shared_ptr<Connection>& conn,
                            const NetEnvelope& envelope) {
  const std::vector<uint8_t> frame = encode_frame(envelope);
  std::scoped_lock lock(conn->write_mutex);
  return write_all(conn->fd, frame.data(), frame.size());
}

void SocketHub::count_dead_letter(const std::string& to) {
  ++stats_.dead_letters;
  ++stats_.per_endpoint[to].dead_letters;
  if (metrics_ != nullptr) {
    metrics_->counter("net_dead_letters_total:" + to).add(1);
  }
}

void SocketHub::close_all() {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::scoped_lock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    for (auto& [name, mailbox] : local_) mailbox->close();
    for (auto& [name, conn] : nodes_) conns.push_back(conn);
    for (auto& conn : pending_) conns.push_back(conn);
    pending_.clear();
  }
  hello_cv_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
    conn->fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SocketHub::mark_dead(const std::string& name) {
  std::shared_ptr<Connection> conn;
  {
    std::scoped_lock lock(mutex_);
    dead_[name] = true;
    const auto it = nodes_.find(name);
    if (it != nodes_.end()) {
      conn = it->second;
      conn->dead = true;
    }
  }
  // Sever the socket so the fenced node's reader stops feeding the hub and
  // the remote process observes the cut.
  if (conn) ::shutdown(conn->fd, SHUT_RDWR);
}

bool SocketHub::is_dead(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = dead_.find(name);
  return it != dead_.end() && it->second;
}

bool SocketHub::unreachable(const std::string& name) const {
  return is_dead(name);
}

int64_t SocketHub::delivered() const {
  std::scoped_lock lock(mutex_);
  return stats_.delivered;
}

BusStats SocketHub::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

// --- SocketNodeTransport ----------------------------------------------------

SocketNodeTransport::SocketNodeTransport(const std::string& host,
                                         uint16_t port,
                                         const std::string& name)
    : name_(name) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  P2G_CHECK_INTERNAL(fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  P2G_CHECK_INTERNAL(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                     "bad hub address '" + host + "'");
  P2G_CHECK_INTERNAL(
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "connect to " + host + ":" + std::to_string(port) +
          " failed: " + std::string(std::strerror(errno)));

  HelloMsg hello;
  hello.name = name;
  hello.pid = static_cast<int64_t>(::getpid());
  NetEnvelope envelope;
  envelope.to = "master";
  envelope.msg.type = dist::MessageType::kHello;
  envelope.msg.from = name;
  envelope.msg.payload = hello.encode();
  const std::vector<uint8_t> frame = encode_frame(envelope);
  P2G_CHECK_INTERNAL(write_all(fd_, frame.data(), frame.size()),
                     "hello handshake write failed");

  reader_ = std::thread([this] { reader_loop(); });
}

SocketNodeTransport::~SocketNodeTransport() { close_all(); }

void SocketNodeTransport::set_metrics(obs::MetricsRegistry* metrics) {
  std::scoped_lock lock(mutex_);
  metrics_ = metrics;
}

bool SocketNodeTransport::hub_dead() const {
  std::scoped_lock lock(mutex_);
  return hub_dead_;
}

void SocketNodeTransport::reader_loop() {
  FrameReader frames;
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    try {
      frames.feed(buf, static_cast<size_t>(n));
      while (auto envelope = frames.poll()) {
        std::scoped_lock lock(mutex_);
        // Auto-register: frames may arrive for this node's endpoint in the
        // instant between connect and the driver's register_endpoint call.
        auto it = local_.find(envelope->to);
        if (it == local_.end()) {
          it = local_.emplace(envelope->to, std::make_shared<Mailbox>()).first;
        }
        ++stats_.delivered;
        stats_.bytes += static_cast<int64_t>(envelope->msg.payload.size());
        it->second->push(std::move(envelope->msg));
      }
    } catch (const Error& e) {
      P2G_WARNC("net") << "node '" << name_ << "' dropping hub stream: "
                       << e.what();
      break;
    }
  }
  std::scoped_lock lock(mutex_);
  hub_dead_ = true;
}

std::shared_ptr<Transport::Mailbox> SocketNodeTransport::register_endpoint(
    const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto it = local_.find(name);
  if (it != local_.end()) return it->second;
  auto mailbox = std::make_shared<Mailbox>();
  local_.emplace(name, mailbox);
  return mailbox;
}

SendStatus SocketNodeTransport::send(const std::string& to,
                                     dist::Message msg) {
  bool count_data = false;
  {
    std::scoped_lock lock(mutex_);
    const auto dead_it = dead_.find(to);
    if (dead_it != dead_.end() && dead_it->second) {
      count_dead_letter(to);
      return SendStatus::kDead;
    }
    const auto local_it = local_.find(to);
    if (local_it != local_.end()) {
      if (closed_ || local_it->second->closed()) {
        ++stats_.dead_letters;
        ++stats_.per_endpoint[to].dead_letters;
        return SendStatus::kClosed;
      }
      ++stats_.delivered;
      stats_.bytes += static_cast<int64_t>(msg.payload.size());
      auto& ep = stats_.per_endpoint[to];
      ++ep.messages;
      ep.bytes += static_cast<int64_t>(msg.payload.size());
      local_it->second->push(std::move(msg));
      return SendStatus::kDelivered;
    }
    if (hub_dead_ || closed_) {
      count_dead_letter(to);
      return SendStatus::kDead;
    }
    count_data = is_data_frame(msg.type);
  }
  NetEnvelope envelope;
  envelope.to = to;
  const size_t payload_bytes = msg.payload.size();
  envelope.msg = std::move(msg);
  const std::vector<uint8_t> frame = encode_frame(envelope);
  bool ok = false;
  {
    std::scoped_lock wlock(write_mutex_);
    ok = write_all(fd_, frame.data(), frame.size());
  }
  std::scoped_lock lock(mutex_);
  if (!ok) {
    hub_dead_ = true;
    count_dead_letter(to);
    return SendStatus::kDead;
  }
  ++stats_.delivered;
  stats_.bytes += static_cast<int64_t>(payload_bytes);
  auto& ep = stats_.per_endpoint[to];
  ++ep.messages;
  ep.bytes += static_cast<int64_t>(payload_bytes);
  if (count_data && metrics_ != nullptr) {
    metrics_->counter("net_tx_frames_total").add(1);
    metrics_->counter("net_tx_copied_bytes_total")
        .add(static_cast<int64_t>(payload_bytes));
  }
  return SendStatus::kDelivered;
}

int SocketNodeTransport::broadcast(dist::Message msg) {
  // Routed through the hub: it fans out to every endpoint except the
  // sender. The local return value only counts in-process deliveries.
  int delivered_count = 0;
  {
    std::scoped_lock lock(mutex_);
    for (auto& [name, mailbox] : local_) {
      if (name == msg.from || mailbox->closed()) continue;
      mailbox->push(msg);
      ++stats_.delivered;
      ++delivered_count;
    }
    if (hub_dead_ || closed_) return delivered_count;
  }
  NetEnvelope envelope;
  envelope.to = "*";
  envelope.msg = std::move(msg);
  const std::vector<uint8_t> frame = encode_frame(envelope);
  std::scoped_lock wlock(write_mutex_);
  write_all(fd_, frame.data(), frame.size());
  return delivered_count;
}

void SocketNodeTransport::count_dead_letter(const std::string& to) {
  ++stats_.dead_letters;
  ++stats_.per_endpoint[to].dead_letters;
  if (metrics_ != nullptr) {
    metrics_->counter("net_dead_letters_total:" + to).add(1);
  }
}

void SocketNodeTransport::close_all() {
  {
    std::scoped_lock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    for (auto& [name, mailbox] : local_) mailbox->close();
  }
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketNodeTransport::mark_dead(const std::string& name) {
  std::scoped_lock lock(mutex_);
  dead_[name] = true;
}

bool SocketNodeTransport::is_dead(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = dead_.find(name);
  return it != dead_.end() && it->second;
}

bool SocketNodeTransport::unreachable(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  const auto it = dead_.find(name);
  if (it != dead_.end() && it->second) return true;
  // Anything non-local is behind the hub connection.
  return hub_dead_ && local_.find(name) == local_.end();
}

int64_t SocketNodeTransport::delivered() const {
  std::scoped_lock lock(mutex_);
  return stats_.delivered;
}

BusStats SocketNodeTransport::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace p2g::net
