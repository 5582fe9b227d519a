#include "dist/bus.h"

#include <vector>

#include "check/sync.h"
#include "common/error.h"

namespace p2g::dist {

std::shared_ptr<MessageBus::Mailbox> MessageBus::register_endpoint(
    const std::string& name) {
  std::scoped_lock lock(mutex_);
  P2G_CHECK_ARGUMENT(!endpoints_.count(name),
                     "endpoint '" + name + "' already registered");
  auto mailbox = std::make_shared<Mailbox>();
  endpoints_.emplace(name, mailbox);
  return mailbox;
}

SendStatus MessageBus::deliver(const std::string& to, Message message) {
  std::shared_ptr<Mailbox> mailbox;
  {
    std::scoped_lock lock(mutex_);
    const auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      throw_error(ErrorKind::kProtocol, "unknown endpoint '" + to + "'");
    }
    check::read(closed_, "MessageBus.closed");
    if (closed_) {
      ++stats_.dead_letters;
      ++stats_.per_endpoint[to].dead_letters;
      return SendStatus::kClosed;
    }
    if (dead_.count(to)) {
      ++stats_.dead_letters;
      ++stats_.per_endpoint[to].dead_letters;
      return SendStatus::kDead;
    }
    mailbox = it->second;
    const auto size = static_cast<int64_t>(message.payload.size());
    ++stats_.delivered;
    stats_.bytes += size;
    EndpointStats& ep = stats_.per_endpoint[to];
    ++ep.messages;
    ep.bytes += size;
  }
  mailbox->push(std::move(message));
  return SendStatus::kDelivered;
}

SendStatus MessageBus::send(const std::string& to, Message message) {
  return deliver(to, std::move(message));
}

int MessageBus::broadcast(Message message) {
  std::vector<std::string> targets;
  {
    std::scoped_lock lock(mutex_);
    if (closed_) return 0;
    for (const auto& [name, mailbox] : endpoints_) {
      if (name == message.from || dead_.count(name)) continue;
      targets.push_back(name);
    }
  }
  int delivered = 0;
  for (const std::string& name : targets) {
    // An endpoint may close or die between the snapshot and the deliver;
    // that simply shows up as a failed status here.
    if (deliver(name, message) == SendStatus::kDelivered) ++delivered;
  }
  return delivered;
}

void MessageBus::close_all() {
  std::scoped_lock lock(mutex_);
  check::write(closed_, "MessageBus.closed");
  closed_ = true;
  for (auto& [name, mailbox] : endpoints_) {
    mailbox->close();
  }
}

void MessageBus::mark_dead(const std::string& name) {
  std::scoped_lock lock(mutex_);
  dead_.insert(name);
  const auto it = endpoints_.find(name);
  if (it != endpoints_.end()) it->second->close();
}

bool MessageBus::unreachable(const std::string& to) const {
  std::scoped_lock lock(mutex_);
  return closed_ || dead_.count(to) != 0;
}

bool MessageBus::is_dead(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  return dead_.count(name) != 0;
}

int64_t MessageBus::delivered() const {
  std::scoped_lock lock(mutex_);
  return stats_.delivered;
}

BusStats MessageBus::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace p2g::dist
