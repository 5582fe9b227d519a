#include "dist/exec_node.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"

namespace p2g::dist {

namespace {

/// Trace lane for wire sends, remote-store applies and reassignments
/// (matches TraceCollector's default "net" thread label).
constexpr int64_t kNetLane = -2;

}  // namespace

ExecutionNode::ExecutionNode(
    std::string name, Program program,
    const std::map<std::string, std::string>& kernel_owner,
    net::Transport& bus, RunOptions base_options, NodeFtOptions ft)
    : name_(std::move(name)),
      bus_(bus),
      ft_(std::move(ft)),
      kernel_owner_(kernel_owner) {
  mailbox_ = bus_.register_endpoint(name_);

  // Enable only this node's kernels.
  RunOptions options = std::move(base_options);
  options.keep_alive = true;
  // The node's name labels its process lane in the merged trace and salts
  // its span ids (so ids never collide across nodes).
  options.trace_label = name_;
  if (ft_.enabled) options.idempotent_stores = true;
  for (const KernelDef& k : program.kernels()) {
    const auto it = kernel_owner.find(k.name);
    P2G_CHECK_ARGUMENT(it != kernel_owner.end(),
                       "kernel '" + k.name + "' has no owner");
    if (it->second != name_) {
      options.disabled_kernels.insert(k.name);
    }
  }

  // Forwarding map: for every field, the remote nodes hosting consumers.
  forward_targets_.resize(program.fields().size());
  for (const FieldDecl& f : program.fields()) {
    std::vector<std::string>& targets =
        forward_targets_[static_cast<size_t>(f.id)];
    for (const Program::Use& use : program.consumers_of(f.id)) {
      const std::string& owner =
          kernel_owner.at(program.kernel(use.kernel).name);
      if (owner != name_ &&
          std::find(targets.begin(), targets.end(), owner) ==
              targets.end()) {
        targets.push_back(owner);
      }
    }
  }

  options.store_tap = [this](const StoreEvent& event) {
    forward_store(event);
  };

  runtime_ = std::make_unique<Runtime>(std::move(program),
                                       std::move(options));
  if (ft_.enabled) {
    channel_ = std::make_unique<ft::ReliableChannel>(bus_, name_,
                                                     ft_.channel);
    channel_->set_trace(runtime_->mutable_trace());
  }
}

TraceContext ExecutionNode::begin_wire_span(const StoreEvent& event,
                                            int64_t* t0) {
  if (!event.ctx.valid() ||
      (runtime_->trace() == nullptr && runtime_->flight() == nullptr)) {
    return {};
  }
  *t0 = now_ns();
  return TraceContext{event.ctx.trace_id, runtime_->next_span_id()};
}

void ExecutionNode::end_wire_span(const StoreEvent& event,
                                  const TraceContext& wire,
                                  const std::string& target, int64_t t0) {
  if (!wire.valid()) return;
  const int64_t t1 = now_ns();
  if (TraceCollector* trace = runtime_->mutable_trace()) {
    // The producer's flow arrow lands on the wire span, and a new arrow
    // leaves it toward the receiving node's remote-store span.
    trace->record_flow_finish(event.ctx, t0, kNetLane);
    TraceCollector::Span span;
    span.name = "wire->" + target;
    span.start_ns = t0;
    span.duration_ns = t1 - t0;
    span.thread_id = kNetLane;
    span.age = event.age;
    span.bodies = 1;
    span.kind = SpanKind::kWire;
    span.trace_id = wire.trace_id;
    span.span_id = wire.span_id;
    span.parent_span = event.ctx.span_id;
    trace->record(std::move(span));
    trace->record_flow_start(wire, t1, kNetLane);
  }
  if (FlightRecorder* flight = runtime_->flight()) {
    flight->record("wire", SpanKind::kWire, t0, t1 - t0, kNetLane,
                   event.ctx, wire.span_id, event.age);
  }
}

void ExecutionNode::announce(const std::string& master_endpoint) {
  master_endpoint_ = master_endpoint;
  TopologyReport report;
  report.topology = graph::NodeTopology::local_machine(name_);
  Message message;
  message.type = MessageType::kTopologyReport;
  message.from = name_;
  message.payload = report.encode();
  bus_.send(master_endpoint, std::move(message));
}

std::vector<uint8_t> ExecutionNode::encode_store_payload(
    const StoreEvent& event) {
  RemoteStore remote;
  remote.field = event.field;
  remote.age = event.age;
  remote.region = event.region;
  remote.producer = event.producer;
  remote.store_decl = static_cast<uint32_t>(event.store_decl);
  remote.whole = event.whole;
  // Pull the freshly written payload back out of local storage.
  const nd::AnyBuffer data =
      runtime_->storage(event.field).fetch(event.age, event.region);
  const auto* raw = reinterpret_cast<const uint8_t*>(data.raw());
  remote.payload.assign(
      raw, raw + static_cast<size_t>(data.element_count()) *
                     nd::element_size(data.type()));
  return remote.encode();
}

void ExecutionNode::forward_store(const StoreEvent& event) {
  // Cheap pre-check without the lock; the authoritative read is below.
  if (!ft_.enabled &&
      forward_targets_[static_cast<size_t>(event.field)].empty()) {
    return;
  }

  if (!ft_.enabled) {
    // Offer each target to the data plane first; only targets it declines
    // fall back to the serialized message path (and only then is the
    // payload pulled back out of storage and encoded).
    const auto& targets =
        forward_targets_[static_cast<size_t>(event.field)];
    std::vector<const std::string*> wire_targets;
    for (const std::string& target : targets) {
      if (forwarder_ != nullptr && forwarder_->forward(event, target)) {
        stores_sent_.fetch_add(1);
        continue;
      }
      wire_targets.push_back(&target);
    }
    if (wire_targets.empty()) return;
    Message message;
    message.type = MessageType::kRemoteStore;
    message.from = name_;
    message.payload = encode_store_payload(event);
    for (const std::string* target : wire_targets) {
      stores_sent_.fetch_add(1);
      int64_t t0 = 0;
      const TraceContext wire = begin_wire_span(event, &t0);
      message.trace = wire;
      bus_.send(*target, message);
      end_wire_span(event, wire, *target, t0);
    }
    return;
  }

  std::vector<uint8_t> payload = encode_store_payload(event);

  // FT mode: log the payload for failover replay, then send reliably. The
  // log append and the target snapshot happen under the same lock a
  // reassignment takes, so every store reaches every current target.
  std::scoped_lock lock(forward_mutex_);
  store_log_.emplace_back(event.field, payload);
  for (const std::string& target :
       forward_targets_[static_cast<size_t>(event.field)]) {
    stores_sent_.fetch_add(1);
    int64_t t0 = 0;
    const TraceContext wire = begin_wire_span(event, &t0);
    channel_->send(target, MessageType::kRemoteStore, payload, wire);
    end_wire_span(event, wire, target, t0);
  }
}

void ExecutionNode::apply_remote_store(const Message& message) {
  // A traced message carries {frame id, sending wire span}; the apply
  // becomes a remote-store span parented on that wire span, and whatever
  // work the injected event triggers is parented on the apply.
  const bool traced =
      message.trace.valid() &&
      (runtime_->trace() != nullptr || runtime_->flight() != nullptr);
  const int64_t t0 = traced ? now_ns() : 0;
  const RemoteStore remote = RemoteStore::decode(message.payload);
  const Program& prog = runtime_->program();
  if (remote.field < 0 ||
      static_cast<size_t>(remote.field) >= prog.fields().size()) {
    throw_error(ErrorKind::kProtocol, "remote store for unknown field id " +
                                          std::to_string(remote.field));
  }
  const size_t element_bytes =
      nd::element_size(prog.field(remote.field).type);
  if (remote.payload.size() !=
      static_cast<size_t>(remote.region.element_count()) * element_bytes) {
    throw_error(ErrorKind::kProtocol,
                "remote store payload size does not match its region");
  }
  TraceContext recv;
  if (traced) {
    recv = TraceContext{message.trace.trace_id, runtime_->next_span_id()};
  }
  const int64_t fresh = runtime_->inject_store(
      remote.field, remote.age, remote.region, remote.producer,
      remote.store_decl, remote.whole,
      reinterpret_cast<const std::byte*>(remote.payload.data()),
      /*fill=*/ft_.enabled, recv);
  stores_received_.fetch_add(1);
  if (!traced) return;
  const int64_t t1 = now_ns();
  if (TraceCollector* trace = runtime_->mutable_trace()) {
    trace->record_flow_finish(message.trace, t0, kNetLane);
    TraceCollector::Span span;
    span.name = "recv:" + prog.field(remote.field).name;
    span.start_ns = t0;
    span.duration_ns = t1 - t0;
    span.thread_id = kNetLane;
    span.age = remote.age;
    span.bodies = 1;
    span.kind = SpanKind::kRemoteStore;
    span.trace_id = recv.trace_id;
    span.span_id = recv.span_id;
    span.parent_span = message.trace.span_id;
    trace->record(std::move(span));
    // Duplicate fill applies push no event, so nothing downstream will
    // ever pick this flow up — skip the dangling arrow.
    if (fresh > 0) trace->record_flow_start(recv, t1, kNetLane);
  }
  if (FlightRecorder* flight = runtime_->flight()) {
    flight->record("recv", SpanKind::kRemoteStore, t0, t1 - t0, kNetLane,
                   message.trace, recv.span_id, remote.age);
  }
}

void ExecutionNode::set_store_forwarder(StoreForwarder* forwarder) {
  P2G_CHECK_ARGUMENT(!ft_.enabled,
                     "store forwarder requires non-FT mode (the reliable "
                     "channel owns the FT data plane)");
  forwarder_ = forwarder;
}

std::vector<FieldId> ExecutionNode::forwarded_fields() const {
  std::vector<FieldId> fields;
  for (size_t i = 0; i < forward_targets_.size(); ++i) {
    if (!forward_targets_[i].empty()) {
      fields.push_back(static_cast<FieldId>(i));
    }
  }
  return fields;
}

void ExecutionNode::apply_plane_store(FieldId field, Age age,
                                      const nd::Region& region,
                                      KernelId producer, uint32_t store_decl,
                                      bool whole, const nd::ConstView& view,
                                      bool* adopted) {
  const Program& prog = runtime_->program();
  if (field < 0 || static_cast<size_t>(field) >= prog.fields().size()) {
    throw_error(ErrorKind::kProtocol, "plane store for unknown field id " +
                                          std::to_string(field));
  }
  if (view.type() != prog.field(field).type) {
    throw_error(ErrorKind::kProtocol,
                "plane store element type does not match the field");
  }
  runtime_->inject_store_view(field, age, region, producer, store_decl,
                              whole, view, adopted);
  stores_received_.fetch_add(1);
}

void ExecutionNode::apply_reassign(const ReassignMsg& reassign) {
  // Recovery span: the window in which this node rebuilds forwarding
  // state and replays its store log. Gap time overlapping it on this
  // node is attributed to the "recovery" critical-path bucket.
  const bool traced =
      runtime_->trace() != nullptr || runtime_->flight() != nullptr;
  const int64_t t0 = traced ? now_ns() : 0;
  std::vector<std::string> newly_owned;
  {
    std::scoped_lock lock(forward_mutex_);
    for (const auto& [kernel, owner] : reassign.kernels) {
      kernel_owner_[kernel] = owner;
      if (owner == name_) newly_owned.push_back(kernel);
    }
    // Rebuild the forwarding map against the new ownership; replay the
    // store log to every target that just appeared, and stop forwarding
    // into the dead node's closed mailbox.
    const Program& prog = runtime_->program();
    for (const FieldDecl& f : prog.fields()) {
      std::vector<std::string>& targets =
          forward_targets_[static_cast<size_t>(f.id)];
      targets.erase(
          std::remove(targets.begin(), targets.end(), reassign.dead),
          targets.end());
      for (const Program::Use& use : prog.consumers_of(f.id)) {
        const auto it = kernel_owner_.find(prog.kernel(use.kernel).name);
        if (it == kernel_owner_.end()) continue;
        const std::string& owner = it->second;
        if (owner == name_ || owner == reassign.dead) continue;
        if (std::find(targets.begin(), targets.end(), owner) !=
            targets.end()) {
          continue;
        }
        targets.push_back(owner);
        for (const auto& [field, payload] : store_log_) {
          if (field != f.id) continue;
          stores_sent_.fetch_add(1);
          channel_->send(owner, MessageType::kRemoteStore, payload);
        }
      }
    }
  }
  channel_->abandon_peer(reassign.dead);
  // Inherited kernels: the analyzer re-enables them and re-enumerates
  // their instances from surviving field data (deterministic
  // re-execution; idempotent stores absorb partially surviving results).
  for (const std::string& kernel : newly_owned) {
    runtime_->enable_kernel(kernel);
  }
  if (!traced) return;
  const int64_t t1 = now_ns();
  const uint64_t span_id = runtime_->next_span_id();
  if (TraceCollector* trace = runtime_->mutable_trace()) {
    TraceCollector::Span span;
    span.name = "reassign:" + reassign.dead;
    span.start_ns = t0;
    span.duration_ns = t1 - t0;
    span.thread_id = kNetLane;
    span.age = 0;
    span.bodies = static_cast<int64_t>(reassign.kernels.size());
    span.kind = SpanKind::kRecovery;
    span.span_id = span_id;
    trace->record(std::move(span));
  }
  if (FlightRecorder* flight = runtime_->flight()) {
    flight->record("reassign", SpanKind::kRecovery, t0, t1 - t0, kNetLane,
                   TraceContext{}, span_id);
  }
}

void ExecutionNode::start() {
  runtime_thread_ = std::thread([this] {
    try {
      report_ = runtime_->run();
    } catch (...) {
      error_ = std::current_exception();
    }
  });
  receiver_thread_ = std::thread([this] { receiver_loop(); });
  if (ft_.enabled) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

void ExecutionNode::receiver_loop() {
  while (auto message = mailbox_->pop()) {
    try {
      switch (message->type) {
        case MessageType::kRemoteStore:
          // Direct (non-FT) forwards, or checkpoint restores replayed by
          // the master over its (chaos-exempt) control link.
          apply_remote_store(*message);
          break;
        case MessageType::kData: {
          if (!channel_) {
            P2G_WARN << "node " << name_ << ": kData without FT mode";
            break;
          }
          const std::string from = message->from;
          for (const Message& inner : channel_->on_data(*message)) {
            if (inner.type == MessageType::kRemoteStore) {
              apply_remote_store(inner);
            } else {
              P2G_WARN << "node " << name_
                       << ": unexpected inner message type";
            }
          }
          // Ack only after the data landed in field storage: the sender's
          // unacked count reaching zero then proves the data is applied
          // (the master's quiescence check builds on this).
          channel_->ack(from);
          break;
        }
        case MessageType::kAck:
          if (channel_) channel_->on_ack(*message);
          break;
        case MessageType::kReassign:
          if (channel_) {
            apply_reassign(ReassignMsg::decode(message->payload));
          }
          break;
        case MessageType::kIdleProbe: {
          // Out-of-process quiescence: the supervisor cannot inspect this
          // node's runtime directly, so it probes and we answer with our
          // idleness and message-conservation counters.
          IdleReport idle;
          idle.idle = runtime_->idle() && mailbox_->empty() &&
                      channel_unacked() == 0;
          idle.stores_sent = stores_sent_.load();
          idle.stores_received = stores_received_.load();
          Message reply;
          reply.type = MessageType::kIdleReport;
          reply.from = name_;
          reply.payload = idle.encode();
          bus_.send(master_endpoint_.empty() ? message->from
                                             : master_endpoint_,
                    std::move(reply));
          break;
        }
        case MessageType::kShutdown:
          runtime_->stop();
          return;
        default:
          P2G_WARN << "node " << name_ << ": unexpected message type";
          break;
      }
    } catch (...) {
      if (!error_) error_ = std::current_exception();
      runtime_->stop();
      return;
    }
  }
}

void ExecutionNode::heartbeat_loop() {
  int64_t beat = 0;
  std::unique_lock lock(hb_mutex_);
  while (!hb_stop_ && !crashed_.load()) {
    hb_cv_.wait_for(lock,
                    std::chrono::milliseconds(ft_.heartbeat_period_ms),
                    [&] { return hb_stop_ || crashed_.load(); });
    if (hb_stop_ || crashed_.load()) return;
    lock.unlock();

    ++beat;
    HeartbeatMsg hb;
    hb.seq = beat;
    hb.sent_ns = now_ns();
    Message message;
    message.type = MessageType::kHeartbeat;
    message.from = name_;
    message.payload = hb.encode();
    bus_.send(master_endpoint_, std::move(message));

    if (ft_.checkpoint_every_beats > 0 &&
        beat % ft_.checkpoint_every_beats == 0) {
      ship_checkpoints();
      // Periodic telemetry snapshot: if this node crashes mid-run, the
      // master still holds its last shipped snapshot (the final one from
      // join() simply overwrites it on survivors).
      ship_metrics();
    }
    lock.lock();
  }
}

void ExecutionNode::ship_metrics() {
  if (master_endpoint_.empty() || runtime_->metrics() == nullptr) return;
  MetricsReport metrics;
  metrics.node = name_;
  metrics.snapshot = runtime_->metrics_snapshot();
  if (channel_) {
    // Append the reliable-channel counters to the shipped copy (not the
    // live registry — this runs repeatedly and must not accumulate).
    const ft::ReliableChannel::Stats s = channel_->stats();
    auto add = [&](const char* counter, int64_t value) {
      metrics.snapshot.counters.push_back(
          obs::CounterValue{counter, value});
    };
    add("ft_data_sent_total", s.data_sent);
    add("ft_retransmits_total", s.retransmits);
    add("ft_duplicates_dropped_total", s.duplicates_dropped);
    add("ft_acks_sent_total", s.acks_sent);
  }
  Message message;
  message.type = MessageType::kMetricsReport;
  message.from = name_;
  message.payload = metrics.encode();
  bus_.send(master_endpoint_, std::move(message));
}

void ExecutionNode::ship_checkpoints() {
  // Fields this node's kernels produce (under the ownership lock — a
  // reassignment may have just widened the set).
  std::set<FieldId> produced;
  const Program& prog = runtime_->program();
  {
    std::scoped_lock lock(forward_mutex_);
    for (const KernelDef& k : prog.kernels()) {
      const auto it = kernel_owner_.find(k.name);
      if (it == kernel_owner_.end() || it->second != name_) continue;
      for (const StoreDecl& s : k.stores) produced.insert(s.field);
    }
  }
  for (const FieldId field : produced) {
    FieldStorage& storage = runtime_->storage(field);
    for (const Age age : storage.live_ages()) {
      if (!storage.is_complete(age) || checkpointed_.count({field, age})) {
        continue;
      }
      const nd::AnyBuffer data = storage.fetch_whole(age);
      RemoteStore snapshot;
      snapshot.field = field;
      snapshot.age = age;
      snapshot.region = nd::Region::whole(data.extents());
      snapshot.producer = kInvalidKernel;  // restores skip seal accounting
      snapshot.store_decl = 0;
      snapshot.whole = true;
      const auto* raw = reinterpret_cast<const uint8_t*>(data.raw());
      snapshot.payload.assign(
          raw, raw + static_cast<size_t>(data.element_count()) *
                         nd::element_size(data.type()));
      Message message;
      message.type = MessageType::kCheckpoint;
      message.from = name_;
      message.payload = snapshot.encode();
      bus_.send(master_endpoint_, std::move(message));
      checkpointed_.insert({field, age});
    }
  }
}

void ExecutionNode::crash() {
  if (crashed_.exchange(true)) return;
  // Last gasp: hand the master this node's final telemetry snapshot before
  // it is fenced, so the snapshot survives the crash however early it
  // fires (the periodic ship_metrics may not have run yet). A send to the
  // master, not a join: safe on the crashing node's own send path.
  ship_metrics();
  // Postmortem: the flight recorder's rings hold the node's last spans;
  // the dump is the artifact the master stitches into the merged trace.
  // Best-effort file I/O, no thread joins.
  flight_dump_path_ = runtime_->dump_flight();
  hb_cv_.notify_all();
  runtime_->stop();
}

bool ExecutionNode::idle() const { return runtime_->idle(); }

int64_t ExecutionNode::channel_unacked() const {
  return channel_ ? channel_->unacked() : 0;
}

ft::ReliableChannel::Stats ExecutionNode::channel_stats() const {
  return channel_ ? channel_->stats() : ft::ReliableChannel::Stats{};
}

void ExecutionNode::join() {
  if (runtime_thread_.joinable()) runtime_thread_.join();
  {
    std::scoped_lock lock(hb_mutex_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (channel_) channel_->stop();

  // The runtime has drained: ship the node's final telemetry to the
  // master over the wire (the paper's profile feedback, now with
  // distributions). This overwrites any periodic snapshot the master
  // holds. Crashed nodes are fenced off the bus and ship nothing — their
  // last periodic snapshot survives on the master.
  if (!crashed_.load()) ship_metrics();
  mailbox_->close();
  if (receiver_thread_.joinable()) receiver_thread_.join();
  if (error_ && !crashed_.load()) std::rethrow_exception(error_);
}

}  // namespace p2g::dist
