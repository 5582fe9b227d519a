#include "dist/exec_node.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "graph/static_graph.h"

namespace p2g::dist {

namespace {

/// Trace lane for wire sends, remote-store applies and reassignments
/// (matches TraceCollector's default "net" thread label).
constexpr int64_t kNetLane = -2;

/// A buffer's elements, densely packed (the wire payload format).
std::vector<uint8_t> packed(const nd::AnyBuffer& data) {
  const auto* raw = reinterpret_cast<const uint8_t*>(data.raw());
  return {raw, raw + static_cast<size_t>(data.element_count()) *
                         nd::element_size(data.type())};
}

/// Interned "<prefix><peer>" span name: prebuilt for every kernel owner,
/// interned on the spot for a peer that owned no kernel at start.
uint32_t peer_span_name(TraceCollector& trace,
                        const std::map<std::string, uint32_t>& names,
                        const char* prefix, const std::string& peer) {
  const auto it = names.find(peer);
  return it != names.end() ? it->second : trace.intern(prefix + peer);
}

}  // namespace

ExecutionNode::ExecutionNode(
    std::string name, Program program,
    const std::map<std::string, std::string>& kernel_owner,
    net::Transport& bus, RunOptions base_options, NodeFtOptions ft,
    std::vector<std::string> capture_fields)
    : name_(std::move(name)),
      bus_(bus),
      ft_(std::move(ft)),
      kernel_owner_(kernel_owner),
      capture_fields_(std::move(capture_fields)) {
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

  // Captured fields outlive age reclamation where capture() finds their
  // complete ages: at their producers, or wherever stores from several
  // producing nodes meet.
  for (const std::string& field_name : capture_fields_) {
    const FieldId field = program.find_field(field_name);
    P2G_CHECK_ARGUMENT(field != kInvalidField,
                       "capture of unknown field '" + field_name + "'");
    std::set<std::string> producer_nodes;
    for (const Program::Use& use : program.producers_of(field)) {
      producer_nodes.insert(kernel_owner.at(program.kernel(use.kernel).name));
    }
    if (producer_nodes.count(name_) != 0 || producer_nodes.size() > 1) {
      options.retain_fields.insert(field_name);
    }
  }

  // Forwarding map: for every field, the remote nodes hosting readers.
  const std::vector<std::set<KernelId>> readers = graph::field_readers(program);
  forward_targets_.resize(program.fields().size());
  for (const FieldDecl& f : program.fields()) {
    std::vector<std::string>& targets =
        forward_targets_[static_cast<size_t>(f.id)];
    for (const KernelId reader : readers[static_cast<size_t>(f.id)]) {
      const std::string& owner = kernel_owner.at(program.kernel(reader).name);
      if (owner != name_ &&
          std::find(targets.begin(), targets.end(), owner) ==
              targets.end()) {
        targets.push_back(owner);
      }
    }
  }

  options.store_tap = [this, tap = std::move(options.store_tap)](
                          const StoreEvent& event) {
    forward_store(event);
    if (tap) tap(event);
  };

  runtime_ = std::make_unique<Runtime>(std::move(program),
                                       std::move(options));
  if (ft_.enabled) {
    channel_ = std::make_unique<ft::ReliableChannel>(bus_, name_,
                                                     ft_.channel);
    channel_->set_trace(runtime_->mutable_trace());
  }
  // Net-lane span names, interned once per peer and field.
  if (TraceCollector* trace = runtime_->mutable_trace()) {
    for (const auto& [kernel, peer] : kernel_owner) {
      wire_span_names_.emplace(peer, trace->intern("wire->" + peer));
      reassign_span_names_.emplace(peer, trace->intern("reassign:" + peer));
    }
    for (const FieldDecl& f : runtime_->program().fields()) {
      recv_span_names_.push_back(trace->intern("recv:" + f.name));
    }
  }
}

TraceContext ExecutionNode::begin_wire_span(const StoreEvent& event,
                                            int64_t* t0) {
  if (!event.ctx.valid() || runtime_->trace() == nullptr) return {};
  *t0 = now_ns();
  return TraceContext{event.ctx.trace_id, runtime_->next_span_id()};
}

void ExecutionNode::end_wire_span(const StoreEvent& event,
                                  const TraceContext& wire,
                                  const std::string& target, int64_t t0) {
  if (!wire.valid()) return;
  const int64_t t1 = now_ns();
  TraceCollector& trace = *runtime_->mutable_trace();
  // The producer's flow arrow lands on the wire span, and a new arrow
  // leaves it toward the receiving node's remote-store span.
  trace.record_flow_finish(event.ctx, t0, kNetLane);
  trace.record(TraceCollector::Record{
      t0, t1 - t0, kNetLane, event.age, 1, SpanKind::kWire,
      peer_span_name(trace, wire_span_names_, "wire->", target),
      wire.trace_id, wire.span_id, event.ctx.span_id});
  trace.record_flow_start(wire, t1, kNetLane);
}

TraceContext ExecutionNode::begin_recv_span(const TraceContext& wire,
                                            int64_t* t0) {
  if (!wire.valid() || runtime_->trace() == nullptr) return {};
  *t0 = now_ns();
  return TraceContext{wire.trace_id, runtime_->next_span_id()};
}

void ExecutionNode::end_recv_span(const TraceContext& wire,
                                  const TraceContext& recv, FieldId field,
                                  Age age, int64_t t0, bool fresh) {
  if (!recv.valid()) return;
  const int64_t t1 = now_ns();
  TraceCollector& trace = *runtime_->mutable_trace();
  trace.record_flow_finish(wire, t0, kNetLane);
  trace.record(TraceCollector::Record{
      t0, t1 - t0, kNetLane, age, 1, SpanKind::kRemoteStore,
      recv_span_names_[static_cast<size_t>(field)], recv.trace_id,
      recv.span_id, wire.span_id});
  // Duplicate fill applies push no event, so nothing downstream will
  // ever pick this flow up — skip the dangling arrow.
  if (fresh) trace.record_flow_start(recv, t1, kNetLane);
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
  remote.payload =
      packed(runtime_->storage(event.field).fetch(event.age, event.region));
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
  int64_t t0 = 0;
  const TraceContext recv = begin_recv_span(message.trace, &t0);
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
  const int64_t fresh = runtime_->inject_store(
      remote.field, remote.age, remote.region, remote.producer,
      remote.store_decl, remote.whole,
      reinterpret_cast<const std::byte*>(remote.payload.data()),
      /*fill=*/ft_.enabled, recv);
  stores_received_.fetch_add(1);
  end_recv_span(message.trace, recv, remote.field, remote.age, t0,
                fresh > 0);
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
                                      bool* adopted, const TraceContext& wire) {
  const Program& prog = runtime_->program();
  if (field < 0 || static_cast<size_t>(field) >= prog.fields().size()) {
    throw_error(ErrorKind::kProtocol, "plane store for unknown field id " +
                                          std::to_string(field));
  }
  if (view.type() != prog.field(field).type) {
    throw_error(ErrorKind::kProtocol,
                "plane store element type does not match the field");
  }
  int64_t t0 = 0;
  const TraceContext recv = begin_recv_span(wire, &t0);
  runtime_->inject_store_view(field, age, region, producer, store_decl,
                              whole, view, adopted, recv);
  stores_received_.fetch_add(1);
  end_recv_span(wire, recv, field, age, t0, /*fresh=*/true);
}

void ExecutionNode::deliver_local(const StoreEvent& event,
                                  ExecutionNode& target) {
  int64_t t0 = 0;
  const TraceContext wire = begin_wire_span(event, &t0);
  FieldStorage& storage = runtime_->storage(event.field);
  std::optional<nd::ConstView> view =
      storage.try_fetch_view(event.age, event.region);
  if (!view) {
    // Unsealed age (its buffer may still grow): one packed copy, owned
    // by the view so the target may adopt it.
    const auto copy = std::make_shared<const nd::AnyBuffer>(
        storage.fetch(event.age, event.region));
    view.emplace(copy->type(), copy->extents(), copy->raw(), copy);
  }
  end_wire_span(event, wire, target.name(), t0);
  target.apply_plane_store(event.field, event.age, event.region,
                           event.producer,
                           static_cast<uint32_t>(event.store_decl),
                           event.whole, *view, /*adopted=*/nullptr, wire);
}

void ExecutionNode::apply_reassign(const ReassignMsg& reassign) {
  // Recovery span: the window in which this node rebuilds forwarding
  // state and replays its store log. Gap time overlapping it on this
  // node is attributed to the "recovery" critical-path bucket.
  const bool traced = runtime_->trace() != nullptr;
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
    const std::vector<std::set<KernelId>> readers = graph::field_readers(prog);
    for (const FieldDecl& f : prog.fields()) {
      std::vector<std::string>& targets =
          forward_targets_[static_cast<size_t>(f.id)];
      targets.erase(
          std::remove(targets.begin(), targets.end(), reassign.dead),
          targets.end());
      for (const KernelId reader : readers[static_cast<size_t>(f.id)]) {
        const auto it = kernel_owner_.find(prog.kernel(reader).name);
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
  TraceCollector& trace = *runtime_->mutable_trace();
  TraceCollector::Record span;
  span.start_ns = t0;
  span.duration_ns = t1 - t0;
  span.thread_id = kNetLane;
  span.bodies = static_cast<int64_t>(reassign.kernels.size());
  span.kind = SpanKind::kRecovery;
  span.name =
      peer_span_name(trace, reassign_span_names_, "reassign:", reassign.dead);
  span.span_id = runtime_->next_span_id();
  trace.record(span);
}

void ExecutionNode::start() {
  runtime_thread_ = std::thread([this] {
    try {
      runtime_->run();
    } catch (...) {
      error_ = std::current_exception();
    }
  });
  receiver_thread_ = std::thread([this] { receiver_loop(); });
  if (ft_.heartbeat_period_ms > 0) {
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
          // Out-of-process quiescence: the master cannot call
          // idle_report() across the process boundary, so it probes.
          Message reply;
          reply.type = MessageType::kIdleReport;
          reply.from = name_;
          reply.payload = idle_report().encode();
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
  if (master_endpoint_.empty()) return;
  MetricsReport metrics;
  metrics.node = name_;
  metrics.snapshot = runtime_->metrics_snapshot();
  if (metrics.snapshot.empty()) return;  // metrics disabled
  // Every producer adds its counters to the shipped copy; this runs
  // repeatedly, so nothing accumulates across snapshots.
  bus_.add_metrics(metrics.snapshot);
  if (forwarder_ != nullptr) forwarder_->add_metrics(metrics.snapshot);
  if (channel_) {
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
      snapshot.payload = packed(data);
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
  // Postmortem: the span recorder holds the node's last spans per thread;
  // the dump is the artifact the master stitches into the merged trace.
  // Best-effort file I/O, no thread joins.
  flight_dump_path_ = runtime_->dump_flight();
  hb_cv_.notify_all();
  runtime_->stop();
}

IdleReport ExecutionNode::idle_report() const {
  IdleReport report;
  report.idle = runtime_->idle() && mailbox_->empty() &&
                (!channel_ || channel_->unacked() == 0);
  report.stores_sent = stores_sent_.load();
  report.stores_received = stores_received_.load();
  return report;
}

ft::ReliableChannel::Stats ExecutionNode::channel_stats() const {
  return channel_ ? channel_->stats() : ft::ReliableChannel::Stats{};
}

void ExecutionNode::capture(FieldCaptures* into) {
  for (const std::string& field_name : capture_fields_) {
    auto& ages = (*into)[field_name];
    FieldStorage& storage = runtime_->storage(field_name);
    for (const Age age : storage.live_ages()) {
      if (!storage.is_complete(age) || ages.count(age)) continue;
      ages[age] = packed(storage.fetch_whole(age));
    }
  }
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
