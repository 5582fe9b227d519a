#include "dist/master.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "ft/checkpoint.h"

namespace p2g::dist {

namespace {

/// Real processes can stall for seconds (sanitizers, loaded hosts): never
/// suspect one on less silence than this.
constexpr int64_t kProcessMinSilenceUs = 2'000'000;

/// core SpanKind → obs mirror (the enumerators share values by contract).
obs::SpanKind to_obs_kind(SpanKind kind) {
  return static_cast<obs::SpanKind>(static_cast<uint8_t>(kind));
}

/// Converts one collector's spans into node-qualified analyzer records.
void append_spans(const TraceCollector& trace, const std::string& node,
                  std::vector<obs::SpanRecord>* out) {
  for (TraceCollector::Span& span : trace.spans_snapshot()) {
    obs::SpanRecord rec;
    rec.name = std::move(span.name);
    rec.node = node;
    rec.thread_id = span.thread_id;
    rec.start_ns = span.start_ns;
    rec.duration_ns = span.duration_ns;
    rec.age = span.age;
    rec.trace_id = span.trace_id;
    rec.span_id = span.span_id;
    rec.parent_span = span.parent_span;
    rec.kind = to_obs_kind(span.kind);
    out->push_back(std::move(rec));
  }
}

/// The in-process data plane: hands each store of `source` straight to
/// the target node by direct call.
class LocalForwarder final : public StoreForwarder {
 public:
  LocalForwarder(ExecutionNode& source,
                 const std::map<std::string, ExecutionNode*>& nodes)
      : source_(source), nodes_(nodes) {}

  bool forward(const StoreEvent& event, const std::string& target) override {
    const auto it = nodes_.find(target);
    if (it == nodes_.end()) return false;
    source_.deliver_local(event, *it->second);
    return true;
  }

 private:
  ExecutionNode& source_;
  const std::map<std::string, ExecutionNode*>& nodes_;
};

}  // namespace

bool ThreadLauncher::start(const NodePlan& plan, net::Transport& bus) {
  for (const std::string& name : plan.names) {
    nodes_.push_back(std::make_unique<ExecutionNode>(
        name, plan.program_factory(), plan.kernel_owner, bus, plan.options,
        plan.ft, plan.capture_fields));
    by_name_.emplace(name, nodes_.back().get());
  }
  // The reliable channel owns the data plane of a fault-tolerant run.
  if (!plan.ft.enabled) {
    for (auto& node : nodes_) {
      forwarders_.push_back(std::make_unique<LocalForwarder>(*node, by_name_));
      node->set_store_forwarder(forwarders_.back().get());
    }
  }
  for (auto& node : nodes_) node->announce("master");
  for (auto& node : nodes_) node->start();
  return true;
}

bool ThreadLauncher::request_idle(
    const std::string& node, std::map<std::string, IdleReport>* replies) {
  (*replies)[node] = find(node).idle_report();
  return true;
}

void ThreadLauncher::kill(const std::string& node) { find(node).crash(); }

void ThreadLauncher::join(std::map<std::string, NodeResult>* results,
                          FieldCaptures* captured) {
  std::exception_ptr error;
  for (auto& node : nodes_) {
    try {
      node->join();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  for (auto& node : nodes_) {
    NodeResult& result = (*results)[node->name()];
    result.done = true;
    result.profile = node->runtime().instrumentation();
    if (!node->crashed()) node->capture(captured);
  }
}

std::vector<ExecutionNode*> ThreadLauncher::local_nodes() {
  std::vector<ExecutionNode*> nodes;
  for (auto& node : nodes_) nodes.push_back(node.get());
  return nodes;
}

ExecutionNode& ThreadLauncher::find(const std::string& name) {
  const auto it = by_name_.find(name);
  P2G_CHECK_INTERNAL(it != by_name_.end(), "unknown node '" + name + "'");
  return *it->second;
}

Master::Master(MasterOptions options)
    : options_(std::move(options)),
      reference_program_(options_.program_factory
                             ? options_.program_factory()
                             : Program{}),
      final_graph_(graph::FinalGraph::from_program(reference_program_)) {
  P2G_CHECK_ARGUMENT(static_cast<bool>(options_.program_factory),
                     "MasterOptions::program_factory is required");
  P2G_CHECK_ARGUMENT(options_.nodes >= 1, "need at least one execution node");
}

DistributedRunReport Master::run() {
  ThreadLauncher launcher;
  return run(launcher);
}

DistributedRunReport Master::run(Launcher& launcher) {
  const bool ft_on = options_.ft.enabled;
  const bool in_process = launcher.in_process();
  P2G_CHECK_ARGUMENT(in_process || !ft_on,
                     "fault tolerance needs in-process nodes");
  P2G_CHECK_ARGUMENT(in_process || (!options_.trace_path &&
                                    !options_.flight_dir),
                     "trace_path and flight_dir need in-process nodes");
  // Nodes that heartbeat are watched by the failure detector: every node
  // in FT mode, and out-of-process nodes always.
  const bool supervised = ft_on || !in_process;

  DistributedRunReport result;
  Stopwatch stopwatch;

  // 1. Partition the final static dependency graph.
  result.partition =
      options_.use_tabu
          ? graph::tabu_partition(final_graph_, options_.nodes)
          : graph::partition_graph(final_graph_, options_.nodes);

  // 2. The interconnect. In FT mode the launcher's transport is decorated
  // with a ChaosBus driving the seeded fault plan.
  std::unique_ptr<ft::ChaosBus> chaos;
  if (ft_on) {
    chaos = std::make_unique<ft::ChaosBus>(options_.ft.plan,
                                           launcher.transport());
  }
  net::Transport& bus = chaos ? *chaos : launcher.transport();
  auto master_mailbox = bus.register_endpoint("master");

  NodePlan plan;
  for (int i = 0; i < options_.nodes; ++i) {
    plan.names.push_back("node" + std::to_string(i));
  }

  // 3. Place partitions on nodes by capacity. (Topology reports arrive
  // after the nodes start; all nodes look alike, so the placement is
  // computed from the local machine description.)
  graph::GlobalTopology topology;
  for (const std::string& name : plan.names) {
    topology.add_node(graph::NodeTopology::local_machine(name));
  }
  result.placement =
      topology.place_partitions(result.partition.part_weights(final_graph_));
  for (size_t k = 0; k < final_graph_.kernel_count(); ++k) {
    const int part = result.partition.assignment[k];
    const size_t node = result.placement[static_cast<size_t>(part)];
    plan.kernel_owner[final_graph_.kernel_names[k]] = plan.names[node];
  }

  plan.program_factory = options_.program_factory;
  plan.capture_fields = options_.capture_fields;
  RunOptions& base = plan.options;
  base = options_.base_options;
  base.workers = options_.workers_per_node;
  if (options_.collect_node_metrics) base.metrics.enabled = true;
  const bool tracing =
      options_.trace_path.has_value() || base.collect_trace;
  if (tracing) base.collect_trace = true;
  if (options_.flight_dir) base.flight_dir = options_.flight_dir;
  if (supervised) plan.ft.heartbeat_period_ms = options_.ft.heartbeat_period_ms;
  if (ft_on) {
    plan.ft.enabled = true;
    plan.ft.checkpoint_every_beats = options_.ft.checkpoint_every_beats;
    plan.ft.channel = options_.ft.channel;
  }

  // Scripted crashes: fence the node off the bus (mailbox closed, traffic
  // blackholed) and stop it. Runs on whatever thread tripped the trigger;
  // recovery itself happens on the master loop via the failure detector.
  if (chaos) {
    chaos->set_crash_handler([&bus, &launcher](const std::string& name) {
      bus.mark_dead(name);
      launcher.kill(name);
    });
  }

  const bool started = launcher.start(plan, bus);
  result.timed_out = !started;

  // Master-side supervision state: failure detector primed with a
  // synthetic beat per node (so a node that dies before its first
  // heartbeat is still suspected), retained checkpoints, recovery
  // bookkeeping.
  ft::FailureDetector::Options detector_options = options_.ft.detector;
  if (!in_process) {
    detector_options.min_silence_us =
        std::max(detector_options.min_silence_us, kProcessMinSilenceUs);
  }
  ft::FailureDetector detector(detector_options);
  ft::CheckpointStore checkpoints;
  // Master control lane of the merged trace: recovery spans (failure
  // detection + reassignment, recorded below in fence()).
  TraceCollector master_trace;
  uint64_t master_span_seq = 1;  ///< master-loop thread only
  FtRunReport ftr;
  std::set<std::string> dead;
  if (supervised) {
    const int64_t t0 = now_ns();
    for (const std::string& name : plan.names) detector.heartbeat(name, t0);
  }

  // Drains the master mailbox: topology reports, heartbeats, checkpoints,
  // idle reports of the current termination round, and every node's
  // final telemetry, profile, captures and status. Nodes ship telemetry
  // periodically and once more when they stop; keeping the *latest*
  // snapshot per node (mailbox order is send order per sender) means a
  // node that crashed mid-run still contributes its last snapshot.
  std::map<std::string, NodeResult> results;
  std::map<std::string, IdleReport>* round = nullptr;
  const auto drain = [&] {
    while (auto message = master_mailbox->try_pop()) {
      switch (message->type) {
        case MessageType::kTopologyReport:
          result.topology.add_node(
              TopologyReport::decode(message->payload).topology);
          break;
        case MessageType::kHeartbeat:
          detector.heartbeat(message->from, now_ns());
          ++ftr.heartbeats;
          break;
        case MessageType::kCheckpoint:
          checkpoints.put(RemoteStore::decode(message->payload));
          ++ftr.checkpoints_stored;
          break;
        case MessageType::kIdleReport:
          if (round != nullptr && !dead.count(message->from)) {
            (*round)[message->from] = IdleReport::decode(message->payload);
          }
          break;
        case MessageType::kMetricsReport: {
          MetricsReport metrics = MetricsReport::decode(message->payload);
          result.node_metrics[metrics.node] = std::move(metrics.snapshot);
          break;
        }
        case MessageType::kProfileReport:
          results[message->from].profile =
              ProfileReport::decode(message->payload).report;
          break;
        case MessageType::kCapture: {
          CaptureMsg capture = CaptureMsg::decode(message->payload);
          result.captured[capture.field].try_emplace(
              capture.age, std::move(capture.payload));
          break;
        }
        case MessageType::kNodeDone: {
          const NodeDoneMsg done = NodeDoneMsg::decode(message->payload);
          NodeResult& node = results[message->from];
          node.done = true;
          node.ok = done.ok;
          node.error = done.error;
          break;
        }
        default:
          break;
      }
    }
  };

  // FT recovery: reassign the dead node's kernels round-robin over the
  // (sorted) survivors and replay retained checkpoints to them. The
  // reassignment is a deterministic function of the (seeded) crash, so
  // same-seed runs recover identically.
  const auto reassign = [&](const std::string& dead_name, int64_t rec_t0) {
    std::vector<std::string> alive;
    for (const std::string& name : plan.names) {
      if (!dead.count(name)) alive.push_back(name);
    }
    ++ftr.recoveries;
    if (alive.empty()) {
      P2G_WARN << "master: node " << dead_name
               << " died and no survivors remain";
      return;
    }
    ReassignMsg reassign;
    reassign.dead = dead_name;
    size_t next = 0;
    for (auto& [kernel, owner] : plan.kernel_owner) {
      if (owner != dead_name) continue;
      owner = alive[next++ % alive.size()];
      reassign.kernels.emplace_back(kernel, owner);
    }
    ftr.kernels_reassigned += static_cast<int64_t>(reassign.kernels.size());
    Message message;
    message.type = MessageType::kReassign;
    message.from = "master";
    message.payload = reassign.encode();
    for (const std::string& name : alive) bus.send(name, message);
    // Checkpoint fallback: data whose producer and every forwarded copy
    // died is restored from the latest retained snapshots (fill-mode
    // injection dedups whatever the survivors already hold).
    for (const auto& [key, snapshot] : checkpoints.all()) {
      Message restore;
      restore.type = MessageType::kRemoteStore;
      restore.from = "master";
      restore.payload = snapshot.encode();
      for (const std::string& name : alive) {
        bus.send(name, restore);
        ++ftr.checkpoint_restores;
      }
    }
    if (tracing) {
      TraceCollector::Span span;
      span.name = "recover:" + dead_name;
      span.start_ns = rec_t0;
      span.duration_ns = now_ns() - rec_t0;
      span.thread_id = 0;
      span.age = 0;
      span.bodies = static_cast<int64_t>(reassign.kernels.size());
      span.kind = SpanKind::kRecovery;
      span.span_id = mix(0x6D72656376727931ULL, master_span_seq++);
      if (span.span_id == 0) span.span_id = 1;
      master_trace.record(std::move(span));
    }
  };

  // Failure handling: declare the node dead, fence it off the bus, stop
  // it, and (FT mode) recover its work.
  const auto fence = [&](const std::string& name) {
    if (!dead.insert(name).second) return;
    const int64_t rec_t0 = now_ns();
    const int64_t latency = rec_t0 - detector.last_beat_ns(name);
    P2G_WARN << "master: node " << name << " declared dead";
    bus.mark_dead(name);
    launcher.kill(name);
    detector.remove(name);
    ftr.dead_nodes.push_back(name);
    ftr.recovery_latency_ns.push_back(latency);
    if (ft_on) reassign(name, rec_t0);
  };

  // 4. Termination detection: two consecutive rounds in which every alive
  // node reports idle (runtime quiescent, mailbox empty, reliable channel
  // drained — acks-after-apply make a drained channel prove the data
  // landed), nothing is delayed on the chaos wire, and the global store
  // counts are conserved (Σsent == Σreceived) and unchanged. A dead node
  // takes its receive counters with it (and checkpoint restores apply
  // stores nobody sent), so conservation is waived once a node is dead:
  // alive-side quiescence with stable send counts is the strongest
  // terminating condition left.
  const int64_t deadline_ns =
      now_ns() + options_.watchdog.count() * 1'000'000;
  int stable_rounds = 0;
  int64_t last_sent = -1;
  while (started && stable_rounds < 2) {
    if (now_ns() > deadline_ns) {
      result.timed_out = true;
      break;
    }
    drain();
    if (supervised) {
      for (const std::string& suspect : detector.suspects(now_ns())) {
        fence(suspect);
      }
    }
    std::vector<std::string> alive;
    for (const std::string& name : plan.names) {
      if (!dead.count(name)) alive.push_back(name);
    }
    if (alive.empty()) break;

    std::map<std::string, IdleReport> replies;
    round = &replies;
    bool lost = false;
    for (const std::string& name : alive) {
      if (!launcher.request_idle(name, &replies)) {
        fence(name);
        lost = true;
      }
    }
    const int64_t round_deadline = now_ns() + 500'000'000;
    while (!lost && replies.size() < alive.size() &&
           now_ns() < round_deadline && now_ns() < deadline_ns) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      drain();
    }
    round = nullptr;
    if (lost || replies.size() < alive.size()) {
      stable_rounds = 0;  // straggler or death: not quiescent
      continue;
    }

    bool all_idle = !chaos || chaos->in_flight() == 0;
    int64_t sent = 0;
    int64_t received = 0;
    for (const auto& [name, idle] : replies) {
      all_idle = all_idle && idle.idle;
      sent += idle.stores_sent;
      received += idle.stores_received;
    }
    const bool conserved = sent == received || !dead.empty();
    stable_rounds =
        all_idle && conserved && sent == last_sent ? stable_rounds + 1 : 0;
    last_sent = sent;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 5. Shut the cluster down and collect every alive node's result.
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = "master";
  bus.broadcast(std::move(shutdown));
  launcher.join(&results, &result.captured);
  if (chaos) chaos->shutdown();
  // Results of out-of-process nodes may still be in flight on the master
  // mailbox after the processes exited.
  const int64_t collect_deadline = now_ns() + 5'000'000'000LL;
  const auto all_done = [&] {
    return std::all_of(plan.names.begin(), plan.names.end(),
                       [&](const std::string& name) {
                         return dead.count(name) || results[name].done;
                       });
  };
  while (started && !all_done() && now_ns() < collect_deadline) {
    drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain();

  // Merge: captures hold every complete age of the requested fields, the
  // first copy of an age any surviving node held; each kernel ran on
  // exactly one node.
  for (const std::string& field_name : options_.capture_fields) {
    result.captured[field_name];
  }
  for (const auto& [name, node] : results) {
    if (!node.done) continue;
    result.node_ok[name] = node.ok;
    if (!node.ok) result.node_errors[name] = node.error;
    result.node_reports[name] = node.profile;
  }
  for (const std::string& kernel_name : final_graph_.kernel_names) {
    KernelStats merged;
    merged.name = kernel_name;
    for (const auto& [node_name, report] : result.node_reports) {
      if (const KernelStats* stats = report.find(kernel_name)) {
        merged.dispatches += stats->dispatches;
        merged.instances += stats->instances;
        merged.dispatch_ns += stats->dispatch_ns;
        merged.kernel_ns += stats->kernel_ns;
      }
    }
    result.combined.kernels.push_back(std::move(merged));
  }

  for (const auto& [node_name, snapshot] : result.node_metrics) {
    result.combined_metrics.merge(snapshot);
  }
  const auto counter_value = [&](const char* name) -> int64_t {
    const obs::CounterValue* c = result.combined_metrics.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  result.data_frames = counter_value("net_tx_frames_total") +
                       counter_value("shm_tx_frames_total");
  result.copied_bytes = counter_value("net_tx_copied_bytes_total") +
                        counter_value("shm_tx_copied_bytes_total");
  if (result.data_frames > 0) {
    result.bytes_copied_per_frame = static_cast<double>(result.copied_bytes) /
                                    static_cast<double>(result.data_frames);
  }

  const std::vector<ExecutionNode*> nodes = launcher.local_nodes();
  if (ft_on) {
    const ft::ChaosBus::ChaosStats chaos_stats = chaos->chaos_stats();
    ftr.data_messages = chaos_stats.data_messages;
    ftr.dropped = chaos_stats.dropped;
    ftr.duplicated = chaos_stats.duplicated;
    ftr.delayed = chaos_stats.delayed;
    ftr.reordered = chaos_stats.reordered;
    ftr.crashes_fired = chaos_stats.crashes_fired;
    for (const ExecutionNode* node : nodes) {
      if (node->crashed()) continue;
      const ft::ReliableChannel::Stats s = node->channel_stats();
      ftr.data_sent += s.data_sent;
      ftr.retransmits += s.retransmits;
      ftr.duplicates_dropped += s.duplicates_dropped;
      ftr.acks_sent += s.acks_sent;
    }
    obs::MetricsSnapshot master_metrics;
    master_metrics.counters = {
        {"ft_checkpoint_restores_total", ftr.checkpoint_restores},
        {"ft_checkpoints_stored_total", ftr.checkpoints_stored},
        {"ft_heartbeats_total", ftr.heartbeats},
        {"ft_kernels_reassigned_total", ftr.kernels_reassigned},
        {"ft_recoveries_total", ftr.recoveries}};
    if (!ftr.recovery_latency_ns.empty()) {
      obs::HistogramSnapshot latency;
      latency.name = "ft_recovery_latency_ns";
      for (const int64_t ns : ftr.recovery_latency_ns) latency.record(ns);
      master_metrics.histograms.push_back(std::move(latency));
    }
    result.combined_metrics.merge(master_metrics);
  }
  // Causal tracing: harvest every lane's spans into one node-qualified
  // DAG, compute per-frame critical paths, and stitch the merged trace
  // file (one pid lane per node, the master control lane, and crashed
  // nodes' flight lanes rendering their final moments).
  for (ExecutionNode* node : nodes) {
    if (node->flight_dump()) {
      result.flight_dumps.push_back(*node->flight_dump());
    }
  }
  if (tracing) {
    append_spans(master_trace, "master", &result.trace_spans);
    for (ExecutionNode* node : nodes) {
      if (const TraceCollector* trace = node->runtime().trace()) {
        append_spans(*trace, node->name(), &result.trace_spans);
      }
    }
    result.critical_paths =
        obs::analyze_critical_paths(result.trace_spans);
    // Fold the per-frame latency distributions into the cluster metrics
    // (critpath_<bucket>_ns / critpath_total_ns histograms).
    obs::MetricsSnapshot critpath_metrics;
    critpath_metrics.histograms = result.critical_paths.bucket_latency;
    critpath_metrics.histograms.push_back(
        result.critical_paths.total_latency);
    result.combined_metrics.merge(critpath_metrics);

    if (options_.trace_path) {
      // Shared epoch: the earliest event across all lanes, so the merged
      // timeline starts at ts 0.
      int64_t epoch = 0;
      const auto fold_epoch = [&epoch](int64_t t) {
        if (t > 0 && (epoch == 0 || t < epoch)) epoch = t;
      };
      fold_epoch(master_trace.earliest_ns());
      for (ExecutionNode* node : nodes) {
        if (const TraceCollector* trace = node->runtime().trace()) {
          fold_epoch(trace->earliest_ns());
        }
      }

      std::ofstream os(*options_.trace_path,
                       std::ios::binary | std::ios::trunc);
      if (!os.good()) {
        throw_error(ErrorKind::kIo, "cannot write merged trace '" +
                                        *options_.trace_path + "'");
      }
      os << "[\n";
      bool first = true;
      master_trace.emit_events(os, 0, "master", epoch, first);
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (const TraceCollector* trace = nodes[i]->runtime().trace()) {
          trace->emit_events(os, static_cast<int>(i) + 1,
                             nodes[i]->name(), epoch, first);
        }
      }
      for (size_t i = 0; i < nodes.size() && options_.flight_dir; ++i) {
        if (!nodes[i]->crashed()) continue;
        nodes[i]->runtime().trace()->emit_flight_events(
            os, static_cast<int>(nodes.size() + 1 + i),
            nodes[i]->name() + ".flight", epoch, first);
      }
      os << "\n]\n";
      if (!os.good()) {
        throw_error(ErrorKind::kIo, "short write on merged trace '" +
                                        *options_.trace_path + "'");
      }
      result.trace_file = options_.trace_path;
    }
  }

  result.bus = bus.stats();
  result.messages_delivered = result.bus.delivered;
  ftr.dead_letters = result.bus.dead_letters;
  result.ft = std::move(ftr);
  result.wall_s = stopwatch.elapsed_s();
  return result;
}

graph::Partition Master::repartition(
    const DistributedRunReport& previous) const {
  graph::FinalGraph weighted = final_graph_;
  weighted.apply_instrumentation(previous.combined);
  return options_.use_tabu
             ? graph::tabu_partition(weighted, options_.nodes)
             : graph::partition_graph(weighted, options_.nodes);
}

}  // namespace p2g::dist
