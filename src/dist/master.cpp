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

}  // namespace

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
  DistributedRunReport result;
  Stopwatch stopwatch;
  const bool ft_on = options_.ft.enabled;

  // 1. Partition the final static dependency graph.
  result.partition =
      options_.use_tabu
          ? graph::tabu_partition(final_graph_, options_.nodes)
          : graph::partition_graph(final_graph_, options_.nodes);

  // 2. Spin up the simulated cluster and gather topology reports. In FT
  // mode the transport is the in-process bus decorated with a ChaosBus
  // driving the seeded fault plan — the same decorator shape a socket
  // backend gets in chaos mode.
  auto bus_holder = std::make_unique<MessageBus>();
  std::unique_ptr<ft::ChaosBus> chaos_holder;
  ft::ChaosBus* chaos = nullptr;
  net::Transport* transport = bus_holder.get();
  if (ft_on) {
    chaos_holder =
        std::make_unique<ft::ChaosBus>(options_.ft.plan, *bus_holder);
    chaos = chaos_holder.get();
    transport = chaos;
  }
  net::Transport& bus = *transport;
  auto master_mailbox = bus.register_endpoint("master");

  std::vector<std::string> node_names;
  for (int i = 0; i < options_.nodes; ++i) {
    node_names.push_back("node" + std::to_string(i));
  }

  // 3. Place partitions on nodes by capacity. (Topology reports arrive
  // after registration; for the simulation all nodes look alike, so the
  // placement is computed from the local machine description.)
  graph::GlobalTopology topology;
  for (const std::string& name : node_names) {
    topology.add_node(graph::NodeTopology::local_machine(name));
  }
  result.placement =
      topology.place_partitions(result.partition.part_weights(final_graph_));

  std::map<std::string, std::string> kernel_owner;
  for (size_t k = 0; k < final_graph_.kernel_count(); ++k) {
    const int part = result.partition.assignment[k];
    const size_t node = result.placement[static_cast<size_t>(part)];
    kernel_owner[final_graph_.kernel_names[k]] = node_names[node];
  }

  RunOptions base = options_.base_options;
  base.workers = options_.workers_per_node;
  if (options_.collect_node_metrics) base.metrics.enabled = true;
  const bool tracing =
      options_.trace_path.has_value() || base.collect_trace;
  if (tracing) base.collect_trace = true;
  if (options_.flight_dir) {
    base.flight_recorder = true;
    base.flight_dir = options_.flight_dir;
  }

  NodeFtOptions node_ft;
  if (ft_on) {
    node_ft.enabled = true;
    node_ft.heartbeat_period_ms = options_.ft.heartbeat_period_ms;
    node_ft.checkpoint_every_beats = options_.ft.checkpoint_every_beats;
    node_ft.channel = options_.ft.channel;
  }

  std::vector<std::unique_ptr<ExecutionNode>> nodes;
  for (const std::string& name : node_names) {
    nodes.push_back(std::make_unique<ExecutionNode>(
        name, options_.program_factory(), kernel_owner, bus, base,
        node_ft));
  }

  // Scripted crashes: fence the node off the bus (mailbox closed, traffic
  // blackholed) and stop it. Runs on whatever thread tripped the trigger;
  // recovery itself happens on the master loop via the failure detector.
  if (chaos != nullptr) {
    chaos->set_crash_handler([&nodes, &bus](const std::string& name) {
      for (auto& node : nodes) {
        if (node->name() == name) {
          bus.mark_dead(name);
          node->crash();
          break;
        }
      }
    });
  }

  for (auto& node : nodes) node->announce("master");
  for (auto& node : nodes) node->start();

  // Master-side FT state: failure detector primed with a synthetic beat
  // per node (so a node that dies before its first heartbeat is still
  // suspected), retained checkpoints, recovery bookkeeping.
  ft::FailureDetector detector(options_.ft.detector);
  ft::CheckpointStore checkpoints;
  obs::MetricsRegistry master_registry;
  // Master control lane of the merged trace: recovery spans (failure
  // detection + reassignment, recorded below in recover()).
  TraceCollector master_trace;
  uint64_t master_span_seq = 1;  ///< master-loop thread only
  FtRunReport ftr;
  std::set<std::string> dead;
  if (ft_on) {
    const int64_t t0 = now_ns();
    for (const std::string& name : node_names) {
      detector.heartbeat(name, t0);
    }
  }

  // Drains the master mailbox: topology reports (merged below), FT
  // control traffic (heartbeats, checkpoints), and — after join —
  // metrics reports, which are aggregated at the end.
  std::vector<Message> metrics_messages;
  const auto drain_master = [&] {
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
        case MessageType::kMetricsReport:
          metrics_messages.push_back(std::move(*message));
          break;
        default:
          break;
      }
    }
  };

  // Recovery: fence the dead node, reassign its kernels round-robin over
  // the (sorted) survivors, and replay retained checkpoints to them. The
  // reassignment is a deterministic function of the (seeded) crash, so
  // same-seed runs recover identically.
  const auto recover = [&](const std::string& dead_name) {
    if (dead.count(dead_name)) return;
    dead.insert(dead_name);
    const int64_t rec_t0 = now_ns();
    const int64_t latency = now_ns() - detector.last_beat_ns(dead_name);
    bus.mark_dead(dead_name);
    for (auto& node : nodes) {
      if (node->name() == dead_name) node->crash();
    }
    detector.remove(dead_name);
    ftr.dead_nodes.push_back(dead_name);
    ftr.recovery_latency_ns.push_back(latency);
    master_registry.histogram("ft_recovery_latency_ns").record(latency);

    std::vector<std::string> alive;
    for (const std::string& name : node_names) {
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
    for (auto& [kernel, owner] : kernel_owner) {
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

  drain_master();  // merge the announced topologies

  // 4. Termination detection. Fault-free: two consecutive observations of
  // "every node idle, no messages in flight, send/receive counts
  // conserved and unchanged". FT: drops, dups and crashes break message
  // conservation, so quiescence becomes "every *alive* node idle with an
  // empty mailbox and a drained reliable channel, and no delayed message
  // on the chaos wire" — acks-after-apply make a drained channel prove
  // the data actually landed.
  const int64_t deadline_ns =
      now_ns() + options_.watchdog.count() * 1'000'000;
  int stable_rounds = 0;
  int64_t last_sent = -1;
  while (stable_rounds < 2) {
    if (now_ns() > deadline_ns) {
      result.timed_out = true;
      break;
    }
    if (ft_on) {
      drain_master();
      for (const std::string& suspect : detector.suspects(now_ns())) {
        recover(suspect);
      }
      bool quiet = chaos->in_flight() == 0;
      for (const auto& node : nodes) {
        if (dead.count(node->name())) continue;
        quiet = quiet && node->idle() && node->mailbox_empty() &&
                node->channel_unacked() == 0;
      }
      stable_rounds = quiet ? stable_rounds + 1 : 0;
    } else {
      bool all_idle = true;
      int64_t sent = 0;
      int64_t received = 0;
      for (const auto& node : nodes) {
        all_idle = all_idle && node->idle() && node->mailbox_empty();
        sent += node->stores_sent();
        received += node->stores_received();
      }
      if (all_idle && sent == received && sent == last_sent) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
      }
      last_sent = sent;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 5. Shut the cluster down and collect profiles.
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = "master";
  bus.broadcast(std::move(shutdown));
  for (auto& node : nodes) node->join();
  if (chaos != nullptr) chaos->shutdown();

  // Nodes ship telemetry periodically from the heartbeat loop and once
  // more during join(); keep the *latest* snapshot per node (mailbox
  // order is send order per sender), so a node that crashed mid-run still
  // contributes its last periodic snapshot, then reduce over the
  // retained set — merging every message would multiply counters.
  drain_master();
  for (const Message& message : metrics_messages) {
    MetricsReport metrics = MetricsReport::decode(message.payload);
    result.node_metrics[metrics.node] = std::move(metrics.snapshot);
  }
  for (const auto& [node_name, snapshot] : result.node_metrics) {
    result.combined_metrics.merge(snapshot);
  }

  for (auto& node : nodes) {
    InstrumentationReport report = node->runtime().instrumentation();
    // Serialize through the profile message to exercise the wire format.
    ProfileReport profile;
    profile.report = report;
    const InstrumentationReport round_tripped =
        ProfileReport::decode(profile.encode()).report;
    result.node_reports.emplace(node->name(), round_tripped);
  }

  // Merge: each kernel ran on exactly one node.
  result.combined.kernels.clear();
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

  // Capture requested fields for bit-exact comparisons: every complete
  // age, merged across surviving nodes (a field may live on several).
  for (const std::string& field_name : options_.capture_fields) {
    auto& ages = result.captured[field_name];
    for (auto& node : nodes) {
      if (node->crashed()) continue;
      FieldStorage& storage = node->runtime().storage(field_name);
      for (const Age age : storage.live_ages()) {
        if (!storage.is_complete(age) || ages.count(age)) continue;
        const nd::AnyBuffer data = storage.fetch_whole(age);
        const auto* raw = reinterpret_cast<const uint8_t*>(data.raw());
        ages[age].assign(
            raw, raw + static_cast<size_t>(data.element_count()) *
                           nd::element_size(data.type()));
      }
    }
  }

  if (ft_on) {
    const ft::ChaosBus::ChaosStats chaos_stats = chaos->chaos_stats();
    ftr.data_messages = chaos_stats.data_messages;
    ftr.dropped = chaos_stats.dropped;
    ftr.duplicated = chaos_stats.duplicated;
    ftr.delayed = chaos_stats.delayed;
    ftr.reordered = chaos_stats.reordered;
    ftr.crashes_fired = chaos_stats.crashes_fired;
    for (const auto& node : nodes) {
      if (node->crashed()) continue;
      const ft::ReliableChannel::Stats s = node->channel_stats();
      ftr.data_sent += s.data_sent;
      ftr.retransmits += s.retransmits;
      ftr.duplicates_dropped += s.duplicates_dropped;
      ftr.acks_sent += s.acks_sent;
    }
    master_registry.counter("ft_heartbeats_total").add(ftr.heartbeats);
    master_registry.counter("ft_recoveries_total").add(ftr.recoveries);
    master_registry.counter("ft_kernels_reassigned_total")
        .add(ftr.kernels_reassigned);
    master_registry.counter("ft_checkpoints_stored_total")
        .add(ftr.checkpoints_stored);
    master_registry.counter("ft_checkpoint_restores_total")
        .add(ftr.checkpoint_restores);
    result.combined_metrics.merge(master_registry.snapshot());
  }

  // Causal tracing: harvest every lane's spans into one node-qualified
  // DAG, compute per-frame critical paths, and stitch the merged trace
  // file (one pid lane per node, the master control lane, and crashed
  // nodes' flight-recorder lanes rendering their final moments).
  for (auto& node : nodes) {
    if (node->flight_dump()) {
      result.flight_dumps.push_back(*node->flight_dump());
    }
  }
  if (tracing) {
    append_spans(master_trace, "master", &result.trace_spans);
    for (auto& node : nodes) {
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
      for (auto& node : nodes) {
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
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i]->crashed()) continue;
        const FlightRecorder* flight = nodes[i]->runtime().flight();
        if (flight == nullptr) continue;
        flight->emit_events(
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
