// End-to-end chaos tests: distributed runs under a seeded FaultPlan with
// drop/dup/reorder/delay and scripted crashes must terminate, produce
// bit-exact field contents versus a fault-free run, and report
// reproducible fault counters for the same seed.
//
// The ChaosSweep test is parameterized through the environment
// (P2G_CHAOS_SEED / P2G_CHAOS_DROP / P2G_CHAOS_CRASH_AT) and registered as
// `chaos`-labeled ctest entries plus scripts/chaos.sh sweeps; it is
// filtered out of the regular discovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/program.h"
#include "dist/master.h"
#include "ft/fault_plan.h"
#include "obs/trace_reader.h"

namespace p2g::dist {
namespace {

// A pure four-stage pipeline: gen drives `ages` iterations of an
// `elements`-wide int32 field through three arithmetic stages. No shared
// side-effect sinks — under at-least-once re-execution a side effect would
// duplicate, while field contents stay bit-exact by write-once semantics.
Program chaos_pipeline(int elements, int ages) {
  ProgramBuilder pb;
  pb.field("src", nd::ElementType::kInt32, 1);
  pb.field("mid", nd::ElementType::kInt32, 1);
  pb.field("out", nd::ElementType::kInt32, 1);
  pb.field("fin", nd::ElementType::kInt32, 1);

  pb.kernel("gen")
      .store("v", "src", AgeExpr::relative(0), Slice::whole())
      .body([elements, ages](KernelContext& ctx) {
        const Age a = ctx.age();
        if (a >= ages) return;
        nd::AnyBuffer values(nd::ElementType::kInt32,
                             nd::Extents({elements}));
        for (int i = 0; i < elements; ++i) {
          values.data<int32_t>()[i] =
              static_cast<int32_t>((a + 1) * 1000 + i);
        }
        ctx.store_array("v", std::move(values));
        ctx.continue_next_age();
      });

  pb.kernel("stage1")
      .index("x")
      .fetch("v", "src", AgeExpr::relative(0), Slice().var("x"))
      .store("o", "mid", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("o",
                                  ctx.fetch_scalar<int32_t>("v") * 3 + 1);
      });

  pb.kernel("stage2")
      .index("x")
      .fetch("v", "mid", AgeExpr::relative(0), Slice().var("x"))
      .store("o", "out", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("o",
                                  ctx.fetch_scalar<int32_t>("v") * 7 - 4);
      });

  pb.kernel("stage3")
      .index("x")
      .fetch("v", "out", AgeExpr::relative(0), Slice().var("x"))
      .store("o", "fin", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        ctx.store_scalar<int32_t>("o",
                                  ctx.fetch_scalar<int32_t>("v") + 11);
      });

  // Fetch-only sink: whole-slice fetches of the entire chain pull every
  // field onto the sink's node and let its analyzer seal each age (an
  // elementwise producer's extents derive from its input's sealed
  // extents, so seals only chain where all upstream fields are present).
  // That gives the capture probe a node with complete ages for every
  // captured field. No side effects, so at-least-once re-execution under
  // chaos is harmless.
  pb.kernel("sink")
      .serial()
      .fetch("s", "src", AgeExpr::relative(0), Slice::whole())
      .fetch("m", "mid", AgeExpr::relative(0), Slice::whole())
      .fetch("o", "out", AgeExpr::relative(0), Slice::whole())
      .fetch("f", "fin", AgeExpr::relative(0), Slice::whole())
      .body([](KernelContext&) {});

  return pb.build();
}

constexpr int kElements = 8;
constexpr int kAges = 5;

MasterOptions base_options() {
  MasterOptions options;
  options.nodes = 3;
  options.workers_per_node = 1;
  options.watchdog = std::chrono::milliseconds(20000);
  options.program_factory = [] { return chaos_pipeline(kElements, kAges); };
  options.capture_fields = {"mid", "out", "fin"};
  return options;
}

MasterOptions chaos_options(const ft::FaultPlan& plan) {
  MasterOptions options = base_options();
  options.ft.enabled = true;
  options.ft.plan = plan;
  options.ft.heartbeat_period_ms = 10;
  options.ft.checkpoint_every_beats = 3;
  options.ft.detector.phi_threshold = 5.0;
  options.ft.detector.min_silence_us = 120'000;
  // One instance per work item: the stores a run forwards, and so the
  // chaos-plane counters, are a function of the program and the seed, not
  // of how measured body times cut the stages into items.
  for (const char* stage : {"stage1", "stage2", "stage3"}) {
    options.base_options.kernel_schedules[stage].chunk = 1;
  }
  return options;
}

// The fault-free reference: same program, same partitioning, no FT layer.
DistributedRunReport fault_free_run() {
  Master master(base_options());
  DistributedRunReport report = master.run();
  EXPECT_FALSE(report.timed_out);
  return report;
}

// Node that runs `kernel` under the (deterministic) partitioning.
std::string owner_of(const std::string& kernel) {
  Master master(base_options());
  const DistributedRunReport report = master.run();
  const auto& names = master.final_graph().kernel_names;
  for (size_t k = 0; k < names.size(); ++k) {
    if (names[k] != kernel) continue;
    const int part = report.partition.assignment[k];
    const size_t node = report.placement[static_cast<size_t>(part)];
    return "node" + std::to_string(node);
  }
  ADD_FAILURE() << "kernel not found: " << kernel;
  return "node0";
}

void expect_bit_exact(
    const std::map<std::string, std::map<Age, std::vector<uint8_t>>>& got,
    const std::map<std::string, std::map<Age, std::vector<uint8_t>>>&
        want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [field, ages] : want) {
    ASSERT_TRUE(got.count(field)) << field;
    ASSERT_EQ(got.at(field).size(), ages.size())
        << field << ": complete-age sets differ";
    for (const auto& [age, bytes] : ages) {
      ASSERT_TRUE(got.at(field).count(age)) << field << " age " << age;
      EXPECT_EQ(got.at(field).at(age), bytes)
          << field << " age " << age << " is not bit-exact";
    }
  }
}

TEST(ChaosSmoke, LossySeedTerminatesBitExactAndReproducibly) {
  const DistributedRunReport reference = fault_free_run();
  ASSERT_EQ(reference.captured.at("fin").size(), static_cast<size_t>(kAges));

  const ft::FaultPlan plan = ft::FaultPlan::uniform(1234, 0.15, 2000);
  Master first(chaos_options(plan));
  const DistributedRunReport a = first.run();
  Master second(chaos_options(plan));
  const DistributedRunReport b = second.run();

  ASSERT_FALSE(a.timed_out) << "chaos run must still terminate";
  ASSERT_FALSE(b.timed_out);

  // Faults actually happened, and the delivery layer recovered them.
  EXPECT_GT(a.ft.data_messages, 0);
  EXPECT_GT(a.ft.dropped, 0) << "seed produced no drops; pick another";
  EXPECT_GT(a.ft.duplicated, 0);
  EXPECT_GE(a.ft.retransmits, a.ft.dropped)
      << "every dropped first attempt needs at least one retransmission";
  EXPECT_GE(a.ft.duplicates_dropped, a.ft.duplicated)
      << "every chaos duplicate must be deduplicated at the receiver";
  EXPECT_EQ(a.ft.recoveries, 0);

  // Chaos-plane counters are a pure function of the seed.
  EXPECT_EQ(a.ft.data_messages, b.ft.data_messages);
  EXPECT_EQ(a.ft.dropped, b.ft.dropped);
  EXPECT_EQ(a.ft.duplicated, b.ft.duplicated);
  EXPECT_EQ(a.ft.delayed, b.ft.delayed);
  EXPECT_EQ(a.ft.reordered, b.ft.reordered);

  // The run's data is bit-exact despite the chaos.
  expect_bit_exact(a.captured, reference.captured);
  expect_bit_exact(b.captured, reference.captured);

  // The FT counters surfaced through the telemetry pipeline too.
  const obs::CounterValue* retransmits =
      a.combined_metrics.find_counter("ft_retransmits_total");
  ASSERT_NE(retransmits, nullptr);
  EXPECT_EQ(retransmits->value, a.ft.retransmits);
}

TEST(ChaosCrashRecovery, MidRunCrashRecoversBitExact) {
  const DistributedRunReport reference = fault_free_run();
  const std::string victim = owner_of("stage1");

  ft::FaultPlan plan = ft::FaultPlan::uniform(777, 0.06, 1500);
  plan.crashes.push_back(ft::CrashTrigger{victim, 40, -1});

  Master first(chaos_options(plan));
  const DistributedRunReport a = first.run();
  Master second(chaos_options(plan));
  const DistributedRunReport b = second.run();

  ASSERT_FALSE(a.timed_out) << "recovery must reach quiescence";
  ASSERT_FALSE(b.timed_out);

  // The scripted crash fired, was detected, and recovery ran.
  EXPECT_EQ(a.ft.crashes_fired, 1);
  EXPECT_EQ(a.ft.recoveries, 1);
  ASSERT_EQ(a.ft.dead_nodes, std::vector<std::string>{victim});
  EXPECT_GE(a.ft.kernels_reassigned, 1);
  EXPECT_GT(a.ft.retransmits, 0);
  ASSERT_EQ(a.ft.recovery_latency_ns.size(), 1u);
  EXPECT_GT(a.ft.recovery_latency_ns[0], 0);

  // Recovery decisions are reproducible for the same seed.
  EXPECT_EQ(b.ft.recoveries, a.ft.recoveries);
  EXPECT_EQ(b.ft.kernels_reassigned, a.ft.kernels_reassigned);
  EXPECT_EQ(b.ft.dead_nodes, a.ft.dead_nodes);

  // Survivors re-executed the dead node's kernels deterministically: the
  // final field contents are bit-exact versus the fault-free run.
  expect_bit_exact(a.captured, reference.captured);
  expect_bit_exact(b.captured, reference.captured);

  // Recovery latency reached the telemetry pipeline.
  const obs::HistogramSnapshot* latency =
      a.combined_metrics.find_histogram("ft_recovery_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1);
}

// ISSUE 6: a scripted crash under tracing must leave a postmortem — the
// crashed node dumps its flight-recorder rings to an artifact, the master
// stitches that dump into the merged trace as a "<node>.flight" lane, and
// the victim's last periodic kMetricsReport snapshot survives in the
// merged report even though the node never reached its final join() ship.
TEST(ChaosFlightRecorder, CrashDumpIsStitchedIntoMergedTrace) {
  const std::string victim = owner_of("stage1");

  ft::FaultPlan plan = ft::FaultPlan::uniform(777, 0.06, 1500);
  // Crash mid-data-flow (the run carries ~40 data messages, one per box
  // commit, among ~550 total; they fall between about the 4th and the
  // 130th message) but late enough that several heartbeat cycles precede
  // it.
  plan.crashes.push_back(ft::CrashTrigger{victim, 60, -1});

  MasterOptions options = chaos_options(plan);
  // Ship telemetry on every heartbeat so the victim's periodic snapshot
  // lands on the master before the scripted crash fires.
  options.ft.heartbeat_period_ms = 2;
  options.ft.checkpoint_every_beats = 1;
  const std::string trace_path =
      std::string(::testing::TempDir()) + "p2g_chaos_merged_trace.json";
  options.trace_path = trace_path;
  options.flight_dir = std::string(::testing::TempDir());

  Master master(options);
  const DistributedRunReport report = master.run();
  ASSERT_FALSE(report.timed_out);
  ASSERT_EQ(report.ft.crashes_fired, 1);
  ASSERT_EQ(report.ft.dead_nodes, std::vector<std::string>{victim});

  // The crashed node wrote a flight-dump artifact, and it parses as a
  // flight trace.
  ASSERT_EQ(report.flight_dumps.size(), 1u);
  EXPECT_NE(report.flight_dumps[0].find("flight_" + victim),
            std::string::npos);
  const obs::TraceDocument dump =
      obs::read_trace_file(report.flight_dumps[0]);
  EXPECT_EQ(dump.malformed_lines, 0u);
  EXPECT_GT(dump.flight_spans, 0u);

  // The merged trace stitches the dump in as a "<node>.flight" lane and
  // still carries cross-node dependency arrows from before (and after)
  // the crash.
  ASSERT_TRUE(report.trace_file.has_value());
  const obs::TraceDocument merged = obs::read_trace_file(trace_path);
  EXPECT_EQ(merged.malformed_lines, 0u);
  EXPECT_GT(merged.flight_spans, 0u);
  EXPECT_GE(merged.cross_node_flows(), 1u);
  bool flight_lane = false;
  for (const auto& [pid, name] : merged.process_names) {
    flight_lane = flight_lane || name == victim + ".flight";
  }
  EXPECT_TRUE(flight_lane);

  // Critical paths still come out of a crashed run (recovery re-executes
  // the frames), with the recovery window visible to gap attribution.
  EXPECT_FALSE(report.critical_paths.empty());

  // The victim's last periodic metrics snapshot was retained: it appears
  // in node_metrics although the node was fenced before join().
  EXPECT_EQ(report.node_metrics.count(victim), 1u)
      << "crashed node's periodic telemetry snapshot was lost";

  std::remove(trace_path.c_str());
  std::remove(report.flight_dumps[0].c_str());
}

// Environment-driven sweep entry (scripts/chaos.sh, `ctest -L chaos`).
TEST(ChaosSweep, SeededRunTerminatesAndMatchesFaultFree) {
  const char* seed_env = std::getenv("P2G_CHAOS_SEED");
  const char* drop_env = std::getenv("P2G_CHAOS_DROP");
  const char* crash_env = std::getenv("P2G_CHAOS_CRASH_AT");
  const uint64_t seed =
      seed_env ? std::strtoull(seed_env, nullptr, 10) : 1;
  const double drop = drop_env ? std::atof(drop_env) : 0.1;
  const int64_t crash_at =
      crash_env ? std::strtoll(crash_env, nullptr, 10) : -1;

  const DistributedRunReport reference = fault_free_run();
  ft::FaultPlan plan = ft::FaultPlan::uniform(seed, drop, 2000);
  if (crash_at > 0) {
    plan.crashes.push_back(
        ft::CrashTrigger{owner_of("stage1"), crash_at, -1});
  }

  Master master(chaos_options(plan));
  const DistributedRunReport report = master.run();
  ASSERT_FALSE(report.timed_out)
      << "seed " << seed << " drop " << drop << " crash_at " << crash_at;
  expect_bit_exact(report.captured, reference.captured);
  if (crash_at > 0) {
    EXPECT_EQ(report.ft.recoveries, 1);
  }
}

}  // namespace
}  // namespace p2g::dist
