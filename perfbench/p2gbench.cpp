// p2gbench: the P2G benchmark driver.
//
// Runs one workload through the public API (workloads::*::build(),
// Runtime::run(), dist::Master::run(), the media/workloads reference
// functions), repeats it for a fixed measurement window, checks every
// output against a reference, and prints every metric by name with its
// unit. The last stdout line is "RESULT <json>" with every metric;
// perfbench/run.py turns it into the benchmark's result line.
//
//   p2gbench --workload <mjpeg_cif|kmeans_fine|stream_3node> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//            [--source-digest <hex>] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics with all telemetry off.
// --trace 1 alternates untraced and traced repetitions: the traced ones
// (RunOptions::collect_trace + metrics, MasterOptions equivalents) give the
// per-layer metrics, and the pair gives the tracing overhead.
// --corrupt-reference flips one reference byte; the run must then report
// failures (the self-test uses it).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "core/runtime.h"
#include "dist/master.h"
#include "media/dct.h"
#include "media/jpeg.h"
#include "media/mjpeg.h"
#include "media/yuv.h"
#include "obs/causal.h"
#include "workloads/kmeans.h"
#include "workloads/mjpeg_workload.h"
#include "workloads/pipeline.h"
#include "workloads/standalone_mjpeg.h"

namespace {

using namespace p2g;

// --- workload sizes ---------------------------------------------------------

constexpr int kCifWidth = 352;
constexpr int kCifHeight = 288;
constexpr int kMjpegFrames = 10;  ///< frames per repetition
constexpr int kKmeansN = 600;
constexpr int kKmeansK = 40;
constexpr int kKmeansIterations = 10;
constexpr int kStreamFrameBytes = 4096;
constexpr int kStreamFrames = 2000;
constexpr int kStreamNodes = 3;
constexpr std::chrono::milliseconds kWatchdog{60000};

/// The host probe's time on the reference host (a 4-vCPU VM, unloaded);
/// see host_probe_s.
constexpr double kProbeReferenceS = 0.040;

/// Layer sum check tolerance (relative): see LayerCheck.
constexpr double kLayerTolerance = 0.05;

// --- the driver's own spans -------------------------------------------------

/// Spans the driver records around each call it makes into a layer. Kept in
/// memory and written as Chrome trace JSON at exit.
class SpanLog {
 public:
  /// Records [start_ns, now) and returns its length in seconds.
  double close(const std::string& name, const char* layer, int64_t start_ns) {
    const int64_t end = now_ns();
    spans_.push_back({name, layer, start_ns, end - start_ns, rep_});
    return ns_to_s(end - start_ns);
  }
  void set_rep(int rep) { rep_ = rep; }

  void write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    os << "[\n";
    const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                    "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rep\":%d}}"
                    "%s\n",
                    s.name.c_str(), s.layer, (s.start_ns - epoch) / 1e3,
                    s.dur_ns / 1e3, s.rep, i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]\n";
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    int64_t start_ns;
    int64_t dur_ns;
    int rep;
  };
  std::vector<Span> spans_;
  int rep_ = -1;  ///< -1 = outside the repetitions (inputs, references)
};

// --- statistics ---------------------------------------------------------------

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Highest of a few standard percentiles with at least ten samples beyond
/// it; 0 when even the median has fewer.
double supported_percentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

/// CPUs this process may run on: its affinity mask.
unsigned allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Restricts this thread, and so every thread it starts later, to the last
/// CPU of its affinity mask.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Host-speed probe. The benchmark runs on shared machines whose speed
/// drifts by tens of percent within minutes: on a 4-vCPU VM the same
/// MJPEG run took 0.55-0.76 s across ten consecutive runs. After every
/// untraced repetition the driver times this fixed floating-point loop (a
/// textbook 8x8 DCT written here, so no change to P2G can move it) on
/// every CPU the process may use, one thread each. The time metrics in
/// BENCHMARK.json are scaled by kProbeReferenceS / probe: seconds on a host
/// where the probe takes kProbeReferenceS. The raw seconds are reported
/// next to them.
double host_probe_s() {
  const unsigned threads = allowed_cpus();
  std::vector<std::thread> pool;
  std::vector<double> sinks(threads);
  const int64_t t0 = now_ns();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t] {
      double block[64];
      for (int i = 0; i < 64; ++i) block[i] = (i * 37 + t) % 255 - 128.0;
      double acc = 0;
      for (int b = 0; b < 600; ++b) {
        for (int u = 0; u < 8; ++u) {
          for (int v = 0; v < 8; ++v) {
            double sum = 0;
            for (int x = 0; x < 8; ++x) {
              for (int y = 0; y < 8; ++y) {
                sum += block[x * 8 + y] *
                       std::cos((2 * x + 1) * u * std::numbers::pi / 16) *
                       std::cos((2 * y + 1) * v * std::numbers::pi / 16);
              }
            }
            acc += sum;
          }
        }
        block[b % 64] += 1;
      }
      sinks[t] = acc;  // keeps the loop observable
    });
  }
  for (std::thread& th : pool) th.join();
  return ns_to_s(now_ns() - t0);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- per-repetition results -------------------------------------------------

/// Raw material for the per-layer metrics, taken from one traced run.
struct TraceData {
  double wall_s = 0.0;     ///< the bench-timed run()
  int64_t run_end_ns = 0;
  int workers_total = 0;  ///< worker threads across all nodes
  int nodes = 1;
  int64_t frames = 0;  ///< ages shipped over the bus (cluster runs)
  InstrumentationReport instr;
  obs::MetricsSnapshot metrics;
  std::vector<obs::SpanRecord> spans;
  int64_t bus_messages = 0;
  int64_t bus_bytes = 0;
};

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t run_end_ns = 0;  ///< when the bench-timed run() returned
  std::optional<TraceData> trace;
};

/// Bench-timed run(): wall and process CPU around `body`.
template <typename F>
auto timed_run(SpanLog& log, const char* name, const char* layer, Rep& rep,
               F&& body) {
  const double cpu0 = process_cpu_s();
  const int64_t t0 = now_ns();
  auto result = body();
  rep.wall_s = log.close(name, layer, t0);
  rep.run_end_ns = t0 + static_cast<int64_t>(rep.wall_s * 1e9);
  rep.cpu_s = process_cpu_s() - cpu0;
  return result;
}

std::vector<obs::SpanRecord> to_records(const TraceCollector& trace) {
  std::vector<obs::SpanRecord> out;
  for (TraceCollector::Span& span : trace.spans_snapshot()) {
    obs::SpanRecord rec;
    rec.name = std::move(span.name);
    rec.thread_id = span.thread_id;
    rec.start_ns = span.start_ns;
    rec.duration_ns = span.duration_ns;
    rec.age = span.age;
    rec.trace_id = span.trace_id;
    rec.span_id = span.span_id;
    rec.parent_span = span.parent_span;
    rec.kind = static_cast<obs::SpanKind>(static_cast<uint8_t>(span.kind));
    out.push_back(std::move(rec));
  }
  return out;
}

/// Builds a program and runs it on one Runtime. Setup is build() plus the
/// Runtime constructor; wall and CPU cover run() only.
void run_single_node(const std::function<Program()>& build,
                     RunOptions options, bool traced, SpanLog& log, Rep& rep) {
  options.watchdog = kWatchdog;
  if (traced) {
    options.collect_trace = true;
    options.metrics.enabled = true;
  }
  int64_t t0 = now_ns();
  Program program = build();
  rep.setup_s += log.close("build", "workloads", t0);
  t0 = now_ns();
  Runtime runtime(std::move(program), options);
  rep.setup_s += log.close("Runtime()", "core", t0);
  const RunReport report =
      timed_run(log, "Runtime::run", "core", rep, [&] { return runtime.run(); });
  if (report.timed_out) throw std::runtime_error("watchdog expired");
  if (traced) {
    TraceData td;
    td.wall_s = rep.wall_s;
    td.run_end_ns = rep.run_end_ns;
    td.workers_total = options.workers;
    td.instr = report.instrumentation;
    td.metrics = report.metrics;
    td.spans = to_records(*runtime.trace());
    rep.trace = std::move(td);
  }
}

int default_workers() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);  // the analyzer thread keeps a core
}

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual int nodes() const { return 1; }
  virtual int workers_per_node() const = 0;
  /// Whether the whole process runs on one CPU (see Stream3Node).
  virtual bool one_cpu() const { return false; }
  virtual std::string params() const = 0;
  /// One repetition. Fills setup/wall/cpu, the verified output count and
  /// the mismatches; traced repetitions also fill Rep::trace.
  virtual void run(bool traced, SpanLog& log, Rep& rep) = 0;
};

/// Fig. 9: MJPEG encode of a synthetic CIF clip, naive DCT, one node.
class MjpegCif final : public Workload {
 public:
  MjpegCif(uint32_t seed, bool corrupt, SpanLog& log) {
    int64_t t0 = now_ns();
    video_ = std::make_shared<const media::YuvVideo>(
        media::generate_synthetic_video(kCifWidth, kCifHeight, kMjpegFrames,
                                        seed));
    log.close("generate_synthetic_video", "media", t0);
    t0 = now_ns();
    reference_ = media::split_mjpeg(
        workloads::encode_mjpeg_standalone(*video_).stream());
    log.close("encode_mjpeg_standalone", "workloads", t0);
    if (corrupt) reference_.front()[reference_.front().size() / 2] ^= 0x01;
  }

  const char* name() const override { return "mjpeg_cif"; }
  int workers_per_node() const override { return default_workers(); }
  std::string params() const override {
    return "CIF 352x288, " + std::to_string(kMjpegFrames) +
           " frames per repetition, naive DCT, quality 50";
  }

  void run(bool traced, SpanLog& log, Rep& rep) override {
    workloads::MjpegWorkload workload;
    workload.video = video_;
    RunOptions options;
    options.workers = workers_per_node();
    rep.attempted = static_cast<int64_t>(reference_.size());
    run_single_node([&] { return workload.build(); }, options, traced, log,
                    rep);
    const int64_t t0 = now_ns();
    const auto frames = media::split_mjpeg(workload.output->stream());
    for (size_t f = 0; f < reference_.size(); ++f) {
      if (f >= frames.size() || frames[f] != reference_[f]) ++rep.failed;
    }
    log.close("verify", "bench", t0);
  }

 private:
  std::shared_ptr<const media::YuvVideo> video_;
  std::vector<std::vector<uint8_t>> reference_;
};

workloads::KmeansConfig kmeans_config(uint32_t seed, int iterations) {
  workloads::KmeansConfig config;
  config.n = kKmeansN;
  config.k = kKmeansK;
  config.iterations = iterations;
  config.seed = seed;
  return config;
}

/// Fig. 10 / Table III: fine-grained k-means (n*K assign instances per
/// iteration), one node.
class KmeansFine final : public Workload {
 public:
  KmeansFine(uint32_t seed, bool corrupt, SpanLog& log)
      : config_(kmeans_config(seed, kKmeansIterations)) {
    // Centroids after i iterations for every age the print kernel sees.
    const int64_t t0 = now_ns();
    for (int i = 0; i <= kKmeansIterations; ++i) {
      reference_.push_back(
          workloads::kmeans_sequential(kmeans_config(seed, i)));
    }
    log.close("kmeans_sequential", "workloads", t0);
    if (corrupt) reference_.back().front() += 1.0;
  }

  const char* name() const override { return "kmeans_fine"; }
  int workers_per_node() const override { return default_workers(); }
  std::string params() const override {
    return "n=" + std::to_string(kKmeansN) + " K=" + std::to_string(kKmeansK) +
           " dim=2, " + std::to_string(kKmeansIterations) + " iterations";
  }

  void run(bool traced, SpanLog& log, Rep& rep) override {
    workloads::KmeansWorkload workload;
    workload.config = config_;
    RunOptions options;
    options.workers = workers_per_node();
    workload.apply_schedule(options);
    rep.attempted = static_cast<int64_t>(reference_.size());
    run_single_node([&] { return workload.build(); }, options, traced, log,
                    rep);
    const int64_t t0 = now_ns();
    const auto& snapshots = *workload.snapshots;
    for (size_t a = 0; a < reference_.size(); ++a) {
      const bool same =
          a < snapshots.size() && snapshots[a].size() == reference_[a].size() &&
          std::memcmp(snapshots[a].data(), reference_[a].data(),
                      reference_[a].size() * sizeof(double)) == 0;
      if (!same) ++rep.failed;
    }
    log.close("verify", "bench", t0);
  }

 private:
  workloads::KmeansConfig config_;
  std::vector<std::vector<double>> reference_;
};

/// out(a) of the frame pipeline for every age, computed outside the
/// runtime: frame(0) is the seeded xorshift stream, out(a) = 2*frame(a)+1,
/// frame(a+1) = out(a)+3, all modulo 256.
std::vector<std::vector<uint8_t>> stream_reference(uint32_t seed, int ages) {
  std::vector<uint8_t> frame(kStreamFrameBytes);
  uint32_t state = seed * 2654435761u + 1;
  for (uint8_t& b : frame) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    b = static_cast<uint8_t>(state);
  }
  std::vector<std::vector<uint8_t>> out;
  for (int a = 0; a < ages; ++a) {
    std::vector<uint8_t> o(frame.size());
    for (size_t i = 0; i < frame.size(); ++i) {
      o[i] = static_cast<uint8_t>(frame[i] * 2 + 1);
      frame[i] = static_cast<uint8_t>(o[i] + 3);
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// The 3-node frame stream: PipelineWorkload on an in-process dist::Master,
/// one worker per node, one frame in flight, whole frames on the wire.
///
/// The process runs on one CPU. With one frame in flight every age is a
/// chain of hand-offs between threads, so on several CPUs the run is bound
/// by how fast the host wakes an idle CPU, not by P2G: on a shared 4-vCPU
/// VM, interleaved 30 s runs spread 0.45 of their median across CPUs and
/// 0.055 on one. On one CPU the wall time is the work every thread does
/// for a frame plus the switches between them.
class Stream3Node final : public Workload {
 public:
  Stream3Node(uint32_t seed, bool corrupt, SpanLog& log) {
    config_.frame_bytes = kStreamFrameBytes;
    config_.frames = kStreamFrames;
    config_.seed = seed;
    const int64_t t0 = now_ns();
    // max_age = frames caps xform at age `frames`: ages 0..frames.
    reference_ = stream_reference(seed, kStreamFrames + 1);
    log.close("stream_reference", "bench", t0);
    if (corrupt) reference_.back().front() ^= 0x01;
  }

  const char* name() const override { return "stream_3node"; }
  int nodes() const override { return kStreamNodes; }
  int workers_per_node() const override { return 1; }
  bool one_cpu() const override { return true; }
  std::string params() const override {
    return std::to_string(kStreamFrames) + " frames of " +
           std::to_string(kStreamFrameBytes) + " B, " +
           std::to_string(kStreamNodes) + " in-process nodes, one CPU";
  }

  void run(bool traced, SpanLog& log, Rep& rep) override {
    const workloads::PipelineConfig config = config_;
    dist::MasterOptions options;
    options.nodes = kStreamNodes;
    options.workers_per_node = workers_per_node();
    options.collect_node_metrics = traced;
    options.base_options.collect_trace = traced;
    workloads::PipelineWorkload{config}.apply_schedule(options.base_options);
    options.watchdog = kWatchdog;
    options.capture_fields = {"out"};
    options.program_factory = [config] {
      return workloads::PipelineWorkload{config}.build();
    };
    rep.attempted = static_cast<int64_t>(reference_.size());
    int64_t t0 = now_ns();
    dist::Master master(std::move(options));
    rep.setup_s = log.close("Master()", "dist", t0);
    const dist::DistributedRunReport report =
        timed_run(log, "Master::run", "dist", rep, [&] { return master.run(); });
    if (report.timed_out) throw std::runtime_error("watchdog expired");

    t0 = now_ns();
    const auto found = report.captured.find("out");
    for (size_t a = 0; a < reference_.size(); ++a) {
      const std::vector<uint8_t>* got = nullptr;
      if (found != report.captured.end()) {
        const auto it = found->second.find(static_cast<Age>(a));
        if (it != found->second.end()) got = &it->second;
      }
      if (got == nullptr || *got != reference_[a]) ++rep.failed;
    }
    log.close("verify", "bench", t0);

    if (traced) {
      TraceData td;
      td.wall_s = rep.wall_s;
      td.run_end_ns = rep.run_end_ns;
      td.workers_total = kStreamNodes * workers_per_node();
      td.nodes = kStreamNodes;
      td.frames = static_cast<int64_t>(reference_.size());
      td.instr = report.combined;
      td.metrics = report.combined_metrics;
      td.spans = report.trace_spans;
      td.bus_messages = report.bus.delivered;
      td.bus_bytes = report.bus.bytes;
      rep.trace = std::move(td);
    }
  }

 private:
  workloads::PipelineConfig config_;
  std::vector<std::vector<uint8_t>> reference_;
};

// --- per-layer derivation ---------------------------------------------------

/// Layer sum check (ROADMAP acceptance) on one traced repetition:
///   1. every worker thread is busy or idle for the whole run: busy + idle
///      must equal workers x wall within kLayerTolerance. The runtime's idle
///      counter stops at each worker's last work item, so the final wait is
///      added from the trace (run end minus the worker's last span end; a
///      worker that never ran an item waited the whole run).
///   2. body + dispatch + other = busy, where body and dispatch come from
///      the instrumentation and busy from the worker counters: "other"
///      (time in execute() outside both timers) may not be negative by more
///      than kLayerTolerance of busy, and the worker trace spans, an
///      independent measure of the same intervals, must sum to busy within
///      kLayerTolerance.
struct LayerCheck {
  double workers_x_wall_ns = 0;
  double busy_ns = 0;
  double idle_ns = 0;        ///< from the runtime's idle counter
  double final_wait_ns = 0;  ///< from the trace, see above
  double body_ns = 0;
  double dispatch_ns = 0;
  double worker_span_ns = 0;

  double accounted_ns() const { return busy_ns + idle_ns + final_wait_ns; }
  double accounted_err() const {
    return std::abs(accounted_ns() - workers_x_wall_ns) / workers_x_wall_ns;
  }
  double other_ns() const { return busy_ns - body_ns - dispatch_ns; }
  double span_err() const {
    return std::abs(worker_span_ns - busy_ns) / busy_ns;
  }
  bool ok() const {
    return accounted_err() <= kLayerTolerance &&
           other_ns() >= -kLayerTolerance * busy_ns &&
           span_err() <= kLayerTolerance;
  }
};

struct Derived {
  std::map<std::string, double> metrics;
  std::map<std::string, size_t> samples;  ///< sample count behind a percentile
  LayerCheck check;
};

int64_t counter_value(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::CounterValue* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

double ns_percentile_ms(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : percentile(std::move(v), p) / 1e6;
}

/// Per-age critical paths. The causal trace id follows the whole aging
/// loop (an age's output produces the next age), so one trace id covers
/// the entire run; here every span is regrouped by its age, and a causal
/// link that crosses ages is replaced by a zero-length hand-off root at the
/// parent's end, so the gap before the first span of an age is still
/// attributed (queue on one node, wire across nodes).
obs::CriticalPathReport per_age_paths(const std::vector<obs::SpanRecord>& in) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i].span_id != 0) by_id.emplace(in[i].span_id, i);
  }
  std::vector<obs::SpanRecord> spans;
  spans.reserve(in.size() * 2);
  uint64_t next_id = 1;
  for (const obs::SpanRecord& s : in) {
    if (s.trace_id == 0) continue;
    obs::SpanRecord r = s;
    r.trace_id = static_cast<uint64_t>(s.age) + 1;
    const auto parent = by_id.find(s.parent_span);
    if (parent != by_id.end() && in[parent->second].age != s.age) {
      const obs::SpanRecord& p = in[parent->second];
      obs::SpanRecord handoff;
      handoff.name = "handoff";
      handoff.node = p.node;
      handoff.start_ns = p.end_ns();
      handoff.age = s.age;
      handoff.trace_id = r.trace_id;
      handoff.span_id = (1ULL << 63) | next_id++;
      handoff.kind = obs::SpanKind::kOther;
      r.parent_span = handoff.span_id;
      spans.push_back(std::move(handoff));
    }
    spans.push_back(std::move(r));
  }
  return obs::analyze_critical_paths(spans);
}

Derived derive(const TraceData& td) {
  Derived d;
  auto& m = d.metrics;
  int64_t instances = 0;
  int64_t items = 0;
  int64_t body_ns = 0;
  int64_t dispatch_ns = 0;
  for (const KernelStats& k : td.instr.kernels) {
    instances += k.instances;
    items += k.dispatches;
    body_ns += k.kernel_ns;
    dispatch_ns += k.dispatch_ns;
  }
  const double wall_ns = td.wall_s * 1e9;
  const double workers_wall = static_cast<double>(td.workers_total) * wall_ns;
  const auto busy = static_cast<double>(
      counter_value(td.metrics, "worker_busy_ns_total"));
  const auto idle = static_cast<double>(
      counter_value(td.metrics, "worker_idle_ns_total"));
  const auto events = static_cast<double>(
      counter_value(td.metrics, "analyzer_events_total"));
  const auto inst = static_cast<double>(instances);

  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < td.spans.size(); ++i) {
    if (td.spans[i].span_id != 0) by_id.emplace(td.spans[i].span_id, i);
  }
  double analyzer_ns = 0;
  double worker_span_ns = 0;
  std::map<std::pair<std::string, int64_t>, int64_t> last_end;  // per worker
  std::vector<double> waits_us;
  for (const obs::SpanRecord& s : td.spans) {
    if (s.kind == obs::SpanKind::kAnalyzer) {
      analyzer_ns += static_cast<double>(s.duration_ns);
    }
    if (s.kind != obs::SpanKind::kWorker) continue;
    worker_span_ns += static_cast<double>(s.duration_ns);
    int64_t& end = last_end[{s.node, s.thread_id}];
    end = std::max(end, s.end_ns());
    const auto parent = by_id.find(s.parent_span);
    if (s.parent_span == 0 || parent == by_id.end()) continue;
    const int64_t gap = s.start_ns - td.spans[parent->second].end_ns();
    waits_us.push_back(static_cast<double>(std::max<int64_t>(gap, 0)) / 1e3);
  }

  m["core.instances"] = inst;
  m["core.work_items"] = static_cast<double>(items);
  m["core.body_us_per_instance"] = static_cast<double>(body_ns) / 1e3 / inst;
  m["core.dispatch_us_per_item"] =
      static_cast<double>(dispatch_ns) / 1e3 / static_cast<double>(items);
  m["core.framework_us_per_instance"] =
      (workers_wall - static_cast<double>(body_ns)) / 1e3 / inst;
  m["core.worker_busy_frac"] = busy / workers_wall;
  m["core.analyzer_busy_frac"] = analyzer_ns / (td.nodes * wall_ns);
  m["core.analyzer_us_per_event"] = analyzer_ns / 1e3 / events;
  m["core.events_per_instance"] = events / inst;
  m["core.queue_wait_us_p50"] = waits_us.empty() ? 0 : percentile(waits_us, 50);
  m["core.queue_wait_us_p99"] = waits_us.empty() ? 0 : percentile(waits_us, 99);
  d.samples["core.queue_wait_us"] = waits_us.size();

  // Critical paths per age.
  const obs::CriticalPathReport cp = per_age_paths(td.spans);
  std::vector<double> total;
  std::vector<double> queue;
  std::vector<double> exec;
  double sum_total = 0;
  double sum_wire = 0;
  double sum_store = 0;
  std::vector<std::pair<int64_t, double>> by_age;
  for (const obs::CriticalPath& path : cp.paths) {
    const auto b = [&path](obs::Bucket bucket) {
      return static_cast<double>(path.bucket_ns[static_cast<size_t>(bucket)]);
    };
    total.push_back(static_cast<double>(path.total_ns));
    queue.push_back(b(obs::Bucket::kQueue));
    exec.push_back(b(obs::Bucket::kExec));
    sum_total += static_cast<double>(path.total_ns);
    sum_wire += b(obs::Bucket::kWire);
    sum_store += b(obs::Bucket::kStore);
    by_age.emplace_back(static_cast<int64_t>(path.trace_id) - 1,
                        static_cast<double>(path.total_ns));
  }
  m["critpath.total_ms_p50"] = ns_percentile_ms(total, 50);
  m["critpath.total_ms_p99"] = ns_percentile_ms(total, 99);
  m["critpath.queue_ms_p50"] = ns_percentile_ms(queue, 50);
  m["critpath.exec_ms_p50"] = ns_percentile_ms(exec, 50);
  m["critpath.wire_share"] = sum_total > 0 ? sum_wire / sum_total : 0;
  m["critpath.store_share"] = sum_total > 0 ? sum_store / sum_total : 0;
  d.samples["critpath.ages"] = total.size();

  // Age bookkeeping: late ages against early ones. The first age also
  // pays for start-up and the last is cut short by the age cap, so both
  // are left out when there are enough ages.
  std::sort(by_age.begin(), by_age.end());
  if (by_age.size() >= 3) {
    by_age.pop_back();
    by_age.erase(by_age.begin());
  }
  const size_t tenth = std::max<size_t>(1, by_age.size() / 10);
  double early = 0;
  double late = 0;
  for (size_t i = 0; i < tenth && i < by_age.size(); ++i) {
    early += by_age[i].second;
    late += by_age[by_age.size() - 1 - i].second;
  }
  m["core.age_latency_late_over_early"] = early > 0 ? late / early : 0;

  m["dist.messages"] = static_cast<double>(td.bus_messages);
  m["dist.bytes_per_frame"] =
      td.frames > 0 ? static_cast<double>(td.bus_bytes) /
                          static_cast<double>(td.frames)
                    : 0;

  d.check.workers_x_wall_ns = workers_wall;
  d.check.busy_ns = busy;
  d.check.idle_ns = idle;
  for (const auto& [lane, end] : last_end) {
    d.check.final_wait_ns +=
        static_cast<double>(std::max<int64_t>(td.run_end_ns - end, 0));
  }
  const auto silent = static_cast<double>(td.workers_total) -
                      static_cast<double>(last_end.size());
  d.check.final_wait_ns += std::max(silent, 0.0) * wall_ns;
  d.check.body_ns = static_cast<double>(body_ns);
  d.check.dispatch_ns = static_cast<double>(dispatch_ns);
  d.check.worker_span_ns = worker_span_ns;
  return d;
}

/// The single-threaded baselines (the media and workloads reference
/// functions), measured in every traced run.
std::map<std::string, double> measure_baselines(uint32_t seed, SpanLog& log) {
  std::map<std::string, double> m;
  int64_t t0 = now_ns();
  const media::YuvVideo video = media::generate_synthetic_video(
      kCifWidth, kCifHeight, kMjpegFrames, seed);
  log.close("generate_synthetic_video", "media", t0);
  t0 = now_ns();
  workloads::encode_mjpeg_standalone(video);
  m["media.standalone_s"] = log.close("encode_mjpeg_standalone", "workloads", t0);

  // forward_dct_naive over every 8x8 block of the clip's first frame.
  const media::YuvFrame& f = video.frames.front();
  std::vector<std::array<uint8_t, media::kBlockSize>> blocks;
  const auto add_plane = [&blocks](const std::vector<uint8_t>& plane, int w,
                                   int h) {
    for (int by = 0; by < h / media::kBlockDim; ++by) {
      for (int bx = 0; bx < w / media::kBlockDim; ++bx) {
        blocks.emplace_back();
        media::extract_block(plane.data(), w, h, by, bx, blocks.back().data());
      }
    }
  };
  add_plane(f.y, f.width, f.height);
  add_plane(f.u, f.chroma_width(), f.chroma_height());
  add_plane(f.v, f.chroma_width(), f.chroma_height());
  double coeffs[media::kBlockSize];
  t0 = now_ns();
  for (const auto& block : blocks) {
    media::forward_dct_naive(block.data(), coeffs);
  }
  m["media.dct_us_per_block"] =
      log.close("forward_dct_naive", "media", t0) * 1e6 /
      static_cast<double>(blocks.size());

  t0 = now_ns();
  workloads::kmeans_sequential(kmeans_config(seed, kKmeansIterations));
  m["kmeans.sequential_s"] = log.close("kmeans_sequential", "workloads", t0);

  t0 = now_ns();
  stream_reference(seed, kStreamFrames + 1);
  m["stream.sequential_s"] = log.close("stream_reference", "bench", t0);
  return m;
}

// --- report -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = static_cast<uint32_t>(std::stoul(value()));
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() == "1";
    else if (key == "--out") a.out_dir = value();
    else if (key == "--commit") a.commit = value();
    else if (key == "--source-digest") a.source_digest = value();
    else if (key == "--corrupt-reference") a.corrupt = true;
    else throw std::invalid_argument("unknown argument " + key);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, SpanLog& log) {
  if (a.workload == "mjpeg_cif") {
    return std::make_unique<MjpegCif>(a.seed, a.corrupt, log);
  }
  if (a.workload == "kmeans_fine") {
    return std::make_unique<KmeansFine>(a.seed, a.corrupt, log);
  }
  if (a.workload == "stream_3node") {
    return std::make_unique<Stream3Node>(a.seed, a.corrupt, log);
  }
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

int run_bench(const Args& args) {
  SpanLog log;
  std::unique_ptr<Workload> workload = make_workload(args, log);
  if (workload->one_cpu()) pin_to_one_cpu();

  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> traced_wall;
  std::vector<double> probe;
  std::vector<Derived> derived;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool aborted = false;

  // Every repetition is verified and counted; the first is an untimed
  // warm-up, then repetitions run until the window closes (trace mode
  // alternates untraced and traced ones).
  const auto one = [&](int index, bool traced) {
    log.set_rep(index);
    Rep rep;
    try {
      workload->run(traced, log, rep);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "p2gbench: repetition %d failed: %s\n", index,
                   e.what());
      rep.failed = rep.attempted;
      aborted = true;
    }
    log.set_rep(-1);
    attempted += rep.attempted;
    failed += rep.failed;
    return rep;
  };
  one(0, false);
  // Peak RSS of a fresh process that has run the workload once.
  const double rss_mb = peak_rss_mb();
  const int64_t window_start = now_ns();
  const auto window_open = [&] {
    return ns_to_s(now_ns() - window_start) < args.seconds;
  };
  for (int index = 1;
       !aborted && (window_open() || wall.empty() ||
                    (args.trace && traced_wall.empty()));
       ++index) {
    const bool traced = args.trace && index % 2 == 0;
    const Rep rep = one(index, traced);
    if (aborted) break;
    if (traced) {
      traced_wall.push_back(rep.wall_s);
      derived.push_back(derive(*rep.trace));
    } else {
      setup.push_back(rep.setup_s);
      wall.push_back(rep.wall_s);
      cpu.push_back(rep.cpu_s);
      probe.push_back(host_probe_s());
    }
  }
  attempted = std::max<int64_t>(attempted, 1);  // a failed first repetition

  std::map<std::string, Metric> metrics;
  std::map<std::string, size_t> samples;
  // Host-normalized seconds (see host_probe_s), then the raw ones.
  const auto normalized = [&probe](const std::vector<double>& raw) {
    std::vector<double> out;
    for (size_t i = 0; i < raw.size(); ++i) {
      out.push_back(raw[i] * kProbeReferenceS / probe[i]);
    }
    return out;
  };
  const auto median_or_0 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const std::vector<double> wall_norm = normalized(wall);
  metrics["wall_s"] = {median_or_0(wall_norm), "s"};
  metrics["setup_s"] = {median_or_0(normalized(setup)), "s"};
  metrics["cpu_s"] = {median_or_0(normalized(cpu)), "s"};
  metrics["wall_raw_s"] = {median_or_0(wall), "s"};
  metrics["setup_raw_s"] = {median_or_0(setup), "s"};
  metrics["cpu_raw_s"] = {median_or_0(cpu), "s"};
  metrics["host_probe_s"] = {median_or_0(probe), "s"};
  metrics["peak_rss_mb"] = {rss_mb, "MB"};
  metrics["failed_frac"] = {static_cast<double>(failed) /
                                static_cast<double>(attempted),
                            "frac"};
  samples["wall_s"] = wall.size();
  const double tail = supported_percentile(wall.size());
  if (tail > 50.0) {
    char name[32];
    std::snprintf(name, sizeof(name), "wall_s_p%.0f", tail);
    metrics[name] = {percentile(wall_norm, tail), "s"};
    samples[name] = wall.size();
  }

  bool layers_ok = true;
  std::string check_json = "null";
  if (args.trace && !derived.empty()) {
    // Per-layer metric = median over the traced repetitions.
    static const std::map<std::string, const char*> kUnits = {
        {"core.instances", "count"},
        {"core.work_items", "count"},
        {"core.body_us_per_instance", "us"},
        {"core.dispatch_us_per_item", "us"},
        {"core.framework_us_per_instance", "us"},
        {"core.worker_busy_frac", "frac"},
        {"core.analyzer_busy_frac", "frac"},
        {"core.analyzer_us_per_event", "us"},
        {"core.events_per_instance", "ratio"},
        {"core.queue_wait_us_p50", "us"},
        {"core.queue_wait_us_p99", "us"},
        {"core.age_latency_late_over_early", "ratio"},
        {"critpath.total_ms_p50", "ms"},
        {"critpath.total_ms_p99", "ms"},
        {"critpath.queue_ms_p50", "ms"},
        {"critpath.exec_ms_p50", "ms"},
        {"critpath.wire_share", "frac"},
        {"critpath.store_share", "frac"},
        {"dist.messages", "count"},
        {"dist.bytes_per_frame", "B"},
    };
    for (const auto& [name, unit] : kUnits) {
      std::vector<double> v;
      for (const Derived& d : derived) v.push_back(d.metrics.at(name));
      metrics[name] = {median(v), unit};
    }
    for (const auto& [name, n] : derived.front().samples) samples[name] = n;
    metrics["obs.trace_overhead_frac"] = {
        median(traced_wall) / median(wall) - 1.0, "frac"};
    samples["obs.trace_overhead_frac"] = traced_wall.size();
    for (const auto& [name, value] : measure_baselines(args.seed, log)) {
      metrics[name] = {value, name.find("_us_") != std::string::npos ? "us"
                                                                       : "s"};
    }

    std::ostringstream cj;
    cj << "{\"tolerance\":" << json_number(kLayerTolerance) << ",\"reps\":[";
    for (size_t i = 0; i < derived.size(); ++i) {
      const LayerCheck& c = derived[i].check;
      layers_ok = layers_ok && c.ok();
      cj << (i ? "," : "") << "{\"workers_x_wall_ns\":"
         << json_number(c.workers_x_wall_ns)
         << ",\"busy_ns\":" << json_number(c.busy_ns)
         << ",\"idle_ns\":" << json_number(c.idle_ns)
         << ",\"final_wait_ns\":" << json_number(c.final_wait_ns)
         << ",\"accounted_err\":" << json_number(c.accounted_err())
         << ",\"body_ns\":" << json_number(c.body_ns)
         << ",\"dispatch_ns\":" << json_number(c.dispatch_ns)
         << ",\"other_ns\":" << json_number(c.other_ns())
         << ",\"worker_span_ns\":" << json_number(c.worker_span_ns)
         << ",\"span_err\":" << json_number(c.span_err())
         << ",\"ok\":" << (c.ok() ? "true" : "false") << "}";
    }
    cj << "],\"ok\":" << (layers_ok ? "true" : "false") << "}";
    check_json = cj.str();
  }

  const bool correct = failed == 0 && !aborted;

  // Human-readable table.
  std::printf("p2gbench %s seed=%u trace=%d workers/node=%d nodes=%d "
              "reps=%zu traced_reps=%zu nproc=%u cpus=%u build=%s "
              "compiler=%s commit=%s\n",
              workload->name(), args.seed, args.trace ? 1 : 0,
              workload->workers_per_node(), workload->nodes(), wall.size(),
              traced_wall.size(), std::thread::hardware_concurrency(),
              allowed_cpus(), P2G_BENCH_BUILD_TYPE, P2G_BENCH_COMPILER,
              args.commit.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit);
  }
  if (args.trace) {
    std::printf("  layer sum check (tolerance %.0f%%): %s\n",
                kLayerTolerance * 100, layers_ok ? "ok" : "FAILED");
  }
  std::printf("  correct=%s attempted=%" PRId64 " failed=%" PRId64 "\n",
              correct ? "true" : "false", attempted, failed);

  // Full report and the driver's own spans.
  std::ostringstream js;
  js << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    js << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  js << "}";
  const std::string result = js.str() + "}";
  js << ",\"meta\":{\"workload\":" << json_string(workload->name())
     << ",\"params\":" << json_string(workload->params())
     << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"seconds\":" << json_number(args.seconds)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpus\":" << allowed_cpus()
     << ",\"build_type\":" << json_string(P2G_BENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(P2G_BENCH_COMPILER)
     << ",\"commit\":" << json_string(args.commit)
     << ",\"source_digest\":" << json_string(args.source_digest)
     << ",\"nodes\":" << workload->nodes()
     << ",\"workers_per_node\":" << workload->workers_per_node()
     << ",\"reps\":" << wall.size() << ",\"traced_reps\":" << traced_wall.size()
     << ",\"samples\":{";
  first = true;
  for (const auto& [name, n] : samples) {
    js << (first ? "" : ",") << json_string(name) << ":{\"n\":" << n
       << ",\"highest_supported_percentile\":"
       << json_number(supported_percentile(n)) << "}";
    first = false;
  }
  js << "},\"repetitions\":[";
  for (size_t i = 0; i < wall.size(); ++i) {
    js << (i ? "," : "") << "{\"wall_raw_s\":" << json_number(wall[i])
       << ",\"cpu_raw_s\":" << json_number(cpu[i])
       << ",\"setup_raw_s\":" << json_number(setup[i])
       << ",\"host_probe_s\":" << json_number(probe[i]) << "}";
  }
  js << "]},\"layer_check\":" << check_json << "}";
  const std::string stem = args.out_dir + "/" + workload->name() + "_seed" +
                           std::to_string(args.seed) + "_trace" +
                           (args.trace ? "1" : "0");
  std::ofstream(stem + ".json", std::ios::trunc) << js.str() << "\n";
  log.write(stem + "_spans.json");

  std::printf("RESULT %s\n", result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_bench(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2gbench: %s\n", e.what());
    return 2;
  }
}
