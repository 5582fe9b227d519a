// p2gnode: one process of a real P2G cluster — and the master that
// launches one.
//
// Node mode (what the process launcher execs, one process per node):
//   p2gnode --node NAME --connect PORT --workload W [--workers K]
//           [--heartbeat-ms MS] [--crash-after-stores N]
//           [--shm-arena FD --shm-peer PEER:AFD:TXFD:RXFD ...]
//
// Master mode (dist::Master with net::ProcessLauncher: forks/execs N node
// processes of itself):
//   p2gnode --master --workload W [--nodes N] [--workers K] [--shm]
//           [--json PATH] [--node-binary PATH] [--watchdog-ms MS]
//           [--crash NODE:STORES]
//
// --json writes a machine-readable run summary (frames, copied bytes,
// bytes_copied_per_frame, captured-output checksum) consumed by
// scripts/soak.sh and scripts/bench_report.sh. --crash makes NODE exit
// right after its STORES-th committed store.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "net/cluster.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  p2gnode --master --workload W [--nodes N] [--workers K] [--shm]\n"
      "          [--json PATH] [--node-binary PATH] [--watchdog-ms MS]\n"
      "          [--crash NODE:STORES]\n"
      "  p2gnode --node NAME --connect PORT --workload W [--workers K]\n"
      "          [--heartbeat-ms MS] [--crash-after-stores N]\n"
      "          [--shm-arena FD --shm-peer PEER:AFD:TXFD:RXFD ...]\n");
  return 2;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// FNV-1a over every captured payload in deterministic (field, age)
/// order: one number that must match between transports.
uint64_t capture_checksum(const p2g::dist::FieldCaptures& captured) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const auto& [field, ages] : captured) {
    mix(field.data(), field.size());
    for (const auto& [age, payload] : ages) {
      mix(&age, sizeof(age));
      mix(payload.data(), payload.size());
    }
  }
  return hash;
}

int run_master(const p2g::net::ProcessLaunch& launch, int nodes, int workers,
               std::chrono::milliseconds watchdog,
               const std::string& json_path) {
  const p2g::net::WorkloadSpec* spec =
      p2g::net::find_workload(launch.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "p2gnode: unknown workload '%s'\n",
                 launch.workload.c_str());
    return 2;
  }
  p2g::dist::MasterOptions options = spec->master_options();
  options.nodes = nodes;
  options.workers_per_node = workers;
  options.watchdog = watchdog;
  p2g::net::ProcessLauncher launcher(launch);
  const p2g::dist::DistributedRunReport report =
      p2g::dist::Master(std::move(options)).run(launcher);
  const std::vector<std::string>& dead_nodes = report.ft.dead_nodes;

  std::printf("workload=%s nodes=%d transport=%s\n",
              launch.workload.c_str(), nodes, launch.shm ? "shm" : "socket");
  std::printf("frames=%lld copied_bytes=%lld bytes_copied_per_frame=%.2f\n",
              static_cast<long long>(report.data_frames),
              static_cast<long long>(report.copied_bytes),
              report.bytes_copied_per_frame);
  std::printf("captured_fields=%zu checksum=%016llx wall_s=%.3f\n",
              report.captured.size(),
              static_cast<unsigned long long>(
                  capture_checksum(report.captured)),
              report.wall_s);
  if (report.timed_out) std::printf("TIMED OUT\n");
  for (const std::string& name : dead_nodes) {
    std::printf("dead: %s\n", name.c_str());
  }
  for (const auto& [name, err] : report.node_errors) {
    std::printf("error %s: %s\n", name.c_str(), err.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os.good()) {
      std::fprintf(stderr, "p2gnode: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(
                      capture_checksum(report.captured)));
    os << "{\n"
       << "  \"workload\": \"" << launch.workload << "\",\n"
       << "  \"nodes\": " << nodes << ",\n"
       << "  \"transport\": \"" << (launch.shm ? "shm" : "socket")
       << "\",\n"
       << "  \"frames\": " << report.data_frames << ",\n"
       << "  \"copied_bytes\": " << report.copied_bytes << ",\n"
       << "  \"bytes_copied_per_frame\": " << report.bytes_copied_per_frame
       << ",\n"
       << "  \"dead_nodes\": " << dead_nodes.size() << ",\n"
       << "  \"timed_out\": " << (report.timed_out ? "true" : "false")
       << ",\n"
       << "  \"checksum\": \"" << checksum << "\",\n"
       << "  \"wall_s\": " << report.wall_s << "\n"
       << "}\n";
  }

  bool ok = !report.timed_out && dead_nodes.empty();
  for (const auto& [name, node_ok] : report.node_ok) ok = ok && node_ok;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool master = false;
  std::string json_path;
  p2g::net::ProcessLaunch launch;
  int nodes = 2;
  std::chrono::milliseconds watchdog{30000};
  p2g::net::NodeConfig node;
  bool have_node_name = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "p2gnode: '%s' needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--master") {
      master = true;
    } else if (arg == "--node") {
      node.name = value();
      have_node_name = true;
    } else if (arg == "--connect") {
      node.port = static_cast<uint16_t>(std::stoi(value()));
    } else if (arg == "--workload") {
      launch.workload = node.workload = value();
    } else if (arg == "--workers") {
      node.workers = std::stoi(value());
    } else if (arg == "--nodes") {
      nodes = std::stoi(value());
    } else if (arg == "--shm") {
      launch.shm = true;
    } else if (arg == "--crash") {
      const auto parts = split(value(), ':');
      if (parts.size() != 2) return usage();
      launch.crash_node = parts[0];
      launch.crash_after_stores = std::stoi(parts[1]);
    } else if (arg == "--crash-after-stores") {
      node.crash_after_stores = std::stoi(value());
    } else if (arg == "--heartbeat-ms") {
      node.heartbeat_period_ms = std::stoll(value());
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--node-binary") {
      launch.node_binary = value();
    } else if (arg == "--watchdog-ms") {
      watchdog = std::chrono::milliseconds(std::stoll(value()));
    } else if (arg == "--shm-arena") {
      node.arena_fd = std::stoi(value());
    } else if (arg == "--shm-peer") {
      const auto parts = split(value(), ':');
      if (parts.size() != 4) return usage();
      node.peers.push_back({parts[0], std::stoi(parts[1]), std::stoi(parts[2]),
                            std::stoi(parts[3])});
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      std::fprintf(stderr, "p2gnode: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  if (master) {
    if (launch.node_binary.empty()) {
      // Default: this binary doubles as the node binary.
      char self[4096];
      const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
      if (n <= 0) {
        std::fprintf(stderr, "p2gnode: cannot resolve /proc/self/exe\n");
        return 1;
      }
      self[n] = '\0';
      launch.node_binary = self;
    }
    return run_master(launch, nodes, node.workers, watchdog, json_path);
  }
  if (!have_node_name || node.port == 0 || node.workload.empty()) {
    return usage();
  }
  return p2g::net::run_node(node);
}
