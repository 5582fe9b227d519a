// p2gnode: one process of a real P2G cluster — and the master that
// launches one.
//
// Master mode (dist::Master with net::ProcessLauncher: forks/execs N node
// processes of itself and ships them the kernel-language program):
//   p2gnode --master --program FILE.p2g [--max-age N] [--nodes N]
//           [--workers K] [--shm] [--json PATH] [--node-binary PATH]
//           [--watchdog-ms MS] [--crash NODE:STORES]
//
// Node mode (what the process launcher execs, one process per node; the
// program and run options arrive from the master in kAssign):
//   p2gnode --node NAME --connect PORT [--workers K]
//           [--heartbeat-ms MS] [--crash-after-stores N]
//           [--shm-arena FD --shm-peer PEER:AFD:TXFD:RXFD ...]
//
// The master captures every field of the program. --json writes a
// machine-readable run summary (program, frames, copied bytes, checksum)
// for scripts/soak.sh and scripts/bench_report.sh. --crash makes NODE
// exit right after its STORES-th committed store. Bad arguments (a
// malformed number, an unreadable or invalid program, options the master
// rejects) print a message and exit 2.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lang/driver.h"
#include "net/cluster.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  p2gnode --master --program FILE.p2g [--max-age N] [--nodes N]\n"
      "          [--workers K] [--shm] [--json PATH] [--node-binary PATH]\n"
      "          [--watchdog-ms MS] [--crash NODE:STORES]\n"
      "  p2gnode --node NAME --connect PORT [--workers K]\n"
      "          [--heartbeat-ms MS] [--crash-after-stores N]\n"
      "          [--shm-arena FD --shm-peer PEER:AFD:TXFD:RXFD ...]\n");
  return 2;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  for (std::string part; std::getline(in, part, sep);) parts.push_back(part);
  return parts;
}

/// Parses a whole decimal integer that fits T; throws
/// std::invalid_argument naming the text otherwise.
template <typename T>
T integer(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 ||
      value < std::numeric_limits<T>::min() ||
      value > std::numeric_limits<T>::max()) {
    throw std::invalid_argument("'" + text + "' is not a valid integer");
  }
  return static_cast<T>(value);
}

/// FNV-1a over every captured payload in deterministic (field, age)
/// order, in hex: one number that must match between transports.
std::string capture_checksum(const p2g::dist::FieldCaptures& captured) {
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
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// Master options running `source` on `nodes` nodes, capturing every
/// field of the program.
p2g::dist::MasterOptions master_options(const std::string& source,
                                        std::optional<p2g::Age> max_age,
                                        int nodes, int workers,
                                        std::chrono::milliseconds watchdog) {
  p2g::dist::MasterOptions options;
  options.program_factory = [source] {
    return p2g::lang::compile_source(source).program;
  };
  const p2g::Program program = options.program_factory();
  for (const p2g::FieldDecl& field : program.fields()) {
    options.capture_fields.push_back(field.name);
  }
  options.base_options.max_age = max_age;
  options.nodes = nodes;
  options.workers_per_node = workers;
  options.watchdog = watchdog;
  return options;
}

int print_report(const p2g::dist::DistributedRunReport& report,
                 const std::string& program, int nodes, bool shm,
                 const std::string& json_path) {
  const std::vector<std::string>& dead_nodes = report.ft.dead_nodes;
  std::printf("program=%s nodes=%d transport=%s\n", program.c_str(), nodes,
              shm ? "shm" : "socket");
  std::printf("frames=%lld copied_bytes=%lld bytes_copied_per_frame=%.2f\n",
              static_cast<long long>(report.data_frames),
              static_cast<long long>(report.copied_bytes),
              report.bytes_copied_per_frame);
  const std::string checksum = capture_checksum(report.captured);
  std::printf("captured_fields=%zu checksum=%s wall_s=%.3f\n",
              report.captured.size(), checksum.c_str(), report.wall_s);
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
    os << "{\n"
       << "  \"program\": \"" << program << "\",\n"
       << "  \"nodes\": " << nodes << ",\n"
       << "  \"transport\": \"" << (shm ? "shm" : "socket")
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
  std::string program_path;
  std::optional<p2g::Age> max_age;
  std::string json_path;
  p2g::net::ProcessLaunch launch;
  int nodes = 2;
  std::chrono::milliseconds watchdog{30000};
  p2g::net::NodeConfig node;

  try {
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
      } else if (arg == "--connect") {
        node.port = integer<uint16_t>(value());
      } else if (arg == "--program") {
        program_path = value();
      } else if (arg == "--max-age") {
        max_age = integer<p2g::Age>(value());
      } else if (arg == "--workers") {
        node.workers = integer<int>(value());
      } else if (arg == "--nodes") {
        nodes = integer<int>(value());
      } else if (arg == "--shm") {
        launch.shm = true;
      } else if (arg == "--crash") {
        const auto parts = split(value(), ':');
        if (parts.size() != 2) return usage();
        launch.crash_node = parts[0];
        launch.crash_after_stores = integer<int>(parts[1]);
      } else if (arg == "--crash-after-stores") {
        node.crash_after_stores = integer<int>(value());
      } else if (arg == "--heartbeat-ms") {
        node.heartbeat_period_ms = integer<int64_t>(value());
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--node-binary") {
        launch.node_binary = value();
      } else if (arg == "--watchdog-ms") {
        watchdog = std::chrono::milliseconds(integer<int64_t>(value()));
      } else if (arg == "--shm-arena") {
        node.arena_fd = integer<int>(value());
      } else if (arg == "--shm-peer") {
        const auto parts = split(value(), ':');
        if (parts.size() != 4) return usage();
        node.peers.push_back({parts[0], integer<int>(parts[1]),
                              integer<int>(parts[2]), integer<int>(parts[3])});
      } else if (arg == "--help" || arg == "-h") {
        return usage();
      } else {
        std::fprintf(stderr, "p2gnode: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "p2gnode: %s\n", e.what());
    return usage();
  }

  if (!master) {
    if (node.name.empty() || node.port == 0) return usage();
    return p2g::net::run_node(node);
  }
  if (program_path.empty()) {
    std::fprintf(stderr, "p2gnode: --master needs --program\n");
    return usage();
  }
  // By default this binary doubles as the node binary.
  if (launch.node_binary.empty()) launch.node_binary = "/proc/self/exe";
  // Everything the run is set up from is checked before any fork.
  std::optional<p2g::net::ProcessLauncher> launcher;
  std::optional<p2g::dist::Master> cluster;
  try {
    launch.source = p2g::lang::read_file(program_path);
    launcher.emplace(launch);
    cluster.emplace(master_options(launch.source, max_age, nodes,
                                   node.workers, watchdog));
  } catch (const p2g::Error& e) {
    std::fprintf(stderr, "p2gnode: %s\n", e.what());
    return 2;
  }
  return print_report(cluster->run(*launcher), program_path, nodes,
                      launch.shm, json_path);
}
