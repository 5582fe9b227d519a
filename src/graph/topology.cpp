#include "graph/topology.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/error.h"

namespace p2g::graph {

double NodeTopology::compute_capacity() const {
  double total = 0.0;
  for (const ProcessingUnit& unit : units) {
    total += unit.relative_speed;
  }
  return total;
}

NodeTopology NodeTopology::local_machine(const std::string& name) {
  NodeTopology node;
  node.name = name;
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  node.units.assign(cores, ProcessingUnit{});
  // A simple shared bus between all cores.
  for (size_t i = 1; i < node.units.size(); ++i) {
    node.buses.push_back(Link{0, i, 25600.0, 0.1});
  }
  return node;
}

void GlobalTopology::add_node(NodeTopology node) {
  for (NodeTopology& existing : nodes_) {
    if (existing.name == node.name) {
      existing = std::move(node);
      return;
    }
  }
  nodes_.push_back(std::move(node));
}

bool GlobalTopology::remove_node(const std::string& name) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) {
      nodes_.erase(nodes_.begin() + static_cast<ptrdiff_t>(i));
      // Drop interconnects touching the node and fix up indices.
      std::vector<Link> kept;
      for (const Link& link : interconnects_) {
        if (link.a == i || link.b == i) continue;
        Link fixed = link;
        if (fixed.a > i) --fixed.a;
        if (fixed.b > i) --fixed.b;
        kept.push_back(fixed);
      }
      interconnects_ = std::move(kept);
      return true;
    }
  }
  return false;
}

void GlobalTopology::connect(size_t a, size_t b, double bandwidth_mbps,
                             double latency_us) {
  P2G_CHECK_ARGUMENT(a < nodes_.size() && b < nodes_.size() && a != b,
                     "invalid interconnect endpoints");
  interconnects_.push_back(Link{a, b, bandwidth_mbps, latency_us});
}

double GlobalTopology::total_compute() const {
  double total = 0.0;
  for (const NodeTopology& node : nodes_) {
    total += node.compute_capacity();
  }
  return total;
}

std::vector<size_t> GlobalTopology::place_partitions(
    const std::vector<double>& part_weights) const {
  P2G_CHECK_ARGUMENT(!nodes_.empty(), "cannot place on an empty topology");
  // Sort partitions by weight (descending) and nodes by capacity
  // (descending); assign round-robin so the heaviest work lands on the
  // fastest hardware.
  std::vector<size_t> part_order(part_weights.size());
  std::iota(part_order.begin(), part_order.end(), 0);
  std::sort(part_order.begin(), part_order.end(), [&](size_t x, size_t y) {
    return part_weights[x] > part_weights[y];
  });
  std::vector<size_t> node_order(nodes_.size());
  std::iota(node_order.begin(), node_order.end(), 0);
  std::sort(node_order.begin(), node_order.end(), [&](size_t x, size_t y) {
    return nodes_[x].compute_capacity() > nodes_[y].compute_capacity();
  });

  std::vector<size_t> placement(part_weights.size(), 0);
  std::vector<double> load(nodes_.size(), 0.0);
  for (const size_t part : part_order) {
    // Least-loaded node relative to its capacity.
    size_t best = node_order[0];
    double best_ratio = std::numeric_limits<double>::max();
    for (const size_t node : node_order) {
      const double capacity =
          std::max(1e-9, nodes_[node].compute_capacity());
      const double ratio = load[node] / capacity;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = node;
      }
    }
    placement[part] = best;
    load[best] += part_weights[part];
  }
  return placement;
}

std::string GlobalTopology::to_dot() const {
  std::ostringstream os;
  os << "graph topology {\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    os << "  node" << i << " [label=\"" << nodes_[i].name << " ("
       << nodes_[i].units.size() << " units, cap="
       << nodes_[i].compute_capacity() << ")\", shape=box];\n";
  }
  for (const Link& link : interconnects_) {
    os << "  node" << link.a << " -- node" << link.b << " [label=\""
       << link.bandwidth_mbps << " Mbps\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace p2g::graph
