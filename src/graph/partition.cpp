#include "graph/partition.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace p2g::graph {

double Partition::cut_weight(const FinalGraph& graph) const {
  double cut = 0.0;
  for (const FinalGraph::Edge& e : graph.edges) {
    if (e.from == e.to) continue;  // self-loops (aging cycles) never cut
    if (assignment[static_cast<size_t>(e.from)] !=
        assignment[static_cast<size_t>(e.to)]) {
      cut += e.weight;
    }
  }
  return cut;
}

std::vector<double> Partition::part_weights(const FinalGraph& graph) const {
  std::vector<double> weights(static_cast<size_t>(parts), 0.0);
  for (size_t i = 0; i < assignment.size(); ++i) {
    weights[static_cast<size_t>(assignment[i])] += graph.node_weights[i];
  }
  return weights;
}

double Partition::imbalance(const FinalGraph& graph) const {
  const std::vector<double> weights = part_weights(graph);
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total == 0.0) return 1.0;
  const double ideal = total / static_cast<double>(parts);
  return *std::max_element(weights.begin(), weights.end()) / ideal;
}

Partition greedy_partition(const FinalGraph& graph, int parts) {
  P2G_CHECK_ARGUMENT(parts >= 1, "parts must be >= 1");
  const size_t n = graph.kernel_count();
  Partition partition;
  partition.parts = parts;
  partition.assignment.assign(n, -1);

  if (parts == 1 || n == 0) {
    std::fill(partition.assignment.begin(), partition.assignment.end(), 0);
    return partition;
  }

  // Undirected adjacency with accumulated edge weights.
  std::vector<std::vector<std::pair<size_t, double>>> adjacency(n);
  for (const FinalGraph::Edge& e : graph.edges) {
    if (e.from == e.to) continue;
    adjacency[static_cast<size_t>(e.from)].emplace_back(
        static_cast<size_t>(e.to), e.weight);
    adjacency[static_cast<size_t>(e.to)].emplace_back(
        static_cast<size_t>(e.from), e.weight);
  }

  const double total = std::accumulate(graph.node_weights.begin(),
                                       graph.node_weights.end(), 0.0);
  const double budget = total / static_cast<double>(parts);

  // Kernel indices by decreasing weight (heavy seeds first).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return graph.node_weights[a] > graph.node_weights[b];
  });

  size_t next_seed = 0;
  for (int part = 0; part < parts; ++part) {
    // Seed: heaviest unassigned kernel.
    while (next_seed < n &&
           partition.assignment[order[next_seed]] != -1) {
      ++next_seed;
    }
    if (next_seed >= n) break;
    const size_t seed = order[next_seed];
    partition.assignment[seed] = part;
    double weight = graph.node_weights[seed];

    // Grow along the strongest frontier edge until the budget is reached.
    while (weight < budget) {
      double best_gain = -1.0;
      size_t best_node = n;
      for (size_t v = 0; v < n; ++v) {
        if (partition.assignment[v] != part) continue;
        for (const auto& [u, w] : adjacency[v]) {
          if (partition.assignment[u] != -1) continue;
          if (w > best_gain) {
            best_gain = w;
            best_node = u;
          }
        }
      }
      if (best_node == n) break;  // no frontier left
      partition.assignment[best_node] = part;
      weight += graph.node_weights[best_node];
    }
  }

  // Leftovers (disconnected kernels): lightest part wins.
  for (size_t v = 0; v < n; ++v) {
    if (partition.assignment[v] != -1) continue;
    const std::vector<double> weights = partition.part_weights(graph);
    // part_weights skips unassigned nodes only if assignment is valid;
    // temporarily treat -1 as part 0 is wrong, so compute manually:
    int lightest = 0;
    double lightest_weight = std::numeric_limits<double>::max();
    for (int p = 0; p < parts; ++p) {
      double pw = 0.0;
      for (size_t u = 0; u < n; ++u) {
        if (partition.assignment[u] == p) pw += graph.node_weights[u];
      }
      if (pw < lightest_weight) {
        lightest_weight = pw;
        lightest = p;
      }
    }
    partition.assignment[v] = lightest;
  }
  return partition;
}

void kl_refine(const FinalGraph& graph, Partition& partition, int max_passes,
               double max_imbalance) {
  const size_t n = graph.kernel_count();
  if (n == 0 || partition.parts <= 1) return;

  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (size_t v = 0; v < n; ++v) {
      const int current = partition.assignment[v];
      // Connection weight of v to each part.
      std::vector<double> connection(static_cast<size_t>(partition.parts),
                                     0.0);
      for (const FinalGraph::Edge& e : graph.edges) {
        if (e.from == e.to) continue;
        if (static_cast<size_t>(e.from) == v) {
          connection[static_cast<size_t>(
              partition.assignment[static_cast<size_t>(e.to)])] += e.weight;
        } else if (static_cast<size_t>(e.to) == v) {
          connection[static_cast<size_t>(partition.assignment[
              static_cast<size_t>(e.from)])] += e.weight;
        }
      }
      // Best target part by gain.
      int best_part = current;
      double best_gain = 0.0;
      for (int p = 0; p < partition.parts; ++p) {
        if (p == current) continue;
        const double gain = connection[static_cast<size_t>(p)] -
                            connection[static_cast<size_t>(current)];
        if (gain > best_gain) {
          best_gain = gain;
          best_part = p;
        }
      }
      if (best_part == current) continue;

      partition.assignment[v] = best_part;
      if (partition.imbalance(graph) > max_imbalance) {
        partition.assignment[v] = current;  // would unbalance, revert
      } else {
        improved = true;
      }
    }
    if (!improved) break;
  }
}

Partition partition_graph(const FinalGraph& graph, int parts) {
  Partition partition = greedy_partition(graph, parts);
  kl_refine(graph, partition);
  return partition;
}

}  // namespace p2g::graph
