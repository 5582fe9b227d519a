// The implicit static dependency graphs of a P2G program (Figs. 2 and 3).
//
// The *intermediate* graph is bipartite: kernel vertices connect to field
// vertices through their store statements, fields connect to kernels
// through fetch statements. Merging the edges through each field vertex
// yields the *final* graph over kernels only — the input the high-level
// scheduler partitions across the topology (§IV). Instrumentation data
// weights the final graph for repartitioning.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/instrumentation.h"
#include "core/program.h"

namespace p2g::graph {

/// Bipartite kernel/field graph (Fig. 2). Derived purely from the fetch
/// and store statements — no execution needed.
struct IntermediateGraph {
  struct Node {
    enum class Kind { kKernel, kField };
    Kind kind;
    int id;  ///< KernelId or FieldId
    std::string name;
  };
  struct Edge {
    size_t from;  ///< node index
    size_t to;    ///< node index
    /// Age offset of the statement (+1 edges close aging cycles).
    int64_t age_offset;
  };

  std::vector<Node> nodes;
  std::vector<Edge> edges;

  static IntermediateGraph from_program(const Program& program);

  size_t kernel_node(KernelId id) const;
  size_t field_node(FieldId id) const;

  /// Graphviz rendering (kernels as boxes, fields as ellipses).
  std::string to_dot() const;
};

/// Kernel-only graph with field vertices merged out (Fig. 3).
struct FinalGraph {
  struct Edge {
    KernelId from;
    KernelId to;
    FieldId via;          ///< the merged field
    int64_t age_offset;   ///< producer store offset minus consumer fetch
    double weight = 1.0;  ///< communication weight (instrumented traffic)
    /// True when both the store and the fetch use relative ages — the pair
    /// forms a per-age recurrence. Constant ages on either side touch one
    /// fixed age only and cannot carry an aging cycle.
    bool relative = true;
  };

  std::vector<std::string> kernel_names;  ///< indexed by KernelId
  std::vector<double> node_weights;       ///< compute weight per kernel
  std::vector<Edge> edges;

  static FinalGraph from_program(const Program& program);

  size_t kernel_count() const { return kernel_names.size(); }

  /// Weights nodes by total kernel time and edges by the producer's
  /// instance count (a proxy for traffic volume across the field), from a
  /// profiling run — the paper's "weighted final graph ... repartitioned".
  void apply_instrumentation(const InstrumentationReport& report);

  /// True when the graph has a directed cycle ignoring age offsets > 0
  /// (aging cycles are legal; a zero-offset cycle would deadlock).
  bool has_zero_offset_cycle() const;

  std::string to_dot() const;
};

/// For every field (indexed by FieldId), the kernels that need its stores
/// wherever they run: its consumers and, transitively, the readers of
/// every field with an elementwise producer binding an index variable
/// through it — sealing an age of that field takes the producer's index
/// domain, i.e. the binding field's sealed extents (core/dependency.h). A
/// distributed execution node forwards each field to its readers' nodes.
std::vector<std::set<KernelId>> field_readers(const Program& program);

}  // namespace p2g::graph
