#include "graph/static_graph.h"

#include <functional>
#include <map>
#include <sstream>

#include "common/error.h"

namespace p2g::graph {

IntermediateGraph IntermediateGraph::from_program(const Program& program) {
  IntermediateGraph g;
  for (const KernelDef& k : program.kernels()) {
    g.nodes.push_back(Node{Node::Kind::kKernel, k.id, k.name});
  }
  for (const FieldDecl& f : program.fields()) {
    g.nodes.push_back(Node{Node::Kind::kField, f.id, f.name});
  }
  for (const KernelDef& k : program.kernels()) {
    for (const FetchDecl& f : k.fetches) {
      g.edges.push_back(Edge{g.field_node(f.field), g.kernel_node(k.id),
                             f.age.kind == AgeExpr::Kind::kRelative
                                 ? f.age.value
                                 : 0});
    }
    for (const StoreDecl& s : k.stores) {
      g.edges.push_back(Edge{g.kernel_node(k.id), g.field_node(s.field),
                             s.age.kind == AgeExpr::Kind::kRelative
                                 ? s.age.value
                                 : 0});
    }
  }
  return g;
}

size_t IntermediateGraph::kernel_node(KernelId id) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == Node::Kind::kKernel && nodes[i].id == id) return i;
  }
  internal_error("kernel node not found");
}

size_t IntermediateGraph::field_node(FieldId id) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == Node::Kind::kField && nodes[i].id == id) return i;
  }
  internal_error("field node not found");
}

std::string IntermediateGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph intermediate {\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const bool kernel = nodes[i].kind == Node::Kind::kKernel;
    os << "  n" << i << " [label=\"" << nodes[i].name << "\", shape="
       << (kernel ? "box" : "ellipse") << "];\n";
  }
  for (const Edge& e : edges) {
    os << "  n" << e.from << " -> n" << e.to;
    if (e.age_offset != 0) {
      os << " [label=\"age+" << e.age_offset << "\"]";
    }
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

FinalGraph FinalGraph::from_program(const Program& program) {
  FinalGraph g;
  for (const KernelDef& k : program.kernels()) {
    g.kernel_names.push_back(k.name);
    g.node_weights.push_back(1.0);
  }
  // Merge through each field: every (producer store, consumer fetch) pair
  // becomes a direct kernel->kernel edge, deduplicated per field pair by
  // keeping the *minimum* age offset (the tightest dependency). Keeping
  // the first pair instead would let an aging pair shadow a zero-offset
  // pair between the same kernels and hide a zero-offset cycle.
  std::map<std::tuple<KernelId, KernelId, FieldId>, size_t> seen;
  for (const FieldDecl& f : program.fields()) {
    for (const Program::Use& producer : program.producers_of(f.id)) {
      const StoreDecl& s =
          program.kernel(producer.kernel).stores[producer.statement];
      for (const Program::Use& consumer : program.consumers_of(f.id)) {
        const FetchDecl& fd =
            program.kernel(consumer.kernel).fetches[consumer.statement];
        const int64_t offset =
            (s.age.kind == AgeExpr::Kind::kRelative ? s.age.value : 0) -
            (fd.age.kind == AgeExpr::Kind::kRelative ? fd.age.value : 0);
        const bool relative = s.age.kind == AgeExpr::Kind::kRelative &&
                              fd.age.kind == AgeExpr::Kind::kRelative;
        const auto key =
            std::make_tuple(producer.kernel, consumer.kernel, f.id);
        const auto it = seen.find(key);
        if (it == seen.end()) {
          seen.emplace(key, g.edges.size());
          g.edges.push_back(Edge{producer.kernel, consumer.kernel, f.id,
                                 offset, 1.0, relative});
        } else if (offset < g.edges[it->second].age_offset) {
          g.edges[it->second].age_offset = offset;
          g.edges[it->second].relative = relative;
        }
      }
    }
  }
  return g;
}

void FinalGraph::apply_instrumentation(const InstrumentationReport& report) {
  for (size_t i = 0; i < kernel_names.size(); ++i) {
    if (const KernelStats* stats = report.find(kernel_names[i])) {
      node_weights[i] =
          std::max(1.0, static_cast<double>(stats->kernel_ns) / 1e3);
    }
  }
  for (Edge& e : edges) {
    const KernelStats* stats =
        report.find(kernel_names[static_cast<size_t>(e.from)]);
    if (stats != nullptr) {
      e.weight = std::max(1.0, static_cast<double>(stats->instances));
    }
  }
}

bool FinalGraph::has_zero_offset_cycle() const {
  // DFS over zero-offset edges only.
  std::vector<std::vector<size_t>> adjacency(kernel_count());
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].age_offset == 0) {
      adjacency[static_cast<size_t>(edges[i].from)].push_back(i);
    }
  }
  enum class State { kUnvisited, kInProgress, kDone };
  std::vector<State> state(kernel_count(), State::kUnvisited);
  bool cycle = false;
  std::function<void(size_t)> dfs = [&](size_t node) {
    state[node] = State::kInProgress;
    for (size_t ei : adjacency[node]) {
      const auto next = static_cast<size_t>(edges[ei].to);
      if (state[next] == State::kInProgress) {
        cycle = true;
      } else if (state[next] == State::kUnvisited) {
        dfs(next);
      }
      if (cycle) break;
    }
    state[node] = State::kDone;
  };
  for (size_t n = 0; n < kernel_count() && !cycle; ++n) {
    if (state[n] == State::kUnvisited) dfs(n);
  }
  return cycle;
}

std::string FinalGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph final {\n";
  for (size_t i = 0; i < kernel_names.size(); ++i) {
    os << "  k" << i << " [label=\"" << kernel_names[i] << " ("
       << node_weights[i] << ")\", shape=box];\n";
  }
  for (const Edge& e : edges) {
    os << "  k" << e.from << " -> k" << e.to << " [label=\"w=" << e.weight;
    if (e.age_offset != 0) os << ", age+" << e.age_offset;
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::vector<std::set<KernelId>> field_readers(const Program& program) {
  std::vector<std::set<KernelId>> readers(program.fields().size());
  for (const FieldDecl& f : program.fields()) {
    for (const Program::Use& use : program.consumers_of(f.id)) {
      readers[static_cast<size_t>(f.id)].insert(use.kernel);
    }
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const KernelDef& producer : program.kernels()) {
      for (const StoreDecl& store : producer.stores) {
        if (store.slice.is_whole()) continue;
        for (size_t v = 0; v < producer.index_vars.size(); ++v) {
          const auto binding = producer.binding_of_var(static_cast<int>(v));
          if (!binding) continue;
          const FieldId bound = producer.fetches[binding->fetch_index].field;
          for (const KernelId reader :
               readers[static_cast<size_t>(store.field)]) {
            grew |= readers[static_cast<size_t>(bound)].insert(reader).second;
          }
        }
      }
    }
  }
  return readers;
}

}  // namespace p2g::graph
