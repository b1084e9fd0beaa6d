#include "src/ext/fabricpp/conflict_graph.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "src/statedb/state_database.h"

namespace fabricsim {

ConflictGraph ConflictGraph::Build(const std::vector<Transaction>& txs,
                                   uint64_t* ops) {
  ConflictGraph graph;
  size_t n = txs.size();
  graph.adj_.assign(n, {});

  // Index writers per key.
  std::unordered_map<std::string, std::vector<uint32_t>> writers;
  for (uint32_t i = 0; i < n; ++i) {
    for (const WriteItem& w : txs[i].rwset->writes) {
      writers[w.key].push_back(i);
      ++*ops;
    }
  }

  // For every read (point or range footprint) of u, add u -> writer.
  std::vector<std::set<uint32_t>> edges(n);
  auto add_reads = [&](uint32_t u, const std::vector<ReadItem>& reads) {
    for (const ReadItem& r : reads) {
      ++*ops;
      auto it = writers.find(r.key);
      if (it == writers.end()) continue;
      for (uint32_t v : it->second) {
        ++*ops;
        if (v == u) continue;  // own writes never invalidate own reads
        edges[u].insert(v);
      }
    }
  };
  for (uint32_t u = 0; u < n; ++u) {
    add_reads(u, txs[u].rwset->reads);
    for (const RangeQueryInfo& rq : txs[u].rwset->range_queries) {
      add_reads(u, rq.reads);
      // A writer inserting a fresh key inside the interval also
      // invalidates the range; approximate by linking writers of keys
      // within [start,end) — covered above via footprint keys — plus
      // writers of keys not in the footprint but inside the interval.
      if (!rq.phantom_check) continue;
      for (const auto& [key, ws] : writers) {
        ++*ops;
        if (!KeyInRange(key, rq.start_key, rq.end_key)) continue;
        for (uint32_t v : ws) {
          if (v != u) edges[u].insert(v);
        }
      }
    }
  }
  for (uint32_t u = 0; u < n; ++u) {
    graph.adj_[u].assign(edges[u].begin(), edges[u].end());
    graph.edge_count_ += graph.adj_[u].size();
  }
  return graph;
}

std::vector<std::vector<uint32_t>>
ConflictGraph::StronglyConnectedComponents(uint64_t* ops) const {
  size_t n = adj_.size();
  std::vector<int32_t> index(n, -1);
  std::vector<int32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  std::vector<std::vector<uint32_t>> components;
  int32_t next_index = 0;

  // Iterative Tarjan to avoid deep recursion on large blocks.
  struct Frame {
    uint32_t node;
    size_t child = 0;
  };
  for (uint32_t start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    std::vector<Frame> call_stack{Frame{start}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      uint32_t u = frame.node;
      if (frame.child == 0) {
        index[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      bool descended = false;
      while (frame.child < adj_[u].size()) {
        uint32_t v = adj_[u][frame.child++];
        ++*ops;
        if (index[v] == -1) {
          call_stack.push_back(Frame{v});
          descended = true;
          break;
        }
        if (on_stack[v]) low[u] = std::min(low[u], index[v]);
      }
      if (descended) continue;
      if (low[u] == index[u]) {
        std::vector<uint32_t> component;
        for (;;) {
          uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          if (w == u) break;
        }
        components.push_back(std::move(component));
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        uint32_t parent = call_stack.back().node;
        low[parent] = std::min(low[parent], low[u]);
      }
    }
  }
  return components;
}

std::vector<uint32_t> ConflictGraph::GreedyFeedbackVertexSet(
    uint64_t* ops) const {
  size_t n = adj_.size();
  std::vector<bool> removed(n, false);
  std::vector<uint32_t> aborted;

  // Work on a mutable copy restricted to alive nodes; repeatedly find
  // non-trivial SCCs and drop their highest-degree member.
  for (;;) {
    // Compute SCCs of the alive-induced subgraph.
    ConflictGraph sub;
    sub.adj_.assign(n, {});
    for (uint32_t u = 0; u < n; ++u) {
      if (removed[u]) continue;
      for (uint32_t v : adj_[u]) {
        ++*ops;
        if (!removed[v]) sub.adj_[u].push_back(v);
      }
    }
    std::vector<std::vector<uint32_t>> sccs =
        sub.StronglyConnectedComponents(ops);
    bool found_cycle = false;
    for (const std::vector<uint32_t>& scc : sccs) {
      if (scc.size() < 2) continue;
      found_cycle = true;
      // Abort the member with the highest (in+out) degree inside the
      // component — it participates in the most conflicts.
      uint32_t victim = scc.front();
      size_t victim_degree = 0;
      std::set<uint32_t> members(scc.begin(), scc.end());
      for (uint32_t u : scc) {
        size_t degree = 0;
        for (uint32_t v : sub.adj_[u]) {
          ++*ops;
          if (members.count(v)) ++degree;
        }
        for (uint32_t w : scc) {
          for (uint32_t v : sub.adj_[w]) {
            if (v == u) ++degree;
          }
        }
        if (degree > victim_degree ||
            (degree == victim_degree && u < victim)) {
          victim = u;
          victim_degree = degree;
        }
      }
      removed[victim] = true;
      aborted.push_back(victim);
    }
    if (!found_cycle) break;
  }
  std::sort(aborted.begin(), aborted.end());
  return aborted;
}

std::vector<uint32_t> ConflictGraph::TopologicalOrder(
    const std::vector<bool>& alive, uint64_t* ops) const {
  size_t n = adj_.size();
  std::vector<uint32_t> in_degree(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    for (uint32_t v : adj_[u]) {
      ++*ops;
      if (alive[v]) ++in_degree[v];
    }
  }
  // Kahn's algorithm with an ordered ready set for determinism.
  std::set<uint32_t> ready;
  for (uint32_t u = 0; u < n; ++u) {
    if (alive[u] && in_degree[u] == 0) ready.insert(u);
  }
  std::vector<uint32_t> order;
  while (!ready.empty()) {
    uint32_t u = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(u);
    for (uint32_t v : adj_[u]) {
      ++*ops;
      if (!alive[v]) continue;
      if (--in_degree[v] == 0) ready.insert(v);
    }
  }
  return order;
}

}  // namespace fabricsim
