// Copyright 2026 The claks Authors.
//
// Reference implementation of BANKS backward expanding search for the
// differential tests: every per-keyword Dijkstra runs to exhaustion, every
// node reached by all of them becomes a candidate root, and the candidates
// are sorted by (total distance, node) before answers are built. This was
// the production search before the threshold-paced one in
// src/graph/banks.cc; the two must return identical AnswerTrees, and the
// production search may settle no more nodes than this one.

#ifndef CLAKS_TESTS_BANKS_REFERENCE_H_
#define CLAKS_TESTS_BANKS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/banks.h"
#include "graph/data_graph.h"

namespace claks {
namespace reference {

struct FullExpansion {
  std::vector<double> dist;
  std::vector<uint32_t> parent;       // predecessor node
  std::vector<uint32_t> parent_edge;  // edge used to reach node
  std::vector<uint32_t> source;       // which keyword node we came from
};

// Multi-source Dijkstra from every node of one keyword set, to exhaustion.
// `visited` accumulates the number of settled pops.
inline FullExpansion ExpandFully(const DataGraph& graph,
                                 const std::vector<uint32_t>& set,
                                 const std::vector<double>& entry_weights,
                                 const BanksOptions& options,
                                 size_t* visited) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FullExpansion exp;
  exp.dist.assign(graph.node_id_bound(), kInf);
  exp.parent.assign(graph.node_id_bound(), UINT32_MAX);
  exp.parent_edge.assign(graph.node_id_bound(), UINT32_MAX);
  exp.source.assign(graph.node_id_bound(), UINT32_MAX);

  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  for (uint32_t node : set) {
    CLAKS_CHECK_LT(node, graph.node_id_bound());
    if (exp.dist[node] > 0.0) {
      exp.dist[node] = 0.0;
      exp.source[node] = node;
      pq.emplace(0.0, node);
    }
  }
  double max_dist = static_cast<double>(options.max_distance);
  while (!pq.empty()) {
    auto [d, node] = pq.top();
    pq.pop();
    if (d > exp.dist[node]) continue;
    ++*visited;
    if (d >= max_dist) continue;
    for (const DataAdjacency& adj : graph.Neighbors(node)) {
      double nd = d + entry_weights[adj.neighbor];
      if (nd < exp.dist[adj.neighbor]) {
        exp.dist[adj.neighbor] = nd;
        exp.parent[adj.neighbor] = node;
        exp.parent_edge[adj.neighbor] = adj.edge_index;
        exp.source[adj.neighbor] = exp.source[node];
        pq.emplace(nd, adj.neighbor);
      }
    }
  }
  return exp;
}

inline std::vector<AnswerTree> BanksBackwardSearch(
    const DataGraph& graph,
    const std::vector<std::vector<uint32_t>>& keyword_node_sets,
    const BanksOptions& options, BanksSearchStats* stats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (stats != nullptr) *stats = BanksSearchStats{};
  if (keyword_node_sets.empty()) return {};
  for (const auto& set : keyword_node_sets) {
    if (set.empty()) return {};
  }

  std::vector<double> entry_weights(graph.node_id_bound(), 1.0);
  if (options.weight_model == BanksWeightModel::kDegreePenalized) {
    for (uint32_t v = 0; v < graph.node_id_bound(); ++v) {
      entry_weights[v] =
          1.0 + std::log(1.0 + static_cast<double>(graph.Degree(v)));
    }
  }
  std::vector<FullExpansion> expansions;
  size_t visited = 0;
  for (const auto& set : keyword_node_sets) {
    expansions.push_back(
        ExpandFully(graph, set, entry_weights, options, &visited));
  }
  if (stats != nullptr) stats->visited_nodes = visited;

  // Candidate roots: reached by every expansion.
  std::vector<std::pair<double, uint32_t>> candidates;
  for (uint32_t v = 0; v < graph.node_id_bound(); ++v) {
    double total = 0.0;
    bool ok = true;
    for (const FullExpansion& exp : expansions) {
      if (exp.dist[v] == kInf) {
        ok = false;
        break;
      }
      total += exp.dist[v];
    }
    if (ok) candidates.emplace_back(total, v);
  }
  std::sort(candidates.begin(), candidates.end());

  std::vector<AnswerTree> answers;
  std::set<std::vector<uint32_t>> seen_edge_sets;
  for (const auto& [total, root] : candidates) {
    if (answers.size() >= options.top_k) break;
    AnswerTree tree;
    tree.root = root;
    tree.weight = total;
    std::set<uint32_t> edges;
    for (const FullExpansion& exp : expansions) {
      tree.keyword_nodes.push_back(exp.source[root]);
      uint32_t node = root;
      while (exp.parent[node] != UINT32_MAX) {
        edges.insert(exp.parent_edge[node]);
        node = exp.parent[node];
      }
    }
    tree.edge_indices.assign(edges.begin(), edges.end());
    if (!seen_edge_sets.insert(tree.edge_indices).second) continue;
    answers.push_back(std::move(tree));
  }
  return answers;
}

}  // namespace reference
}  // namespace claks

#endif  // CLAKS_TESTS_BANKS_REFERENCE_H_
