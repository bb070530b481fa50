// Copyright 2026 The claks Authors.

#include "graph/banks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

#include "common/macros.h"

namespace claks {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Item = std::pair<double, uint32_t>;
using MinHeap = std::priority_queue<Item, std::vector<Item>, std::greater<>>;

// Cost of entering each node, precomputed once per search so the Dijkstra
// inner loop over the CSR adjacency pays no log() per relaxation.
std::vector<double> NodeEntryWeights(const DataGraph& graph,
                                     BanksWeightModel model) {
  std::vector<double> weights(graph.node_id_bound(), 1.0);
  if (model == BanksWeightModel::kDegreePenalized) {
    for (uint32_t v = 0; v < graph.node_id_bound(); ++v) {
      weights[v] =
          1.0 + std::log(1.0 + static_cast<double>(graph.Degree(v)));
    }
  }
  return weights;
}

// Multi-source Dijkstra from every node of one keyword set, run in slices.
// AdvanceTo(theta) settles every queued node at distance <= theta; the
// queue sees exactly the pushes and pops of one uninterrupted run, so a
// settled node's dist/parent/parent_edge/source never depend on where the
// run was paused.
class Expansion {
 public:
  Expansion(const DataGraph& graph, const std::vector<uint32_t>& set,
            const std::vector<double>& entry_weights, double max_dist)
      : graph_(&graph),
        entry_weights_(&entry_weights),
        max_dist_(max_dist),
        dist_(graph.node_id_bound(), kInf),
        parent_(graph.node_id_bound(), UINT32_MAX),
        parent_edge_(graph.node_id_bound(), UINT32_MAX),
        source_(graph.node_id_bound(), UINT32_MAX) {
    for (uint32_t node : set) {
      CLAKS_CHECK_LT(node, graph.node_id_bound());
      if (dist_[node] > 0.0) {
        dist_[node] = 0.0;
        source_[node] = node;
        queue_.emplace(0.0, node);
      }
    }
  }

  /// Distance of the next queued entry; infinity once the run is over.
  double NextDistance() const {
    return queue_.empty() ? kInf : queue_.top().first;
  }

  /// Pops every queued node at distance <= theta, calling
  /// `on_settle(node)` for each node settled (stale entries are skipped).
  template <typename OnSettle>
  void AdvanceTo(double theta, OnSettle&& on_settle) {
    while (!queue_.empty() && queue_.top().first <= theta) {
      auto [d, node] = queue_.top();
      queue_.pop();
      if (d > dist_[node]) continue;
      on_settle(node);
      if (d >= max_dist_) continue;
      for (const DataAdjacency& adj : graph_->Neighbors(node)) {
        double nd = d + (*entry_weights_)[adj.neighbor];
        if (nd < dist_[adj.neighbor]) {
          dist_[adj.neighbor] = nd;
          parent_[adj.neighbor] = node;
          parent_edge_[adj.neighbor] = adj.edge_index;
          source_[adj.neighbor] = source_[node];
          queue_.emplace(nd, adj.neighbor);
        }
      }
    }
  }

  // Read only for settled nodes, whose entries are final.
  double dist(uint32_t node) const { return dist_[node]; }
  uint32_t source(uint32_t node) const { return source_[node]; }
  /// Adds the edges of the shortest path from `node` back to its source.
  void AddPathEdges(uint32_t node, std::set<uint32_t>* edges) const {
    for (; parent_[node] != UINT32_MAX; node = parent_[node]) {
      edges->insert(parent_edge_[node]);
    }
  }

 private:
  const DataGraph* graph_;
  const std::vector<double>* entry_weights_;
  double max_dist_;
  MinHeap queue_;
  std::vector<double> dist_;
  std::vector<uint32_t> parent_;       // predecessor node
  std::vector<uint32_t> parent_edge_;  // edge used to reach node
  std::vector<uint32_t> source_;       // which keyword node we came from
};

}  // namespace

std::vector<AnswerTree> BanksBackwardSearch(
    const DataGraph& graph,
    const std::vector<std::vector<uint32_t>>& keyword_node_sets,
    const BanksOptions& options, BanksSearchStats* stats) {
  if (stats != nullptr) *stats = BanksSearchStats{};
  if (keyword_node_sets.empty()) return {};
  for (const auto& set : keyword_node_sets) {
    if (set.empty()) return {};
  }

  std::vector<double> entry_weights =
      NodeEntryWeights(graph, options.weight_model);
  std::vector<Expansion> expansions;
  expansions.reserve(keyword_node_sets.size());
  for (const auto& set : keyword_node_sets) {
    expansions.emplace_back(graph, set, entry_weights,
                            static_cast<double>(options.max_distance));
  }

  // A node settled by every expansion is a candidate root; its total is
  // final the moment the last expansion settles it.
  const size_t k = expansions.size();
  std::vector<uint32_t> settled_by(graph.node_id_bound(), 0);
  MinHeap roots;
  size_t visited = 0;
  auto on_settle = [&](uint32_t node) {
    ++visited;
    if (++settled_by[node] < k) return;
    double total = 0.0;
    for (const Expansion& exp : expansions) total += exp.dist(node);
    roots.emplace(total, node);
  };

  std::vector<AnswerTree> answers;
  // Deduplicate answers that collapse to the same edge set: a root in the
  // middle of a path and its neighbour can describe the same tree.
  std::set<std::vector<uint32_t>> seen_edge_sets;
  while (answers.size() < options.top_k) {
    double theta = kInf;
    for (const Expansion& exp : expansions) {
      theta = std::min(theta, exp.NextDistance());
    }
    for (Expansion& exp : expansions) exp.AdvanceTo(theta, on_settle);
    // Every node some expansion has not settled lies farther than theta
    // from that keyword set, so any root found later totals more than
    // theta: roots up to theta leave the heap in their final order.
    while (!roots.empty() && roots.top().first <= theta &&
           answers.size() < options.top_k) {
      auto [total, root] = roots.top();
      roots.pop();
      AnswerTree tree;
      tree.root = root;
      tree.weight = total;
      std::set<uint32_t> edges;
      for (const Expansion& exp : expansions) {
        tree.keyword_nodes.push_back(exp.source(root));
        exp.AddPathEdges(root, &edges);
      }
      tree.edge_indices.assign(edges.begin(), edges.end());
      if (!seen_edge_sets.insert(tree.edge_indices).second) continue;
      answers.push_back(std::move(tree));
    }
    if (theta == kInf) break;
  }
  if (stats != nullptr) stats->visited_nodes = visited;
  return answers;
}

}  // namespace claks
