// Copyright 2026 The claks Authors.
//
// BANKS-style backward expanding search [Aditya et al., VLDB'02]: answers
// are rooted trees connecting at least one tuple from every keyword set,
// found by running shortest-path expansions backwards from the keyword
// tuples and meeting at common roots. This is one of the two baselines the
// paper positions itself against (the other is DISCOVER's MTJNT,
// core/mtjnt.h).
//
// Entry point: BanksBackwardSearch, dispatched to by KeywordSearchEngine
// for SearchMethod::kBanks; the engine converts the returned AnswerTrees to
// TupleTrees and runs them through the same association analysis and
// ranking as every other method. Tuning knobs (top_k, edge-weight model,
// expansion radius) live in BanksOptions, embedded in SearchOptions.
// The expansions iterate the CSR adjacency spans of graph/data_graph.h
// with per-node entry weights precomputed once per search, and pause as
// soon as the top_k answers are final (see BanksBackwardSearch).

#ifndef CLAKS_GRAPH_BANKS_H_
#define CLAKS_GRAPH_BANKS_H_

#include <vector>

#include "graph/data_graph.h"

namespace claks {

/// Edge-weight models for the expansion.
enum class BanksWeightModel {
  /// Every edge costs 1 (pure hop count).
  kUniform,
  /// Edges into high-in-degree nodes cost more, BANKS-style:
  /// w = 1 + log(1 + degree(target)). Penalises hub tuples.
  kDegreePenalized,
};

struct BanksOptions {
  size_t top_k = 10;
  BanksWeightModel weight_model = BanksWeightModel::kUniform;
  /// Expansion radius: keyword tuples farther than this many edges from a
  /// candidate root never join its answer.
  size_t max_distance = 6;
};

/// One answer: a tree rooted at `root` spanning one tuple per keyword set.
struct AnswerTree {
  uint32_t root = 0;
  /// One entry per keyword set: the matched leaf node.
  std::vector<uint32_t> keyword_nodes;
  /// Edge indices (into DataGraph::edge) forming the tree, deduplicated.
  std::vector<uint32_t> edge_indices;
  /// Sum of root->keyword-node path weights (BANKS's tree cost proxy).
  double weight = 0.0;

  size_t size() const { return edge_indices.size() + 1; }
};

/// Work counters of one backward search, for comparing expansion effort
/// across search methods (KeywordSearchEngine surfaces visited_nodes as
/// SearchResult::expansions for SearchMethod::kBanks).
struct BanksSearchStats {
  /// Nodes settled across all per-keyword Dijkstra expansions before the
  /// search stopped (a node settled by `k` expansions counts `k` times —
  /// each is a separate relaxation wave). The expansions stop as soon as
  /// the top_k answers are final, so this grows with top_k and is at most
  /// what running every expansion to exhaustion would settle.
  size_t visited_nodes = 0;
};

/// Runs backward expanding search: one multi-source Dijkstra per keyword
/// set, with roots — nodes every expansion has settled — taken in
/// (total distance, node) order. Returns at most `options.top_k` trees,
/// best (lightest) first; trees with the same edge set are returned once.
/// Empty keyword sets (or top_k 0) yield no answers. `stats` (optional)
/// receives the work counters.
///
/// Stop rule: the expansions advance in lockstep to theta, the smallest
/// next queued distance of any of them, and roots totalling at most theta
/// are emitted. The search stops once top_k answers exist or every queue
/// is empty. This relies on edge weights being non-negative (both
/// weight models cost at least 1 per edge): a node some expansion has not
/// settled is then farther than theta from that keyword set, so a root
/// found later totals more than theta and cannot precede one already
/// emitted. The answers equal those of running every expansion to
/// exhaustion and sorting all roots, and a smaller top_k returns a
/// prefix of a larger one's answers.
std::vector<AnswerTree> BanksBackwardSearch(
    const DataGraph& graph,
    const std::vector<std::vector<uint32_t>>& keyword_node_sets,
    const BanksOptions& options = {}, BanksSearchStats* stats = nullptr);

}  // namespace claks

#endif  // CLAKS_GRAPH_BANKS_H_
