// Copyright 2026 The claks Authors.
//
// Traversal primitives over the data graph: BFS distances, shortest paths
// and bounded simple-path enumeration. The connection enumerator in
// core/enumerator.h is built on these.

#ifndef CLAKS_GRAPH_TRAVERSAL_H_
#define CLAKS_GRAPH_TRAVERSAL_H_

#include <functional>
#include <vector>

#include "graph/data_graph.h"

namespace claks {

/// One traversal step: the adjacency entry taken. A node path of k+1 nodes
/// has k steps.
struct PathStep {
  DataAdjacency adjacency;
};

/// A simple path in the data graph: start node + steps.
struct NodePath {
  uint32_t start = 0;
  std::vector<DataAdjacency> steps;

  size_t length() const { return steps.size(); }

  /// All node ids along the path, start first.
  std::vector<uint32_t> Nodes() const;

  uint32_t End() const {
    return steps.empty() ? start : steps.back().neighbor;
  }
};

/// BFS distances (edge counts) from `source` to every node; SIZE_MAX when
/// unreachable.
std::vector<size_t> BfsDistances(const DataGraph& graph, uint32_t source);

/// Multi-source BFS: distance to the nearest of `sources`.
std::vector<size_t> BfsDistances(const DataGraph& graph,
                                 const std::vector<uint32_t>& sources);

/// One shortest path between two nodes (BFS tree), or nullopt when
/// disconnected.
std::optional<NodePath> ShortestPath(const DataGraph& graph, uint32_t from,
                                     uint32_t to);

/// Enumerates every simple path from `from` to `to` with at most
/// `max_edges` edges, shortest first. `max_results` caps the output
/// (0 = unlimited).
std::vector<NodePath> EnumerateSimplePaths(const DataGraph& graph,
                                           uint32_t from, uint32_t to,
                                           size_t max_edges,
                                           size_t max_results = 0);

/// Enumerates every simple path from a node in `sources` to a node in
/// `targets` (node-disjoint endpoints) with at most `max_edges` edges.
std::vector<NodePath> EnumerateSimplePathsBetweenSets(
    const DataGraph& graph, const std::vector<uint32_t>& sources,
    const std::vector<uint32_t>& targets, size_t max_edges,
    size_t max_results = 0);

/// The per-source engine of EnumerateSimplePathsBetweenSets: a DFS from
/// one source at a time to a fixed target set. The target membership and
/// the on-path bitmap are built once at construction and reused for
/// every source (the DFS clears each on-path bit on its way back).
/// Sources are independent of each other, which is what lets the sharded
/// engine run one enumerator per shard task over disjoint sources and
/// reassemble the exact serial output by concatenating per-source results
/// in source order before the final length sort. One instance serves one
/// thread.
class SimplePathEnumerator {
 public:
  SimplePathEnumerator(const DataGraph& graph,
                       const std::vector<uint32_t>& targets,
                       size_t max_edges);

  /// Appends every simple path from `source` to a target (DFS discovery
  /// order, no sort) to `out`, stopping once `out` holds `max_results`
  /// paths (0 = unlimited). A source that is itself a target yields only
  /// its length-0 path.
  void AppendFrom(uint32_t source, size_t max_results,
                  std::vector<NodePath>* out);

 private:
  bool Full() const;
  void Recurse(uint32_t current);

  const DataGraph& graph_;
  const size_t max_edges_;
  std::vector<bool> is_target_;
  /// All false between AppendFrom calls.
  std::vector<bool> on_path_;
  // State of the AppendFrom call in progress.
  uint32_t start_ = 0;
  size_t max_results_ = 0;
  std::vector<NodePath>* out_ = nullptr;
  std::vector<DataAdjacency> prefix_;
};

}  // namespace claks

#endif  // CLAKS_GRAPH_TRAVERSAL_H_
