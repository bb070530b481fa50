// Copyright 2026 The claks Authors.

#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "datasets/company_paper.h"

namespace claks {
namespace {

class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    graph_ = std::make_unique<DataGraph>(dataset_.db.get());
  }

  uint32_t N(const std::string& name) {
    return graph_->NodeOf(PaperTuple(*dataset_.db, name));
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
};

TEST_F(TraversalTest, BfsDistancesFromD1) {
  auto dist = BfsDistances(*graph_, N("d1"));
  EXPECT_EQ(dist[N("d1")], 0u);
  EXPECT_EQ(dist[N("e1")], 1u);
  EXPECT_EQ(dist[N("p1")], 1u);
  EXPECT_EQ(dist[N("w_f1")], 2u);
  EXPECT_EQ(dist[N("t1")], 2u);  // d1 - e3 - t1
  EXPECT_EQ(dist[N("d3")], SIZE_MAX);  // isolated
}

TEST_F(TraversalTest, MultiSourceBfs) {
  auto dist = BfsDistances(*graph_, {N("d1"), N("d2")});
  EXPECT_EQ(dist[N("d1")], 0u);
  EXPECT_EQ(dist[N("d2")], 0u);
  EXPECT_EQ(dist[N("e2")], 1u);
  EXPECT_EQ(dist[N("e1")], 1u);
}

TEST_F(TraversalTest, ShortestPathReconstruction) {
  auto path = ShortestPath(*graph_, N("d1"), N("t1"));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 2u);
  auto nodes = path->Nodes();
  EXPECT_EQ(nodes.front(), N("d1"));
  EXPECT_EQ(nodes[1], N("e3"));
  EXPECT_EQ(nodes.back(), N("t1"));
  EXPECT_EQ(path->End(), N("t1"));
}

TEST_F(TraversalTest, ShortestPathToSelf) {
  auto path = ShortestPath(*graph_, N("d1"), N("d1"));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 0u);
}

TEST_F(TraversalTest, ShortestPathDisconnected) {
  EXPECT_FALSE(ShortestPath(*graph_, N("d1"), N("d3")).has_value());
}

TEST_F(TraversalTest, EnumerateSimplePathsD1ToE1) {
  // d1-e1 (1 edge); d1-p1-w_f1-e1 (3 edges). Within 4 edges nothing else
  // reaches e1 without repeating a node.
  auto paths = EnumerateSimplePaths(*graph_, N("d1"), N("e1"), 4);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].length(), 1u);
  EXPECT_EQ(paths[1].length(), 3u);
}

TEST_F(TraversalTest, EnumerateRespectsDepthBound) {
  auto paths = EnumerateSimplePaths(*graph_, N("d1"), N("e1"), 2);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(TraversalTest, EnumerateBetweenSetsStopsAtFirstTarget) {
  // From p1 to {d1, d2}: the path p1-d1 stops at d1 and must not continue
  // through d1 to reach d2.
  auto paths = EnumerateSimplePathsBetweenSets(*graph_, {N("p1")},
                                               {N("d1"), N("d2")}, 4);
  for (const NodePath& path : paths) {
    auto nodes = path.Nodes();
    // No target may appear in the interior.
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_NE(nodes[i], N("d2"));
      if (i > 0) {
        EXPECT_NE(nodes[i], N("d1"));
      }
    }
  }
}

TEST_F(TraversalTest, SourceInTargetSetYieldsZeroEdgePath) {
  auto paths =
      EnumerateSimplePathsBetweenSets(*graph_, {N("d1")}, {N("d1")}, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].length(), 0u);
}

TEST_F(TraversalTest, MaxResultsCapsOutput) {
  auto paths = EnumerateSimplePathsBetweenSets(
      *graph_, {N("d1"), N("d2")}, {N("e1"), N("e2")}, 4,
      /*max_results=*/1);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(TraversalTest, PathsAreSimple) {
  auto paths = EnumerateSimplePaths(*graph_, N("d2"), N("e2"), 4);
  for (const NodePath& path : paths) {
    auto nodes = path.Nodes();
    std::set<uint32_t> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size());
  }
}

TEST_F(TraversalTest, SortedByLength) {
  auto paths = EnumerateSimplePathsBetweenSets(
      *graph_, {N("d1"), N("d2")}, {N("e1"), N("e2")}, 4);
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

// EnumerateSimplePathsBetweenSets reuses one target set and one on-path
// bitmap for all of a call's sources. The reference below gives every
// source fresh state: one single-source call each, concatenated in source
// order, then the same stable length sort. (Each single-source result is
// already length-sorted; a stable sort keeps DFS order within a length,
// so sorting the concatenation again gives the multi-source order.)
std::vector<NodePath> PerSourceReference(const DataGraph& graph,
                                         const std::vector<uint32_t>& sources,
                                         const std::vector<uint32_t>& targets,
                                         size_t max_edges,
                                         size_t max_results = 0) {
  std::vector<NodePath> out;
  for (uint32_t source : sources) {
    size_t remaining = max_results == 0 ? 0 : max_results - out.size();
    for (NodePath& path : EnumerateSimplePathsBetweenSets(
             graph, {source}, targets, max_edges, remaining)) {
      out.push_back(std::move(path));
    }
    if (max_results != 0 && out.size() >= max_results) break;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const NodePath& a, const NodePath& b) {
                     return a.length() < b.length();
                   });
  return out;
}

/// start, then (edge, neighbor, direction) per step.
std::vector<std::vector<uint32_t>> Keys(const std::vector<NodePath>& paths) {
  std::vector<std::vector<uint32_t>> out;
  for (const NodePath& path : paths) {
    std::vector<uint32_t> key{path.start};
    for (const DataAdjacency& step : path.steps) {
      key.insert(key.end(), {step.edge_index, step.neighbor, step.along_fk});
    }
    out.push_back(std::move(key));
  }
  return out;
}

std::set<uint32_t> NodesOnPathsFrom(const std::vector<NodePath>& paths,
                                    uint32_t source) {
  std::set<uint32_t> out;
  for (const NodePath& path : paths) {
    if (path.start != source) continue;
    for (uint32_t node : path.Nodes()) out.insert(node);
  }
  return out;
}

TEST_F(TraversalTest, MultiSourceMatchesPerSourceWithSourceAsTarget) {
  // e1 is both a source and a target: its length-0 path must appear, and
  // the sources after it must be unaffected.
  std::vector<uint32_t> sources{N("d1"), N("e1"), N("d2"), N("p1")};
  std::vector<uint32_t> targets{N("e1"), N("e2"), N("t1")};
  auto paths = EnumerateSimplePathsBetweenSets(*graph_, sources, targets, 4);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].length(), 0u);
  EXPECT_EQ(paths[0].start, N("e1"));
  EXPECT_EQ(Keys(paths),
            Keys(PerSourceReference(*graph_, sources, targets, 4)));
}

TEST_F(TraversalTest, MultiSourceMatchesPerSourceAtEveryCut) {
  std::vector<uint32_t> sources{N("d1"), N("p1"), N("d2")};
  std::vector<uint32_t> targets{N("e1"), N("e2")};
  const size_t total =
      EnumerateSimplePathsBetweenSets(*graph_, sources, targets, 4).size();
  const size_t first =
      EnumerateSimplePathsBetweenSets(*graph_, {N("d1")}, targets, 4).size();
  // Some cut falls inside a source after the first one.
  ASSERT_GE(total, first + 2);
  for (size_t max_results = 1; max_results <= total + 1; ++max_results) {
    auto paths = EnumerateSimplePathsBetweenSets(*graph_, sources, targets, 4,
                                                 max_results);
    EXPECT_EQ(paths.size(), std::min(max_results, total));
    EXPECT_EQ(Keys(paths), Keys(PerSourceReference(*graph_, sources, targets,
                                                   4, max_results)))
        << "max_results " << max_results;
  }
}

TEST_F(TraversalTest, MultiSourceMatchesPerSourceWithSharedPathNodes) {
  // d1 and p1 are adjacent, so each lies on the other's paths: an on-path
  // bit left set by one source would prune the next source's paths.
  std::vector<uint32_t> sources{N("d1"), N("p1"), N("e3")};
  std::vector<uint32_t> targets{N("e2"), N("t1"), N("w_f1")};
  auto paths = EnumerateSimplePathsBetweenSets(*graph_, sources, targets, 4);
  std::set<uint32_t> from_d1 = NodesOnPathsFrom(paths, N("d1"));
  std::set<uint32_t> from_p1 = NodesOnPathsFrom(paths, N("p1"));
  EXPECT_GT(from_d1.count(N("p1")), 0u);
  EXPECT_GT(from_p1.count(N("d1")), 0u);
  EXPECT_EQ(Keys(paths),
            Keys(PerSourceReference(*graph_, sources, targets, 4)));
}

TEST_F(TraversalTest, MultiSourceMatchesPerSourceOverWholeGraph) {
  std::vector<uint32_t> nodes;
  for (uint32_t id = 0; id < graph_->node_id_bound(); ++id) {
    if (graph_->IsLiveNode(id)) nodes.push_back(id);
  }
  std::vector<uint32_t> targets;
  for (size_t i = 0; i < nodes.size(); i += 3) targets.push_back(nodes[i]);
  for (size_t max_edges : {1u, 3u, 5u}) {
    auto paths =
        EnumerateSimplePathsBetweenSets(*graph_, nodes, targets, max_edges);
    EXPECT_FALSE(paths.empty());
    EXPECT_EQ(Keys(paths), Keys(PerSourceReference(*graph_, nodes, targets,
                                                   max_edges)))
        << "max_edges " << max_edges;
  }
}

}  // namespace
}  // namespace claks
