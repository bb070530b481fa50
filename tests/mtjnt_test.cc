// Copyright 2026 The claks Authors.
//
// MTJNT semantics tests, including the paper's §3 claim that the MTJNT
// approach loses connections 3, 4, 6 and 7 of its running example.

#include "core/mtjnt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "datasets/company_paper.h"

namespace claks {
namespace {

class MtjntTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    graph_ = std::make_unique<DataGraph>(dataset_.db.get());
    schema_graph_ = std::make_unique<SchemaGraph>(dataset_.db.get());
    index_ = std::make_unique<InvertedIndex>(dataset_.db.get());
    matches_ = MatchKeywords(
        *index_, ParseKeywordQuery("Smith XML", index_->tokenizer()));
    masks_ = ComputeKeywordMasks(matches_);
  }

  uint32_t N(const std::string& name) {
    return graph_->NodeOf(PaperTuple(*dataset_.db, name));
  }

  TupleTree Tree(const std::vector<std::string>& names) {
    TupleTree tree;
    for (const auto& name : names) tree.nodes.push_back(N(name));
    std::sort(tree.nodes.begin(), tree.nodes.end());
    // Collect the edges between consecutive names.
    for (size_t i = 0; i + 1 < names.size(); ++i) {
      uint32_t a = N(names[i]);
      for (const DataAdjacency& adj : graph_->Neighbors(a)) {
        if (adj.neighbor == N(names[i + 1])) {
          tree.edge_indices.push_back(adj.edge_index);
          break;
        }
      }
    }
    std::sort(tree.edge_indices.begin(), tree.edge_indices.end());
    EXPECT_EQ(tree.edge_indices.size() + 1, tree.nodes.size());
    return tree;
  }

  bool ContainsTree(const std::vector<TupleTree>& trees,
                    const TupleTree& tree) {
    for (const TupleTree& t : trees) {
      if (t == tree) return true;
    }
    return false;
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
  std::unique_ptr<SchemaGraph> schema_graph_;
  std::unique_ptr<InvertedIndex> index_;
  std::vector<KeywordMatches> matches_;
  std::map<TupleId, uint32_t> masks_;
};

TEST_F(MtjntTest, KeywordMasks) {
  EXPECT_EQ(masks_.size(), 6u);  // e1,e2 smith; d1,d2,p1,p2 xml
  EXPECT_EQ(masks_[PaperTuple(*dataset_.db, "e1")], 1u);
  EXPECT_EQ(masks_[PaperTuple(*dataset_.db, "d1")], 2u);
}

TEST_F(MtjntTest, TotalityAndMinimality) {
  TupleTree conn1 = Tree({"d1", "e1"});
  EXPECT_TRUE(IsTotal(*graph_, conn1, masks_, 2));
  EXPECT_TRUE(IsMinimalTotal(*graph_, conn1, masks_, 2));

  // Connection 3 (p1 - d1 - e1) is total but NOT minimal: removing leaf p1
  // leaves d1 - e1 which is still total.
  TupleTree conn3 = Tree({"p1", "d1", "e1"});
  EXPECT_TRUE(IsTotal(*graph_, conn3, masks_, 2));
  EXPECT_FALSE(IsMinimalTotal(*graph_, conn3, masks_, 2));

  // Connection 7 (d2 - p3 - w_f2 - e2) IS minimal: removing d2 loses xml.
  TupleTree conn7 = Tree({"d2", "p3", "w_f2", "e2"});
  EXPECT_TRUE(IsTotal(*graph_, conn7, masks_, 2));
  EXPECT_TRUE(IsMinimalTotal(*graph_, conn7, masks_, 2));

  // A tree missing smith entirely is not total.
  TupleTree xml_only = Tree({"d1", "p1"});
  EXPECT_FALSE(IsTotal(*graph_, xml_only, masks_, 2));
  EXPECT_FALSE(IsMinimalTotal(*graph_, xml_only, masks_, 2));
}

TEST_F(MtjntTest, PaperClaimTmax3LosesConnections3467) {
  // With Tmax = 3 tuples: connections 3 and 6 are excluded by minimality;
  // connections 4 and 7 exceed the size bound. Exactly the paper's claim.
  auto mtjnts = EnumerateMtjnt(*graph_, matches_, 3);
  EXPECT_TRUE(ContainsTree(mtjnts, Tree({"d1", "e1"})));            // 1
  EXPECT_TRUE(ContainsTree(mtjnts, Tree({"p1", "w_f1", "e1"})));    // 2
  EXPECT_FALSE(ContainsTree(mtjnts, Tree({"p1", "d1", "e1"})));     // 3
  EXPECT_FALSE(
      ContainsTree(mtjnts, Tree({"d1", "p1", "w_f1", "e1"})));      // 4
  EXPECT_TRUE(ContainsTree(mtjnts, Tree({"d2", "e2"})));            // 5
  EXPECT_FALSE(ContainsTree(mtjnts, Tree({"p2", "d2", "e2"})));     // 6
  EXPECT_FALSE(
      ContainsTree(mtjnts, Tree({"d2", "p3", "w_f2", "e2"})));      // 7
}

TEST_F(MtjntTest, Tmax4RecoversConnection7Only) {
  auto mtjnts = EnumerateMtjnt(*graph_, matches_, 4);
  // 7 is minimal (p3 carries no keyword), so the size bound was its only
  // obstacle.
  EXPECT_TRUE(ContainsTree(mtjnts, Tree({"d2", "p3", "w_f2", "e2"})));
  // 3, 4, 6 remain lost at any Tmax: they are non-minimal.
  EXPECT_FALSE(ContainsTree(mtjnts, Tree({"p1", "d1", "e1"})));
  EXPECT_FALSE(ContainsTree(mtjnts, Tree({"d1", "p1", "w_f1", "e1"})));
  EXPECT_FALSE(ContainsTree(mtjnts, Tree({"p2", "d2", "e2"})));
}

TEST_F(MtjntTest, AllResultsAreMinimalAndTotal) {
  for (size_t tmax : {2, 3, 4, 5}) {
    for (const TupleTree& tree : EnumerateMtjnt(*graph_, matches_, tmax)) {
      EXPECT_LE(tree.size(), tmax);
      EXPECT_TRUE(IsMinimalTotal(*graph_, tree, masks_, 2));
    }
  }
}

TEST_F(MtjntTest, UnmatchedKeywordYieldsNothing) {
  auto matches = MatchKeywords(
      *index_, ParseKeywordQuery("Smith quantum", index_->tokenizer()));
  EXPECT_TRUE(EnumerateMtjnt(*graph_, matches, 4).empty());
}

TEST_F(MtjntTest, SingleKeywordSingleTupleTrees) {
  auto matches = MatchKeywords(
      *index_, ParseKeywordQuery("Smith", index_->tokenizer()));
  auto mtjnts = EnumerateMtjnt(*graph_, matches, 3);
  // Each matched tuple alone is the minimal total network.
  ASSERT_EQ(mtjnts.size(), 2u);
  for (const TupleTree& tree : mtjnts) {
    EXPECT_EQ(tree.size(), 1u);
  }
}

TEST_F(MtjntTest, ThreeKeywordTrees) {
  auto matches = MatchKeywords(
      *index_, ParseKeywordQuery("Smith XML Alice", index_->tokenizer()));
  ASSERT_TRUE(AllKeywordsMatched(matches));
  auto mtjnts = EnumerateMtjnt(*graph_, matches, 6);
  ASSERT_FALSE(mtjnts.empty());
  auto masks = ComputeKeywordMasks(matches);
  for (const TupleTree& tree : mtjnts) {
    EXPECT_TRUE(IsMinimalTotal(*graph_, tree, masks, 3));
  }
}

TEST_F(MtjntTest, TupleTreePathDetectionAndConversion) {
  TupleTree path = Tree({"p1", "w_f1", "e1"});
  EXPECT_TRUE(path.IsPath(*graph_));
  Connection conn = path.ToConnection(*graph_);
  EXPECT_EQ(conn.RdbLength(), 2u);

  TupleTree single;
  single.nodes = {N("d1")};
  EXPECT_TRUE(single.IsPath(*graph_));
  EXPECT_EQ(single.ToConnection(*graph_).RdbLength(), 0u);

  // A star around e3 is not a path: e3 with d1, t1, t2.
  TupleTree star = Tree({"d1", "e3"});
  for (const DataAdjacency& adj : graph_->Neighbors(N("e3"))) {
    if (adj.neighbor == N("t1") || adj.neighbor == N("t2")) {
      star.nodes.push_back(adj.neighbor);
      star.edge_indices.push_back(adj.edge_index);
    }
  }
  std::sort(star.nodes.begin(), star.nodes.end());
  std::sort(star.edge_indices.begin(), star.edge_indices.end());
  EXPECT_FALSE(star.IsPath(*graph_));
}

TEST_F(MtjntTest, LeavesComputed) {
  TupleTree path = Tree({"p1", "w_f1", "e1"});
  auto leaves = path.Leaves(*graph_);
  ASSERT_EQ(leaves.size(), 2u);
  std::set<uint32_t> leaf_set(leaves.begin(), leaves.end());
  EXPECT_TRUE(leaf_set.count(N("p1")) > 0);
  EXPECT_TRUE(leaf_set.count(N("e1")) > 0);
}

// --- DISCOVER candidate-network pipeline ----------------------------------

TEST_F(MtjntTest, DiscoverMatchesDataLevelEnumeration) {
  for (size_t tmax : {2, 3, 4, 5}) {
    auto data_level = EnumerateMtjnt(*graph_, matches_, tmax);
    auto discover =
        DiscoverMtjnt(*graph_, *schema_graph_, matches_, tmax);
    EXPECT_EQ(data_level.size(), discover.size()) << "tmax " << tmax;
    for (const TupleTree& tree : data_level) {
      EXPECT_TRUE(ContainsTree(discover, tree));
    }
  }
}

TEST_F(MtjntTest, CandidateNetworksCoverKeywordsWithNonFreeLeaves) {
  std::vector<std::vector<uint32_t>> masks_per_table(
      schema_graph_->num_tables());
  for (const auto& [tuple, mask] : masks_) {
    auto& masks = masks_per_table[tuple.table];
    if (std::find(masks.begin(), masks.end(), mask) == masks.end()) {
      masks.push_back(mask);
    }
  }
  auto cns = GenerateCandidateNetworks(*schema_graph_, masks_per_table, 2,
                                       4);
  ASSERT_FALSE(cns.empty());
  for (const CandidateNetwork& cn : cns) {
    uint32_t covered = 0;
    for (const CnNode& node : cn.nodes) covered |= node.keyword_mask;
    EXPECT_EQ(covered, 3u);
    EXPECT_LE(cn.size(), 4u);
  }
}

TEST_F(MtjntTest, CanonicalFormDeduplicates) {
  CandidateNetwork a;
  a.nodes = {CnNode{0, 1}, CnNode{1, 2}};
  a.edges = {{0, 1, 0, true}};
  CandidateNetwork b;
  b.nodes = {CnNode{1, 2}, CnNode{0, 1}};
  b.edges = {{1, 0, 0, true}};
  EXPECT_EQ(a.Canonical(), b.Canonical());

  CandidateNetwork c = a;
  c.edges[0].a_is_referencing = false;
  EXPECT_NE(a.Canonical(), c.Canonical());
}

// Pins the exact canonical strings, so a change in how they are built
// cannot silently change the deduplication key: "(table;mask" per node,
// then its children sorted, each as "[fk" plus '<' (the child references)
// or '>' (the child is referenced), the child's encoding and "]".
TEST_F(MtjntTest, CanonicalStringsArePinned) {
  CandidateNetwork one;
  one.nodes = {CnNode{12, 2147483649u}};
  EXPECT_EQ(one.Canonical(), "(12;2147483649)");

  CandidateNetwork two;
  two.nodes = {CnNode{7, 1}, CnNode{3, 10}};
  two.edges = {{0, 1, 11, true}};
  EXPECT_EQ(two.Canonical(), "(3;10[11<(7;1)])");

  // A free middle node joining two keyword nodes, reached both ways.
  CandidateNetwork three;
  three.nodes = {CnNode{5, 0}, CnNode{12, 1}, CnNode{4, 2}};
  three.edges = {{1, 0, 10, true}, {0, 2, 2, false}};
  EXPECT_EQ(three.Canonical(), "(12;1[10>(5;0[2<(4;2)])])");
}

TEST_F(MtjntTest, DiscoverThreeKeywords) {
  auto matches = MatchKeywords(
      *index_, ParseKeywordQuery("Smith XML Alice", index_->tokenizer()));
  auto data_level = EnumerateMtjnt(*graph_, matches, 5);
  auto discover = DiscoverMtjnt(*graph_, *schema_graph_, matches, 5);
  EXPECT_EQ(data_level.size(), discover.size());
}

}  // namespace
}  // namespace claks
