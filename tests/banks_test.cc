// Copyright 2026 The claks Authors.

#include "graph/banks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "banks_reference.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "text/inverted_index.h"
#include "text/matcher.h"

namespace claks {
namespace {

class BanksTest : public ::testing::Test {
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

  // Keyword node sets for the paper query "Smith XML".
  std::vector<std::vector<uint32_t>> SmithXmlSets() {
    return {{N("e1"), N("e2")},
            {N("d1"), N("d2"), N("p1"), N("p2")}};
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
};

TEST_F(BanksTest, FindsAnswersForPaperQuery) {
  auto answers = BanksBackwardSearch(*graph_, SmithXmlSets());
  ASSERT_FALSE(answers.empty());
  // Best answers have weight 1 (adjacent keyword tuples, root at either
  // end): d1-e1 and d2-e2.
  EXPECT_EQ(answers[0].weight, 1.0);
}

TEST_F(BanksTest, AnswersSortedByWeight) {
  auto answers = BanksBackwardSearch(*graph_, SmithXmlSets());
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_LE(answers[i - 1].weight, answers[i].weight);
  }
}

TEST_F(BanksTest, EveryAnswerTouchesEachKeywordSet) {
  auto sets = SmithXmlSets();
  auto answers = BanksBackwardSearch(*graph_, sets);
  for (const AnswerTree& answer : answers) {
    ASSERT_EQ(answer.keyword_nodes.size(), 2u);
    for (size_t k = 0; k < sets.size(); ++k) {
      EXPECT_TRUE(std::find(sets[k].begin(), sets[k].end(),
                            answer.keyword_nodes[k]) != sets[k].end());
    }
  }
}

TEST_F(BanksTest, TopKRespected) {
  BanksOptions options;
  options.top_k = 3;
  auto answers = BanksBackwardSearch(*graph_, SmithXmlSets(), options);
  EXPECT_LE(answers.size(), 3u);
}

TEST_F(BanksTest, AnswersDeduplicatedByEdgeSet) {
  auto answers = BanksBackwardSearch(*graph_, SmithXmlSets());
  std::set<std::vector<uint32_t>> edge_sets;
  for (const AnswerTree& answer : answers) {
    EXPECT_TRUE(edge_sets.insert(answer.edge_indices).second);
  }
}

TEST_F(BanksTest, EmptyKeywordSetYieldsNothing) {
  EXPECT_TRUE(
      BanksBackwardSearch(*graph_, {{N("e1")}, {}}).empty());
  EXPECT_TRUE(BanksBackwardSearch(*graph_, {}).empty());
}

TEST_F(BanksTest, SingleKeywordSetRootsAtMatches) {
  auto answers = BanksBackwardSearch(*graph_, {{N("e1")}});
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers[0].weight, 0.0);
  EXPECT_EQ(answers[0].root, N("e1"));
  EXPECT_TRUE(answers[0].edge_indices.empty());
}

TEST_F(BanksTest, MaxDistanceBoundsExpansion) {
  BanksOptions options;
  options.max_distance = 1;
  // e1 and t1 are 3 edges apart (e1-e3? no: e1-d1-e3-t1): beyond radius 1
  // from both sides, so no meeting root exists.
  auto answers =
      BanksBackwardSearch(*graph_, {{N("e1")}, {N("t1")}}, options);
  EXPECT_TRUE(answers.empty());
}

TEST_F(BanksTest, DegreePenalizedChangesWeights) {
  BanksOptions options;
  options.weight_model = BanksWeightModel::kDegreePenalized;
  auto answers = BanksBackwardSearch(*graph_, SmithXmlSets(), options);
  ASSERT_FALSE(answers.empty());
  // Weights now exceed plain hop counts.
  EXPECT_GT(answers[0].weight, 1.0);
}

TEST_F(BanksTest, ThreeKeywordQuery) {
  // Smith + XML + Alice: needs a tree touching e1/e2, xml tuples and t1.
  auto answers = BanksBackwardSearch(
      *graph_,
      {{N("e1"), N("e2")}, {N("d1"), N("d2"), N("p1"), N("p2")}, {N("t1")}});
  ASSERT_FALSE(answers.empty());
  for (const AnswerTree& answer : answers) {
    EXPECT_EQ(answer.keyword_nodes.size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Differential: threshold-paced search vs. the full-expansion reference
// ---------------------------------------------------------------------------

class BanksDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    graph_ = std::make_unique<DataGraph>(dataset_.db.get());
    index_ = std::make_unique<InvertedIndex>(dataset_.db.get());
  }

  // One node set per keyword of `text`.
  std::vector<std::vector<uint32_t>> NodeSets(const std::string& text) {
    std::vector<std::vector<uint32_t>> sets;
    for (const KeywordMatches& km : MatchKeywords(
             *index_, ParseKeywordQuery(text, index_->tokenizer()))) {
      std::vector<uint32_t> nodes;
      for (const TupleMatch& m : km.matches) {
        nodes.push_back(graph_->NodeOf(m.tuple));
      }
      sets.push_back(std::move(nodes));
    }
    return sets;
  }

  GeneratedDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
  std::unique_ptr<InvertedIndex> index_;
};

void ExpectSameAnswers(const std::vector<AnswerTree>& expected,
                       const std::vector<AnswerTree>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("answer " + std::to_string(i));
    EXPECT_EQ(expected[i].root, actual[i].root);
    EXPECT_EQ(expected[i].weight, actual[i].weight);
    EXPECT_EQ(expected[i].keyword_nodes, actual[i].keyword_nodes);
    EXPECT_EQ(expected[i].edge_indices, actual[i].edge_indices);
  }
}

TEST_F(BanksDifferentialTest, MatchesFullExpansionReference) {
  // One, two and three keyword sets.
  const char* queries[] = {"xml", "Smith", "xml Miller", "xml Smith security"};
  const size_t top_ks[] = {1, 3, 10, 26, 200};
  size_t compared = 0;
  size_t nonempty = 0;
  for (BanksWeightModel model : {BanksWeightModel::kUniform,
                                 BanksWeightModel::kDegreePenalized}) {
    for (const char* query : queries) {
      std::vector<std::vector<uint32_t>> sets = NodeSets(query);
      ASSERT_FALSE(sets.empty()) << query;
      for (size_t max_distance : {1, 2, 6}) {
        std::vector<AnswerTree> previous;
        for (size_t top_k : top_ks) {
          SCOPED_TRACE(std::string(query) + " model=" +
                       std::to_string(static_cast<int>(model)) +
                       " max_distance=" + std::to_string(max_distance) +
                       " top_k=" + std::to_string(top_k));
          BanksOptions options;
          options.weight_model = model;
          options.max_distance = max_distance;
          options.top_k = top_k;
          BanksSearchStats paced_stats;
          BanksSearchStats full_stats;
          std::vector<AnswerTree> paced =
              BanksBackwardSearch(*graph_, sets, options, &paced_stats);
          std::vector<AnswerTree> full = reference::BanksBackwardSearch(
              *graph_, sets, options, &full_stats);
          ExpectSameAnswers(full, paced);
          EXPECT_LE(paced_stats.visited_nodes, full_stats.visited_nodes);
          // A smaller top_k returns a prefix of a larger one's answers.
          ASSERT_LE(previous.size(), paced.size());
          std::vector<AnswerTree> prefix(paced.begin(),
                                         paced.begin() + previous.size());
          ExpectSameAnswers(previous, prefix);
          previous = paced;
          ++compared;
          if (!paced.empty()) ++nonempty;
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 4u * 3u * 5u);
  // The sweep must exercise real answers, not only empty results.
  EXPECT_GT(nonempty, compared / 2);
}

TEST_F(BanksDifferentialTest, StopsBeforeExhaustingTheExpansions) {
  // Two keywords at max_distance 6 reach most of the graph when run to
  // exhaustion; the paced search stops once its top_k answers are final.
  BanksOptions options;
  options.top_k = 10;
  std::vector<std::vector<uint32_t>> sets = NodeSets("retrieval Smith");
  BanksSearchStats paced_stats;
  BanksSearchStats full_stats;
  std::vector<AnswerTree> paced =
      BanksBackwardSearch(*graph_, sets, options, &paced_stats);
  reference::BanksBackwardSearch(*graph_, sets, options, &full_stats);
  ASSERT_EQ(paced.size(), 10u);
  EXPECT_LT(paced_stats.visited_nodes, full_stats.visited_nodes / 2);
}

TEST_F(BanksTest, ZeroTopKYieldsNothing) {
  BanksOptions options;
  options.top_k = 0;
  EXPECT_TRUE(BanksBackwardSearch(*graph_, SmithXmlSets(), options).empty());
}

}  // namespace
}  // namespace claks
