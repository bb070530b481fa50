// Copyright 2026 The claks Authors.
//
// Intra-query sharding invariants (core/shard.h): the node hash is
// deterministic and spreads a scaled instance over every shard; the
// materialized methods fan out to byte-identical results; and two-keyword
// kStream runs its one serial stream at every shard count, so hits and
// expansions both match shards == 1. The randomized end-to-end sweep
// lives in tests/differential_test.cc; these are the targeted property
// tests behind it.

#include "core/shard.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "graph/data_graph.h"

namespace claks {
namespace {

// ---------------------------------------------------------------------------
// Partition invariants
// ---------------------------------------------------------------------------

TEST(ShardOfNodeTest, HashIsDeterministicAndSpreadsShards) {
  for (uint32_t node : {0u, 1u, 17u, 1000u, 0xffffffffu}) {
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      EXPECT_EQ(ShardOfNode(node, shards), ShardOfNode(node, shards));
      EXPECT_LT(ShardOfNode(node, shards), shards);
    }
    EXPECT_EQ(ShardOfNode(node, 1), 0u);
  }
  // Dense table-major ids must not collapse into few shards: on the
  // scaled dataset every shard of a 4-way split gets some nodes.
  auto gen = GenerateCompanyDataset(CompanyGenOptions::AtScale(2));
  ASSERT_TRUE(gen.ok());
  auto engine = KeywordSearchEngine::Create(gen->db.get(), gen->er_schema,
                                            gen->mapping);
  ASSERT_TRUE(engine.ok());
  const DataGraph& graph = (*engine)->data_graph();
  std::vector<size_t> node_counts(4, 0);
  for (uint32_t node = 0; node < graph.node_id_bound(); ++node) {
    if (graph.IsNode(node)) ++node_counts[ShardOfNode(node, 4)];
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(node_counts[s], 0u) << "shard " << s;
  }
}

TEST(EffectiveShardsTest, ZeroBehavesLikeOne) {
  EXPECT_EQ(EffectiveShards(0), 1u);
  EXPECT_EQ(EffectiveShards(1), 1u);
  EXPECT_EQ(EffectiveShards(4), 4u);
}

// ---------------------------------------------------------------------------
// Engine-level sharding
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> Keys(const SearchResult& result,
                                      RankerKind kind) {
  auto ranker = MakeRanker(kind);
  std::vector<std::vector<double>> keys;
  for (const SearchHit& hit : result.hits) {
    keys.push_back(ranker->SortKey(hit.ToRankInput()));
  }
  return keys;
}

std::vector<std::string> Rendered(const SearchResult& result) {
  std::vector<std::string> out;
  for (const SearchHit& hit : result.hits) out.push_back(hit.rendered);
  return out;
}

class ShardedSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    auto engine = KeywordSearchEngine::Create(
        dataset_.db.get(), dataset_.er_schema, dataset_.mapping);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).ValueOrDie();
  }

  SearchResult Run(SearchMethod method, RankerKind ranker, size_t top_k,
                   size_t shards) {
    SearchOptions options;
    options.method = method;
    options.ranker = ranker;
    options.top_k = top_k;
    options.max_rdb_edges = 3;
    options.shards = shards;
    auto result = engine_->Search("Smith XML", options);
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueOrDie();
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(ShardedSearchTest, StreamHitsIdenticalAcrossShardCounts) {
  for (RankerKind ranker :
       {RankerKind::kRdbLength, RankerKind::kCloseFirst,
        RankerKind::kCombined /* non-monotone: full-drain fallback */}) {
    SearchResult unsharded =
        Run(SearchMethod::kStream, ranker, /*top_k=*/5, /*shards=*/1);
    for (size_t shards : {2u, 4u}) {
      SearchResult sharded =
          Run(SearchMethod::kStream, ranker, /*top_k=*/5, shards);
      EXPECT_EQ(Rendered(sharded), Rendered(unsharded))
          << RankerKindToString(ranker) << " shards=" << shards;
      EXPECT_EQ(Keys(sharded, ranker), Keys(unsharded, ranker))
          << RankerKindToString(ranker) << " shards=" << shards;
      // One serial stream at every shard count: the same work, not just
      // the same hits.
      EXPECT_EQ(sharded.expansions, unsharded.expansions)
          << RankerKindToString(ranker) << " shards=" << shards;
    }
  }
}

TEST_F(ShardedSearchTest, MaterializedMethodsIdenticalUnderShards) {
  for (SearchMethod method :
       {SearchMethod::kEnumerate, SearchMethod::kMtjnt,
        SearchMethod::kDiscover, SearchMethod::kBanks}) {
    SearchResult unsharded =
        Run(method, RankerKind::kCloseFirst, /*top_k=*/0, /*shards=*/1);
    SearchResult sharded =
        Run(method, RankerKind::kCloseFirst, /*top_k=*/0, /*shards=*/4);
    EXPECT_EQ(Rendered(sharded), Rendered(unsharded))
        << SearchMethodToString(method);
    EXPECT_EQ(Keys(sharded, RankerKind::kCloseFirst),
              Keys(unsharded, RankerKind::kCloseFirst))
        << SearchMethodToString(method);
    EXPECT_EQ(sharded.expansions, unsharded.expansions)
        << SearchMethodToString(method);
  }
}

}  // namespace
}  // namespace claks
