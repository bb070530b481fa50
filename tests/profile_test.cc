// Copyright 2026 The claks Authors.
//
// QueryProfile work counters: `candidates` (trees analysed) next to `hits`
// (trees returned), filled on the materialized path and the streaming
// path, and rendered by Summary() and ToString().

#include "observability/profile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/macros.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "datasets/company_gen.h"

namespace claks {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = GenerateCompanyDataset(CompanyGenOptions::AtScale(2));
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    auto engine = KeywordSearchEngine::Create(
        dataset_.db.get(), dataset_.er_schema, dataset_.mapping);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).ValueOrDie();
  }

  SearchResult Search(SearchMethod method, size_t top_k) {
    SearchOptions options;
    options.method = method;
    options.top_k = top_k;
    options.max_rdb_edges = 3;
    options.tmax = 4;
    options.profile = true;
    auto result = engine_->Search("xml smith", options);
    CLAKS_CHECK(result.ok());
    CLAKS_CHECK(result->profile.has_value());
    return std::move(result).ValueOrDie();
  }

  GeneratedDataset dataset_;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(ProfileTest, MaterializedCountsEveryAnalysedTree) {
  for (SearchMethod method : {SearchMethod::kEnumerate,
                              SearchMethod::kDiscover, SearchMethod::kBanks}) {
    SCOPED_TRACE(SearchMethodToString(method));
    // Unbounded: every analysed tree is returned.
    SearchResult all = Search(method, /*top_k=*/0);
    ASSERT_FALSE(all.hits.empty());
    EXPECT_EQ(all.profile->candidates, all.hits.size());
    EXPECT_EQ(all.profile->hits, all.hits.size());
    // top-3: the same candidates are analysed, only three are returned.
    SearchResult top = Search(method, /*top_k=*/3);
    ASSERT_EQ(top.hits.size(), 3u);
    EXPECT_EQ(top.profile->hits, 3u);
    if (method != SearchMethod::kBanks) {
      // BANKS fetches fewer answer trees when top_k bounds it.
      EXPECT_EQ(top.profile->candidates, all.profile->candidates);
    }
    EXPECT_GT(top.profile->candidates, top.profile->hits);
  }
}

TEST_F(ProfileTest, StreamCountsPulledCandidates) {
  SearchResult all = Search(SearchMethod::kEnumerate, /*top_k=*/0);
  SearchResult top = Search(SearchMethod::kStream, /*top_k=*/3);
  ASSERT_EQ(top.hits.size(), 3u);
  EXPECT_EQ(top.profile->hits, 3u);
  // Settled-k stops the stream early: it analyses at least the returned
  // hits and at most the whole result space.
  EXPECT_GE(top.profile->candidates, top.profile->hits);
  EXPECT_LE(top.profile->candidates, all.profile->candidates);
}

TEST_F(ProfileTest, CandidatesAreRendered) {
  SearchResult result = Search(SearchMethod::kEnumerate, /*top_k=*/3);
  const QueryProfile& profile = *result.profile;
  const std::string summary = profile.Summary();
  EXPECT_NE(summary.find(" candidates=" + std::to_string(profile.candidates) +
                         " hits=3"),
            std::string::npos)
      << summary;
  const std::string table = profile.ToString();
  EXPECT_NE(table.find("candidates: " + std::to_string(profile.candidates)),
            std::string::npos)
      << table;
}

TEST_F(ProfileTest, CursorStatsCarryCandidates) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 6;
  options.max_rdb_edges = 3;
  options.profile = true;
  auto prepared = engine_->Prepare("xml smith", options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto cursor = prepared->Open();
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE((*cursor)->Next(3).ok());
  CursorStats first = (*cursor)->Stats();
  ASSERT_TRUE(first.profile.has_value());
  EXPECT_EQ(first.profile->hits, 3u);
  EXPECT_GE(first.profile->candidates, 3u);
  ASSERT_TRUE((*cursor)->Next(3).ok());
  CursorStats second = (*cursor)->Stats();
  // The lazy cursor pulls more candidates only as pages are requested.
  EXPECT_GE(second.profile->candidates, first.profile->candidates);
  EXPECT_GE(second.profile->candidates, second.profile->hits);
}

}  // namespace
}  // namespace claks
