// Copyright 2026 The claks Authors.

#include "text/matcher.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/macros.h"
#include "core/engine.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "relational/delta.h"
#include "storage/snapshot.h"

namespace claks {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    index_ = std::make_unique<InvertedIndex>(dataset_.db.get());
  }
  CompanyPaperDataset dataset_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(MatcherTest, ParseNormalisesAndDeduplicates) {
  KeywordQuery q =
      ParseKeywordQuery("Smith  XML xml SMITH", index_->tokenizer());
  EXPECT_EQ(q.keywords, (std::vector<std::string>{"smith", "xml"}));
  EXPECT_EQ(q.ToString(), "smith xml");
}

TEST_F(MatcherTest, ParseDropsEmptyTokens) {
  KeywordQuery q = ParseKeywordQuery("-- Smith ..", index_->tokenizer());
  EXPECT_EQ(q.keywords, (std::vector<std::string>{"smith"}));
  EXPECT_TRUE(ParseKeywordQuery("", index_->tokenizer()).keywords.empty());
}

TEST_F(MatcherTest, PaperQueryMatches) {
  KeywordQuery q = ParseKeywordQuery("Smith XML", index_->tokenizer());
  auto matches = MatchKeywords(*index_, q);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].keyword, "smith");
  EXPECT_EQ(matches[0].matches.size(), 2u);  // e1, e2
  EXPECT_EQ(matches[1].keyword, "xml");
  EXPECT_EQ(matches[1].matches.size(), 4u);  // d1, d2, p1, p2
  EXPECT_TRUE(AllKeywordsMatched(matches));
}

TEST_F(MatcherTest, TupleSetsAreSorted) {
  KeywordQuery q = ParseKeywordQuery("XML", index_->tokenizer());
  auto matches = MatchKeywords(*index_, q);
  ASSERT_EQ(matches.size(), 1u);
  auto set = matches[0].TupleSet();
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.count(PaperTuple(*dataset_.db, "d1")) > 0);
  EXPECT_TRUE(set.count(PaperTuple(*dataset_.db, "p2")) > 0);
}

TEST_F(MatcherTest, UnmatchedKeywordYieldsEmptyEntry) {
  KeywordQuery q = ParseKeywordQuery("Smith quantum", index_->tokenizer());
  auto matches = MatchKeywords(*index_, q);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_FALSE(matches[0].empty());
  EXPECT_TRUE(matches[1].empty());
  EXPECT_FALSE(AllKeywordsMatched(matches));
}

TEST_F(MatcherTest, AttributeHitsAggregated) {
  // "xml" occurs in both P_NAME and P_DESCRIPTION of p2.
  KeywordQuery q = ParseKeywordQuery("xml", index_->tokenizer());
  auto matches = MatchKeywords(*index_, q);
  TupleId p2 = PaperTuple(*dataset_.db, "p2");
  const TupleMatch* match = nullptr;
  for (const TupleMatch& m : matches[0].matches) {
    if (m.tuple == p2) match = &m;
  }
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(match->attribute_hits.size(), 2u);
  EXPECT_EQ(match->TotalFrequency(), 2u);
}

TEST_F(MatcherTest, FindLooksUpByTupleId) {
  KeywordQuery q = ParseKeywordQuery("XML", index_->tokenizer());
  auto matches = MatchKeywords(*index_, q);
  ASSERT_EQ(matches.size(), 1u);
  const KeywordMatches& xml = matches[0];
  ASSERT_EQ(xml.matches.size(), 4u);  // d1, d2, p1, p2
  // Hit, including the first and the last element of the list.
  for (const TupleMatch& m : xml.matches) {
    const TupleMatch* found = xml.Find(m.tuple);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &m);
  }
  EXPECT_EQ(xml.Find(xml.matches.front().tuple), &xml.matches.front());
  EXPECT_EQ(xml.Find(xml.matches.back().tuple), &xml.matches.back());
  // Miss: tuples of other tables, of the same table, and past the end.
  EXPECT_EQ(xml.Find(PaperTuple(*dataset_.db, "e1")), nullptr);
  EXPECT_EQ(xml.Find(PaperTuple(*dataset_.db, "d3")), nullptr);
  EXPECT_EQ(xml.Find(TupleId{UINT32_MAX, UINT32_MAX}), nullptr);
  // Empty list.
  KeywordMatches none;
  EXPECT_EQ(none.Find(xml.matches.front().tuple), nullptr);
}

TEST_F(MatcherTest, EmptyQuery) {
  auto matches = MatchKeywords(*index_, KeywordQuery{});
  EXPECT_TRUE(matches.empty());
  EXPECT_FALSE(AllKeywordsMatched(matches));
}

// KeywordMatches::Find binary-searches `matches`, so MatchKeywords must
// return each list strictly ascending by TupleId whatever index produced
// it: a fresh build, a delta-derived generation (with or without
// compaction) and an engine loaded from a snapshot.
const char kOrderProbe[] = "smith anna john xml databases zebrawood";

void ExpectStrictlyAscending(const std::vector<KeywordMatches>& matches) {
  ASSERT_FALSE(matches.empty());
  for (const KeywordMatches& km : matches) {
    for (size_t i = 1; i < km.matches.size(); ++i) {
      EXPECT_TRUE(km.matches[i - 1].tuple < km.matches[i].tuple)
          << km.keyword << " at " << i;
    }
  }
}

std::vector<std::vector<TupleId>> MatchedTuples(
    const std::vector<KeywordMatches>& matches) {
  std::vector<std::vector<TupleId>> out;
  for (const KeywordMatches& km : matches) {
    out.emplace_back();
    for (const TupleMatch& m : km.matches) out.back().push_back(m.tuple);
  }
  return out;
}

std::vector<KeywordMatches> Probe(const InvertedIndex& index) {
  return MatchKeywords(index, ParseKeywordQuery(kOrderProbe,
                                                index.tokenizer()));
}

GeneratedDataset Generated() {
  auto dataset = GenerateCompanyDataset(CompanyGenOptions::AtScale(2));
  CLAKS_CHECK(dataset.ok());
  return std::move(dataset).ValueOrDie();
}

TEST(MatchOrderTest, FreshIndexIsStrictlyAscending) {
  GeneratedDataset dataset = Generated();
  InvertedIndex index(dataset.db.get());
  auto matches = Probe(index);
  ExpectStrictlyAscending(matches);
  EXPECT_GT(matches[0].matches.size(), 1u);  // the probe has substance
}

TEST(MatchOrderTest, DerivedIndexIsStrictlyAscending) {
  GeneratedDataset dataset = Generated();
  InvertedIndex base(dataset.db.get());

  std::unique_ptr<Database> next = dataset.db->Clone();
  DatabaseWatermark watermark = TakeWatermark(*next);
  Table* employees = next->FindMutableTable("EMPLOYEE");
  Table* dependents = next->FindMutableTable("DEPENDENT");
  ASSERT_NE(employees, nullptr);
  ASSERT_NE(dependents, nullptr);
  // Inserted rows that match probe keywords land in the table tails (an
  // overlay on the frozen base); the deletes tombstone matched rows.
  ASSERT_TRUE(employees
                  ->InsertValues({Value::String("e9001"),
                                  Value::String("Smith"),
                                  Value::String("Anna"), Value::String("d1")})
                  .ok());
  ASSERT_TRUE(dependents
                  ->InsertValues({Value::String("t9001"),
                                  Value::String("zebrawood"),
                                  Value::String("e1")})
                  .ok());
  ASSERT_TRUE(dependents->DeleteByPrimaryKey({Value::String("t1")}).ok());
  ASSERT_TRUE(dependents->DeleteByPrimaryKey({Value::String("t2")}).ok());
  DatabaseDelta delta = ComputeDelta(watermark, *next);

  std::unique_ptr<InvertedIndex> derived =
      InvertedIndex::Derive(base, next.get(), delta);
  ASSERT_FALSE(derived->IsCompact());
  auto overlaid = Probe(*derived);
  ExpectStrictlyAscending(overlaid);
  // Same lists as a fresh build over the same rows.
  InvertedIndex fresh(next.get());
  EXPECT_EQ(MatchedTuples(overlaid), MatchedTuples(Probe(fresh)));

  derived->Compact();
  ASSERT_TRUE(derived->IsCompact());
  auto compacted = Probe(*derived);
  ExpectStrictlyAscending(compacted);
  EXPECT_EQ(MatchedTuples(compacted), MatchedTuples(overlaid));
}

TEST(MatchOrderTest, SnapshotLoadedEngineIsStrictlyAscending) {
  GeneratedDataset dataset = Generated();
  auto engine = KeywordSearchEngine::Create(
      dataset.db.get(), dataset.er_schema, dataset.mapping);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("claks_matcher_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string path = (dir / "engine.claks").string();
  ASSERT_TRUE(SaveEngineSnapshot(**engine, path).ok());
  Result<LoadedEngine> loaded = LoadEngineSnapshot(path);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto matches = Probe(loaded->engine->index());
  ExpectStrictlyAscending(matches);
  EXPECT_EQ(MatchedTuples(matches), MatchedTuples(Probe((*engine)->index())));
}

}  // namespace
}  // namespace claks
