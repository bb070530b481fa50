// Copyright 2026 The claks Authors.
//
// Keyword query parsing and keyword-to-tuple matching. For a query
// "Smith XML" the matcher produces, per keyword, the set of tuples whose
// searchable text contains that keyword — the inputs of connection search.
//
// Entry points: ParseKeywordQuery (normalises through the index's
// tokenizer, collapses duplicates) then MatchKeywords against the
// inverted index (text/inverted_index.h). KeywordSearchEngine::Search
// calls both on every query and feeds the KeywordMatches to the chosen
// search method; core/mtjnt.h folds them into per-tuple keyword masks
// (DISCOVER's R^S partition semantics), and text/scoring.h turns the
// per-attribute hit counts into the text component of ranking. Keywords
// with no matches yield empty entries — AND/OR semantics stay with the
// caller (SearchOptions::require_all_keywords).

#ifndef CLAKS_TEXT_MATCHER_H_
#define CLAKS_TEXT_MATCHER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/inverted_index.h"

namespace claks {

/// A parsed keyword query.
struct KeywordQuery {
  std::vector<std::string> keywords;  ///< normalised, in query order

  std::string ToString() const;
};

/// Parses whitespace-separated keywords and normalises them with the index
/// tokenizer. Duplicate keywords collapse.
KeywordQuery ParseKeywordQuery(const std::string& text,
                               const Tokenizer& tokenizer);

/// Where and how often one keyword matched one tuple.
struct TupleMatch {
  TupleId tuple;
  /// attribute index -> term frequency within that attribute.
  std::map<uint32_t, uint32_t> attribute_hits;

  uint32_t TotalFrequency() const;
};

/// All matches of one keyword.
///
/// Invariant: `matches` is strictly ascending by TupleId (MatchKeywords
/// builds it from an ordered map, whatever the index's posting order —
/// fresh, derived, compacted or loaded from a snapshot). Find relies on
/// it, and it is what lets per-candidate analysis look a tree's tuples
/// up instead of scanning every match (docs/ARCHITECTURE.md, "per query,
/// not per candidate").
struct KeywordMatches {
  std::string keyword;
  std::vector<TupleMatch> matches;  ///< strictly ascending by TupleId

  bool empty() const { return matches.empty(); }
  std::set<TupleId> TupleSet() const;

  /// The match of `tuple`, or nullptr when this keyword does not match
  /// it. Binary search: O(log matches).
  const TupleMatch* Find(TupleId tuple) const;
};

/// Runs a query against the index: one KeywordMatches per query keyword.
/// Keywords with no matches yield an empty entry (the caller decides
/// AND/OR semantics).
std::vector<KeywordMatches> MatchKeywords(const InvertedIndex& index,
                                          const KeywordQuery& query);

/// True if every keyword matched at least one tuple.
bool AllKeywordsMatched(const std::vector<KeywordMatches>& matches);

}  // namespace claks

#endif  // CLAKS_TEXT_MATCHER_H_
