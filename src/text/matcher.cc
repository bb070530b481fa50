// Copyright 2026 The claks Authors.

#include "text/matcher.h"

#include <algorithm>

#include "common/string_util.h"

namespace claks {

std::string KeywordQuery::ToString() const { return Join(keywords, " "); }

KeywordQuery ParseKeywordQuery(const std::string& text,
                               const Tokenizer& tokenizer) {
  KeywordQuery query;
  for (const auto& raw : SplitWhitespace(text)) {
    std::string normalised = tokenizer.NormalizeToken(raw);
    if (normalised.empty()) continue;
    if (std::find(query.keywords.begin(), query.keywords.end(),
                  normalised) == query.keywords.end()) {
      query.keywords.push_back(std::move(normalised));
    }
  }
  return query;
}

uint32_t TupleMatch::TotalFrequency() const {
  uint32_t total = 0;
  for (const auto& [attr, tf] : attribute_hits) total += tf;
  return total;
}

std::set<TupleId> KeywordMatches::TupleSet() const {
  std::set<TupleId> out;
  for (const TupleMatch& m : matches) out.insert(m.tuple);
  return out;
}

const TupleMatch* KeywordMatches::Find(TupleId tuple) const {
  auto it = std::lower_bound(
      matches.begin(), matches.end(), tuple,
      [](const TupleMatch& m, TupleId t) { return m.tuple < t; });
  return it != matches.end() && it->tuple == tuple ? &*it : nullptr;
}

std::vector<KeywordMatches> MatchKeywords(const InvertedIndex& index,
                                          const KeywordQuery& query) {
  std::vector<KeywordMatches> out;
  out.reserve(query.keywords.size());
  for (const std::string& keyword : query.keywords) {
    KeywordMatches km;
    km.keyword = keyword;
    std::map<TupleId, TupleMatch> by_tuple;
    for (const Posting& posting : index.Lookup(keyword)) {
      TupleMatch& match = by_tuple[posting.tuple];
      match.tuple = posting.tuple;
      match.attribute_hits[posting.attribute_index] +=
          posting.term_frequency;
    }
    km.matches.reserve(by_tuple.size());
    for (auto& [tuple, match] : by_tuple) {
      km.matches.push_back(std::move(match));
    }
    out.push_back(std::move(km));
  }
  return out;
}

bool AllKeywordsMatched(const std::vector<KeywordMatches>& matches) {
  for (const auto& km : matches) {
    if (km.empty()) return false;
  }
  return !matches.empty();
}

}  // namespace claks
