// Okapi BM25 ranking, used by the content-based recommender to order video
// news stories against the query built from a user's browsing terms
// (paper §3.3, footnote 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/corpus.h"
#include "ir/term_weighting.h"

namespace reef::ir {

struct Bm25Params {
  double k1 = 1.2;  ///< term-frequency saturation
  double b = 0.75;  ///< length normalization
};

/// One ranked search result: corpus index plus score.
struct RankedDoc {
  std::size_t index = 0;
  double score = 0.0;

  friend bool operator==(const RankedDoc&, const RankedDoc&) = default;
};

/// BM25 scorer bound to a corpus. The corpus must outlive the scorer.
class Bm25 {
 public:
  explicit Bm25(const Corpus& corpus, Bm25Params params = {});

  /// Score of one document for an unweighted term query.
  double score(const std::vector<std::string>& query_terms,
               std::size_t doc_index) const;

  /// Score with per-term query weights (e.g. Offer Weight scores); each
  /// term's BM25 contribution is multiplied by its weight, and a weight
  /// that is not > 0 (negative, zero or NaN) contributes nothing.
  double score(const std::vector<ScoredTerm>& weighted_query,
               std::size_t doc_index) const;

  /// Ranks the entire corpus by descending score; ties break by ascending
  /// index so rankings are deterministic. Zero-score documents keep their
  /// corpus order at the tail.
  std::vector<RankedDoc> rank(const std::vector<std::string>& query) const;
  std::vector<RankedDoc> rank(const std::vector<ScoredTerm>& query) const;

  const Bm25Params& params() const noexcept { return params_; }

 private:
  double term_score(const std::string& term, const Document& doc) const;
  template <typename Query>
  std::vector<RankedDoc> rank_impl(const Query& query) const;

  const Corpus& corpus_;
  Bm25Params params_;
};

}  // namespace reef::ir
