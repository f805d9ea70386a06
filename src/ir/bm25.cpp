#include "ir/bm25.h"

#include <algorithm>

namespace reef::ir {

Bm25::Bm25(const Corpus& corpus, Bm25Params params)
    : corpus_(corpus), params_(params) {}

double Bm25::term_score(const std::string& term, const Document& doc) const {
  const double tf = doc.tf(term);
  if (tf == 0.0) return 0.0;
  const double avgdl = corpus_.avg_doc_length();
  const double dl = doc.length();
  const double norm =
      params_.k1 * (1.0 - params_.b + params_.b * (avgdl > 0 ? dl / avgdl : 1.0));
  return corpus_.idf(term) * (tf * (params_.k1 + 1.0)) / (tf + norm);
}

double Bm25::score(const std::vector<std::string>& query_terms,
                   std::size_t doc_index) const {
  const Document& doc = corpus_.doc(doc_index);
  double total = 0.0;
  for (const auto& term : query_terms) total += term_score(term, doc);
  return total;
}

double Bm25::score(const std::vector<ScoredTerm>& weighted_query,
                   std::size_t doc_index) const {
  const Document& doc = corpus_.doc(doc_index);
  double total = 0.0;
  for (const auto& [term, weight] : weighted_query) {
    if (!(weight > 0.0)) continue;  // negative, zero and NaN add nothing
    total += weight * term_score(term, doc);
  }
  return total;
}

template <typename Query>
std::vector<RankedDoc> Bm25::rank_impl(const Query& query) const {
  std::vector<RankedDoc> ranked;
  ranked.reserve(corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    ranked.push_back(RankedDoc{i, score(query, i)});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedDoc& a, const RankedDoc& b) {
                     return a.score > b.score;
                   });
  return ranked;
}

std::vector<RankedDoc> Bm25::rank(
    const std::vector<std::string>& query) const {
  return rank_impl(query);
}

std::vector<RankedDoc> Bm25::rank(const std::vector<ScoredTerm>& query) const {
  return rank_impl(query);
}

}  // namespace reef::ir
