#include "pubsub/scoring.h"

#include <algorithm>

#include "ir/bm25.h"
#include "ir/tokenizer.h"
#include "util/hash.h"

namespace reef::pubsub {

const char* scoring_policy_name(ScoringPolicy policy) noexcept {
  switch (policy) {
    case ScoringPolicy::kConstant: return "constant";
    case ScoringPolicy::kBm25: return "bm25";
  }
  return "unknown";
}

std::size_t ScoringSpec::wire_size() const noexcept {
  if (neutral()) return 0;
  // policy tag + top_k + min_score framing, then the query terms (term
  // bytes + 8-byte weight + 2 bytes framing) and attribute names (2 bytes
  // framing each) — mirrors the filter/constraint accounting style in
  // messages.h.
  std::size_t bytes = 1 + 4 + 8;
  for (const ir::ScoredTerm& term : query) bytes += term.term.size() + 10;
  for (const std::string& attr : text_attrs) bytes += attr.size() + 2;
  return bytes;
}

std::uint64_t ScoringSpec::hash() const noexcept {
  if (neutral()) return 0;
  std::uint64_t h = util::fnv1a64(summary());
  return h == 0 ? 1 : h;  // keep "non-neutral" distinguishable from absent
}

std::string ScoringSpec::summary() const {
  std::string out = "score(";
  out += scoring_policy_name(policy);
  out += " k=" + std::to_string(top_k);
  out += " min=" + Value(min_score).to_string();
  out += " q=[";
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (i > 0) out += ',';
    out += query[i].term + ":" + Value(query[i].score).to_string();
  }
  out += "] attrs=[";
  for (std::size_t i = 0; i < text_attrs.size(); ++i) {
    if (i > 0) out += ',';
    out += text_attrs[i];
  }
  out += "])";
  return out;
}

std::uint64_t client_subscription_digest(SubscriptionId sub_id,
                                         const Filter& filter,
                                         const ScoringSpec& spec) {
  std::uint64_t digest =
      util::hash_combine(util::fnv1a64(filter.key()), sub_id);
  if (!spec.neutral()) digest ^= util::hash_combine(spec.hash(), sub_id);
  return digest;
}

void TermBag::assign(const Event& event, std::span<const AttrId> attrs) {
  bytes_.clear();
  ends_.clear();
  entries_.clear();
  for (const AttrId attr : attrs) {
    const Value* value = event.find(attr);
    if (value == nullptr || !value->is_string()) continue;
    ir::tokenize_append(value->as_string(), ir::TokenizerOptions{}, bytes_,
                        ends_);
  }
  std::size_t begin = 0;
  for (const std::size_t end : ends_) {
    entries_.push_back(Entry{begin, end - begin, 1});
    begin = end;
  }
  std::sort(entries_.begin(), entries_.end(),
            [this](const Entry& a, const Entry& b) {
              return token(a) < token(b);
            });
  // Collapse runs of equal tokens into one entry counting them.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (kept > 0 && token(entries_[kept - 1]) == token(entries_[i])) {
      ++entries_[kept - 1].tf;
    } else {
      entries_[kept++] = entries_[i];
    }
  }
  entries_.resize(kept);
}

std::uint32_t TermBag::frequency(std::string_view term) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [this](const Entry& entry, std::string_view t) {
        return token(entry) < t;
      });
  return it != entries_.end() && token(*it) == term ? it->tf : 0;
}

double TermBag::score(const std::vector<ir::ScoredTerm>& query) const noexcept {
  if (length() == 0) return 0.0;
  const ir::Bm25Params params;
  const double norm =
      params.k1 *
      (1.0 - params.b +
       params.b * static_cast<double>(length()) / kScoringAvgDocLen);
  double score = 0.0;
  // Summation order is the query order — fixed by the spec, so the
  // floating-point result is bit-identical everywhere.
  for (const ir::ScoredTerm& term : query) {
    const std::uint32_t tf = frequency(term.term);
    if (tf == 0) continue;
    const double weight = term.score > 0.0 ? term.score : 0.0;
    const double freq = static_cast<double>(tf);
    score += weight * freq * (params.k1 + 1.0) / (freq + norm);
  }
  return score;
}

double score_event(const ScoringSpec& spec, const Event& event) {
  if (spec.policy == ScoringPolicy::kConstant) return kConstantScore;
  std::vector<AttrId> attr_ids;
  attr_ids.reserve(spec.text_attrs.size());
  for (const std::string& attr : spec.text_attrs) {
    // A name never interned is on no event, so it adds nothing.
    const AttrId id = AttrTable::instance().lookup(attr);
    if (id != kNoAttrId) attr_ids.push_back(id);
  }
  TermBag bag;
  bag.assign(event, attr_ids);
  return bag.score(spec.query);
}

TopKCut cut_top_k(std::span<TopKCandidate> window, std::uint32_t top_k,
                  double min_score) {
  const auto eligible_end = std::partition(
      window.begin(), window.end(),
      [min_score](const TopKCandidate& c) { return !(c.score < min_score); });
  TopKCut cut;
  cut.eligible = static_cast<std::size_t>(eligible_end - window.begin());
  cut.kept = cut.eligible;
  if (top_k != 0 && cut.eligible > top_k) {
    cut.kept = top_k;
    // The total keep order: higher score first, then earlier event.
    std::nth_element(window.begin(), window.begin() + top_k, eligible_end,
                     [](const TopKCandidate& a, const TopKCandidate& b) {
                       if (a.score != b.score) return a.score > b.score;
                       return a.order < b.order;
                     });
  }
  return cut;
}

}  // namespace reef::pubsub
