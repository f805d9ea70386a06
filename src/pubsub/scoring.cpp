#include "pubsub/scoring.h"

#include <algorithm>
#include <unordered_map>

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

double score_event(const ScoringSpec& spec, const Event& event) {
  if (spec.policy == ScoringPolicy::kConstant) return kConstantScore;
  // One bag of words over the designated text attributes, in spec order.
  std::unordered_map<std::string, std::uint32_t> tf;
  std::size_t len = 0;
  for (const std::string& attr : spec.text_attrs) {
    const Value* value = event.find(attr);
    if (value == nullptr || !value->is_string()) continue;
    for (std::string& token : ir::tokenize(value->as_string())) {
      ++tf[std::move(token)];
      ++len;
    }
  }
  if (len == 0) return 0.0;
  const ir::Bm25Params params;
  const double norm =
      params.k1 *
      (1.0 - params.b +
       params.b * static_cast<double>(len) / kScoringAvgDocLen);
  double score = 0.0;
  // Summation order is the query order — fixed by the spec, so the
  // floating-point result is bit-identical everywhere.
  for (const ir::ScoredTerm& term : spec.query) {
    const auto it = tf.find(term.term);
    if (it == tf.end()) continue;
    const double weight = std::max(term.score, 0.0);
    const double freq = static_cast<double>(it->second);
    score += weight * freq * (params.k1 + 1.0) / (freq + norm);
  }
  return score;
}

void TopKSelector::offer(double score, std::uint32_t order) {
  const Entry entry{score, order};
  if (k_ == 0) {  // unlimited: everything survives, no heap discipline
    heap_.push_back(entry);
    return;
  }
  // Strict weak order "a is a better keep than b"; the heap's maximum
  // under it is the *worst* kept candidate, sitting at the root.
  const auto better = [](const Entry& a, const Entry& b) {
    return worse(b, a);
  };
  if (heap_.size() < k_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), better);
    return;
  }
  if (worse(entry, heap_.front())) return;  // not better than the worst kept
  std::pop_heap(heap_.begin(), heap_.end(), better);
  heap_.back() = entry;
  std::push_heap(heap_.begin(), heap_.end(), better);
}

std::vector<std::uint32_t> TopKSelector::take() {
  std::vector<std::uint32_t> orders;
  orders.reserve(heap_.size());
  for (const Entry& entry : heap_) orders.push_back(entry.order);
  heap_.clear();
  std::sort(orders.begin(), orders.end());
  return orders;
}

}  // namespace reef::pubsub
