#include "pubsub/matcher.h"

#include <utility>

namespace reef::pubsub {

Value canonical_numeric(const Value& v) {
  // Fold ints onto their double image only when the image is exact: an
  // engine that trusts bucket identity without re-evaluating (bitset)
  // would otherwise merge 2^53 with 2^53+1 — values the exact
  // Value::compare keeps distinct — and report false matches.
  if (v.type() == Value::Type::kInt) {
    if (const auto d = Value::exact_double_of_int(v.as_int())) {
      return Value(*d);
    }
  }
  return v;
}

void Matcher::match_batch(const EventBatchView& events,
                          std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) match(events[i], out[i]);
}

void Matcher::match_batch_scored(
    const EventBatchView& events, const ScoringIndex& scoring,
    std::vector<std::vector<ScoredHit>>& out) const {
  std::vector<std::vector<SubscriptionId>> hits;
  match_batch(events, hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[i].reserve(hits[i].size());
    for (const SubscriptionId id : hits[i]) {
      const ScoringSpec* spec = scoring.find(id);
      out[i].push_back(
          {id, spec != nullptr ? score_event(*spec, events[i])
                               : kConstantScore});
    }
  }
}

// --- BruteForceMatcher ------------------------------------------------------

void BruteForceMatcher::add(SubscriptionId id, Filter filter) {
  filters_.insert_or_assign(id, std::move(filter));
}

void BruteForceMatcher::remove(SubscriptionId id) { filters_.erase(id); }

void BruteForceMatcher::match(const Event& event,
                              std::vector<SubscriptionId>& out) const {
  for (const auto& [id, filter] : filters_) {
    if (filter.matches(event)) out.push_back(id);
  }
}

void BruteForceMatcher::match_batch(
    const EventBatchView& events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  for (const auto& [id, filter] : filters_) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (filter.matches(events[i])) out[i].push_back(id);
    }
  }
}

}  // namespace reef::pubsub
