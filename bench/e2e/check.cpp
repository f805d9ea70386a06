// Correctness check of a run, outside every timed region: the delivered
// (event, subscription) pairs of the checked events against a bench-side
// evaluation of the same subscriptions.
#include <algorithm>
#include <set>
#include <unordered_map>

#include "harness.h"

namespace e2e {

namespace {

/// On sub_churn, a subscription whose lifetime starts or ends this close
/// to a publish may legitimately race it (pub/sub gives no ordering
/// guarantee there), so only subscriptions live across the whole margin
/// must receive the event.
constexpr sim::Time kRaceMargin = 100 * sim::kMillisecond;

using IdSet = std::set<pubsub::SubscriptionId>;

/// Unscored subscriptions that must receive `event`. The population of
/// the other workloads is settled before the first publish and never
/// changes, so there every matching subscription must.
void expected_boolean(const Harness& h, const pubsub::Event& event,
                      sim::Time published, IdSet& must) {
  const bool churn = h.in.workload == Workload::kSubChurn;
  for (const SubRecord& rec : h.subs) {
    if (!rec.spec.scoring.neutral()) continue;
    if (churn && (rec.subscribed > published - kRaceMargin ||
                  (rec.unsubscribed != kNever &&
                   rec.unsubscribed < published + kRaceMargin))) {
      continue;
    }
    if (rec.spec.filter.matches(event)) must.insert(rec.id);
  }
}

/// Survivors of each scored subscription over one publication bundle:
/// the top_k matching events by score, ties to the earlier event.
void expected_scored(const Harness& h,
                     const std::vector<pubsub::Event>& bundle,
                     std::uint64_t first_seq,
                     std::map<std::uint64_t, IdSet>& must) {
  for (const SubRecord& rec : h.subs) {
    if (rec.spec.scoring.neutral()) continue;
    std::vector<std::pair<double, std::uint32_t>> cands;
    for (std::uint32_t i = 0; i < bundle.size(); ++i) {
      if (!rec.spec.filter.matches(bundle[i])) continue;
      cands.emplace_back(pubsub::score_event(rec.spec.scoring, bundle[i]), i);
    }
    std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const std::size_t keep =
        std::min<std::size_t>(cands.size(), rec.spec.scoring.top_k);
    for (std::size_t k = 0; k < keep; ++k) {
      must[first_seq + cands[k].second].insert(rec.id);
    }
  }
}

}  // namespace

CheckResult check_deliveries(const Harness& h, sim::Time start,
                             std::uint64_t ticks) {
  std::unordered_map<std::uint64_t, IdSet> delivered;
  for (const auto& [seq, sub] : h.log.checked) delivered[seq].insert(sub);
  std::unordered_map<pubsub::SubscriptionId, const SubRecord*> by_id;
  for (const SubRecord& rec : h.subs) by_id.emplace(rec.id, &rec);

  CheckResult result;
  const Workload w = h.in.workload;
  Schedule schedule(h.in, start);
  Tick tick;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    schedule.next(tick);
    if (tick.events.empty()) continue;
    const sim::Time published = start + static_cast<sim::Time>(t) * kTick;
    const std::uint64_t first_seq = schedule.events() - tick.events.size();
    std::map<std::uint64_t, IdSet> must_by_seq;
    if (w == Workload::kScoredTopk && is_checked(w, first_seq)) {
      expected_scored(h, tick.events, first_seq, must_by_seq);
    }
    for (std::size_t i = 0; i < tick.events.size(); ++i) {
      const std::uint64_t seq = first_seq + i;
      if (!is_checked(w, seq)) continue;
      IdSet& must = must_by_seq[seq];
      expected_boolean(h, tick.events[i], published, must);
      const IdSet& got = delivered[seq];
      for (const pubsub::SubscriptionId id : must) {
        ++result.checked;
        if (!got.contains(id)) ++result.missed;
      }
      for (const pubsub::SubscriptionId id : got) {
        if (must.contains(id)) continue;
        ++result.checked;
        // Outside the required set only a sub_churn delivery to a matching
        // filter inside the race margin is legal.
        const SubRecord& rec = *by_id.at(id);
        const bool raced = w == Workload::kSubChurn &&
                           rec.spec.filter.matches(tick.events[i]);
        if (!raced) ++result.spurious;
      }
    }
  }
  return result;
}

}  // namespace e2e
