#include "pubsub/sharded_matcher.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/hash.h"

namespace reef::pubsub {

ShardedMatcher::ShardedMatcher(Config config) : config_(std::move(config)) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ShardedMatcher: shard_count must be >= 1");
  }
  shards_.reserve(config_.shard_count + 1);
  for (std::size_t i = 0; i < config_.shard_count + 1; ++i) {
    shards_.push_back(make_matcher(config_.inner_engine));
  }
  if (config_.worker_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(config_.worker_threads);
  }
}

std::size_t ShardedMatcher::shard_of(const Filter& filter) const noexcept {
  if (filter.empty()) return config_.shard_count;  // spill
  // Hash the attribute *name*, not the AttrId: placement stays a pure
  // function of the filter's content, independent of interning order.
  const std::string& attr = filter.constraints().front().attribute();
  return util::fnv1a64(attr) % config_.shard_count;
}

void ShardedMatcher::add(SubscriptionId id, Filter filter) {
  remove(id);  // replace semantics may move shards / change the anchor
  Placement placement;
  placement.shard = shard_of(filter);
  if (!filter.empty()) {
    placement.anchor_attr = filter.constraints().front().attr_id();
    AnchorAttr& info = anchor_attrs_[placement.anchor_attr];
    info.shard = placement.shard;
    ++info.count;
  }
  shards_[placement.shard]->add(id, std::move(filter));
  placed_.emplace(id, placement);
}

void ShardedMatcher::remove(SubscriptionId id) {
  const auto it = placed_.find(id);
  if (it == placed_.end()) return;
  const Placement& placement = it->second;
  shards_[placement.shard]->remove(id);
  if (placement.shard != config_.shard_count) {  // not a spill filter
    const auto attr_it = anchor_attrs_.find(placement.anchor_attr);
    if (--attr_it->second.count == 0) anchor_attrs_.erase(attr_it);
  }
  placed_.erase(it);
}

std::int32_t ShardedMatcher::anchor_shard_of(AttrId attr) const noexcept {
  const auto it = anchor_attrs_.find(attr);
  return it == anchor_attrs_.end()
             ? kNoAnchorShard
             : static_cast<std::int32_t>(it->second.shard);
}

void ShardedMatcher::candidate_shards(const Event& event,
                                      std::vector<std::size_t>& out) const {
  // A filter on shard s matches `event` only if the event carries the
  // filter's placement anchor, and that attribute is in anchor_attrs_ with
  // shard s — so the candidate set is exactly the shards the event's own
  // attributes hash to, plus the spill shard, whose anchorless filters
  // match anything. Events carry a handful of attributes, so a linear
  // dedup over the appended slice beats any mark table.
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (const auto& [attr, value] : event.attrs()) {
    const std::int32_t shard = anchor_shard_of(attr);
    if (shard == kNoAnchorShard) continue;
    const auto s = static_cast<std::size_t>(shard);
    if (std::find(out.begin() + first, out.end(), s) == out.end()) {
      out.push_back(s);
    }
  }
  std::sort(out.begin() + first, out.end());
  out.push_back(config_.shard_count);  // spill always participates, last
}

void ShardedMatcher::match(const Event& event,
                           std::vector<SubscriptionId>& out) const {
  std::vector<std::size_t> candidates;
  candidate_shards(event, candidates);
  events_routed_ += candidates.size();
  events_skipped_ += shards_.size() - candidates.size();
  for (const std::size_t s : candidates) shards_[s]->match(event, out);
}

void ShardedMatcher::match_batch(
    const EventBatchView& events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  const std::size_t shard_total = shards_.size();
  const std::size_t count = events.size();
  // Pre-filter routing: the view positions each shard must see, in view
  // order. Sub-batches are index spans over the original event storage —
  // zero event copies, however sparse the slice — so there is no gather
  // cost to amortize and no copy threshold: every shard simply gets
  // exactly the events that can match it. Each attribute's shard is
  // resolved once per batch through a dense AttrId-indexed memo (repeat
  // attributes — the common case — skip even the presence-map probe).
  // Everything here runs on the calling thread, so the fan-out below
  // stays free of shared mutable state.
  std::vector<std::vector<std::uint32_t>> routed(shard_total);
  constexpr std::int32_t kUnresolved = -2;
  // Memo sized to the largest id in the batch (attrs are id-sorted),
  // never the whole interned universe — and skipped entirely when even
  // that span dwarfs the batch (a stray late-interned id would buy an
  // allocation larger than the work it saves; the identity-hash
  // presence-map probe is the fallback).
  AttrId max_attr = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& attrs = events[i].attrs();
    if (!attrs.empty()) max_attr = std::max(max_attr, attrs.back().first);
  }
  const std::size_t memo_span = static_cast<std::size_t>(max_attr) + 1;
  const bool use_memo = memo_span <= 8 * count + 256;
  std::vector<std::int32_t> shard_memo(use_memo ? memo_span : 0,
                                       kUnresolved);
  const auto shard_of_attr = [&](AttrId attr) -> std::int32_t {
    std::int32_t probed = kUnresolved;
    std::int32_t& memo = use_memo ? shard_memo[attr] : probed;
    if (memo == kUnresolved) memo = anchor_shard_of(attr);
    return memo;
  };
  std::vector<std::size_t> candidates;
  std::size_t routed_total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    candidates.clear();
    for (const auto& [attr, value] : events[i].attrs()) {
      const std::int32_t shard = shard_of_attr(attr);
      if (shard == kNoAnchorShard) continue;
      const auto s = static_cast<std::size_t>(shard);
      if (std::find(candidates.begin(), candidates.end(), s) ==
          candidates.end()) {
        candidates.push_back(s);
      }
    }
    for (const std::size_t s : candidates) routed[s].push_back(i);
    // The spill shard sees everything; it runs the full view below, so
    // no index list is materialized for it — only the accounting.
    routed_total += candidates.size() + 1;
  }
  events_routed_ += routed_total;
  events_skipped_ += shard_total * count - routed_total;
  // One result buffer per shard; each task writes only its own slot, so
  // the fan-out needs no locking and the merge below is scheduling-free.
  // Pre-filtered shards match their index-span sub-view and scatter the
  // hits back to the view positions.
  std::vector<std::vector<std::vector<SubscriptionId>>> per_shard(
      shard_total);
  const auto task = [&](std::size_t s) {
    if (s == config_.shard_count ||  // spill: full view
        routed[s].size() == count) {
      shards_[s]->match_batch(events, per_shard[s]);
      return;
    }
    auto& scattered = per_shard[s];
    scattered.assign(count, {});
    if (routed[s].empty() || shards_[s]->size() == 0) return;
    // Translate view positions to backing-span indices (identity when the
    // incoming view is the whole span — the broker path).
    std::span<const std::uint32_t> indices = routed[s];
    std::vector<std::uint32_t> translated;
    if (!events.spans_all()) {
      translated.reserve(routed[s].size());
      for (const std::uint32_t pos : routed[s]) {
        translated.push_back(events.backing_index(pos));
      }
      indices = translated;
    }
    std::vector<std::vector<SubscriptionId>> sub_hits;
    shards_[s]->match_batch(EventBatchView(events.backing(), indices),
                            sub_hits);
    for (std::size_t j = 0; j < routed[s].size(); ++j) {
      scattered[routed[s][j]] = std::move(sub_hits[j]);
    }
  };
  if (pool_) {
    pool_->parallel_for(shard_total, task);
  } else {
    for (std::size_t s = 0; s < shard_total; ++s) task(s);
  }
  out.assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t hits = 0;
    for (std::size_t s = 0; s < shard_total; ++s) hits += per_shard[s][i].size();
    out[i].reserve(hits);
    for (std::size_t s = 0; s < shard_total; ++s) {
      out[i].insert(out[i].end(), per_shard[s][i].begin(),
                    per_shard[s][i].end());
    }
  }
}

}  // namespace reef::pubsub
