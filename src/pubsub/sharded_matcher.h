// Sharded matching engine: partitions filter state across N inner matchers
// so one broker can fan a match_batch out over a worker pool.
//
// Placement is static and content-based: a filter lands on the shard given
// by the hash of its *anchor attribute name* — the attribute of its first
// constraint in canonical order (filters are conjunctions, so a matching
// event necessarily carries every constrained attribute; any deterministic
// choice is correct). Filters with no constraints have no anchor and go to
// a dedicated spill shard. Each shard is a full Matcher instance of the
// configured inner engine, so sharding "bitset" splits its filter-slot
// bitmaps: each shard's threshold pass and bitmap ANDs span only its own
// slots, and an event skips the shards it cannot match. A routing table
// wraps its engine in this layer when RoutingTable::Config::shard_count > 1
// or worker_threads > 0.
//
// Shard-aware event pre-filtering: a filter can only match an event that
// carries the filter's own anchor attribute, so the matcher keeps an
// attribute-presence map (anchor AttrId -> shard, with a live-filter
// refcount) and routes each event of a batch only to the shards one of its
// attributes hashes to — plus the spill shard, which holds anchorless
// (universal) filters and therefore always participates, even for events
// with zero attributes. Sub-batches are *zero-copy*: the per-shard routing
// pass builds index lists once per batch (memoizing each attribute's shard
// in a dense AttrId-indexed table, so repeated attributes across the batch
// resolve without a hash probe) and hands every shard an EventBatchView
// over the original event storage — no Event is ever copied, gathered, or
// moved, however sparse the sub-batch. Shards no event reaches do no work
// at all. The events_routed / events_skipped counters expose the saved
// (event, shard) pairs to benches, so the win is visible even where
// wall-clock can't show it.
//
// match_batch fans one task per shard over the pool (plus the calling
// thread) into per-shard result buffers, then merges per event in
// ascending shard order (spill last). The merge order depends only on
// shard placement, never on thread scheduling — and a pre-filtered shard
// contributes exactly the hits it would have produced on the full batch
// (skipped (event, shard) pairs are provably matchless, and per-event
// engine output is independent of batch composition) — so output is
// identical for any worker_threads setting, including 0, and equal as a
// set to the unsharded inner engine's; tests/pubsub_sharding_test.cpp and
// the differential fuzz harness pin this down.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/engines.h"
#include "pubsub/matcher.h"
#include "util/thread_pool.h"

namespace reef::pubsub {

class ShardedMatcher final : public Matcher {
 public:
  struct Config {
    /// Anchor-hash shards (>= 1); the spill shard is always extra.
    std::size_t shard_count = 1;
    /// Pool threads for match_batch; 0 = run shards inline on the caller.
    std::size_t worker_threads = 0;
    /// Inner engine, by built-in name (make_matcher).
    std::string inner_engine = std::string(kDefaultEngine);
  };

  explicit ShardedMatcher(Config config);

  using Matcher::match;
  using Matcher::match_batch;
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  /// Fans the batch out over the shards (one task per shard, zero-copy
  /// index-span sub-batches) and merges the per-shard hit lists in shard
  /// order; see the file comment.
  void match_batch(const EventBatchView& events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  std::size_t size() const noexcept override { return placed_.size(); }
  /// A display label, "<inner>/<shard_count>" (e.g. "bitset/4");
  /// not an engine name make_matcher accepts.
  std::string name() const override {
    return config_.inner_engine + "/" + std::to_string(config_.shard_count);
  }

  // --- introspection (tests and benches) ------------------------------------
  std::size_t shard_count() const noexcept { return config_.shard_count; }
  std::size_t worker_threads() const noexcept {
    return config_.worker_threads;
  }
  /// Filters on anchor shard `shard` (< shard_count()).
  std::size_t shard_size(std::size_t shard) const {
    return shards_.at(shard)->size();
  }
  /// Anchorless (universal) filters parked on the spill shard.
  std::size_t spill_size() const { return shards_.back()->size(); }
  /// Cumulative (event, shard) pairs actually processed by a shard since
  /// construction (or the last reset).
  std::uint64_t events_routed() const noexcept { return events_routed_; }
  /// Cumulative (event, shard) pairs the pre-filter avoided.
  /// routed + skipped == events * (shard_count + 1).
  std::uint64_t events_skipped() const noexcept { return events_skipped_; }
  void reset_event_counters() const noexcept {
    events_routed_ = 0;
    events_skipped_ = 0;
  }

 private:
  /// Bookkeeping for one live anchor attribute: which shard it hashes to
  /// and how many registered filters are placed by it.
  struct AnchorAttr {
    std::size_t shard = 0;
    std::size_t count = 0;
  };
  /// Where a registered filter lives. `anchor_attr` is the placement
  /// attribute (kNoAttrId for spill-shard filters).
  struct Placement {
    std::size_t shard = 0;
    AttrId anchor_attr = kNoAttrId;
  };

  std::size_t shard_of(const Filter& filter) const noexcept;
  /// The one implementation of the pre-filter rule: the anchor shard the
  /// presence map routes `attr` to, or kNoAnchorShard when no live filter
  /// is placed by it. Both the single-event path (candidate_shards) and
  /// the batch memo resolve through this.
  static constexpr std::int32_t kNoAnchorShard = -1;
  std::int32_t anchor_shard_of(AttrId attr) const noexcept;
  /// Appends the shards `event` can possibly match on (ascending, spill
  /// last — the merge order).
  void candidate_shards(const Event& event,
                        std::vector<std::size_t>& out) const;

  Config config_;
  /// shard_count anchor shards followed by the spill shard.
  std::vector<std::unique_ptr<Matcher>> shards_;
  std::unordered_map<SubscriptionId, Placement> placed_;
  /// Attribute-presence map for the pre-filter: anchor attribute id ->
  /// {shard, live-filter count}, maintained on add/remove.
  std::unordered_map<AttrId, AnchorAttr, AttrIdHash> anchor_attrs_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when worker_threads == 0
  /// Pre-filter accounting; mutated only on the thread calling match /
  /// match_batch (before the fan-out), so no synchronization is needed.
  mutable std::uint64_t events_routed_ = 0;
  mutable std::uint64_t events_skipped_ = 0;
};

}  // namespace reef::pubsub
