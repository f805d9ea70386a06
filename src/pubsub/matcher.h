// Event-to-subscription matching engines.
//
// Three implementations share one interface, selected by name through
// make_matcher (see engines.h):
//   "brute-force"  — linear scan; the correctness oracle in tests and the
//                    ablation baseline in benches.
//   "anchor-index" — every filter anchored in exactly one per-op index
//                    structure: an equality hash bucket (keyed by its most
//                    selective eq constraint, or every member of its first
//                    in-set), a sorted numeric range bound array, a sorted
//                    string prefix table, a reversed-pattern suffix table,
//                    a contains table probed in one pass over the event
//                    string, or the residual scan list.
//   "bitset"       — the Gryphon/Siena counting algorithm over posting
//                    lists kept as dense bitmaps over filter slots; batch
//                    matching is AND/ANDNOT/popcount word streams with a
//                    bit-sliced counting threshold pass (see
//                    bitset_matcher.h).
//
// Every engine keys its indices by interned AttrId (see attr_table.h), so
// the per-event inner loop is integer probes — no string hashing or
// compares survive past construction.
//
// All engines expose a batch entry point, match_batch, which amortizes
// index probes and candidate fetches across a batch of events; the
// broker's per-tick publication coalescing feeds it. Batches are passed as
// an EventBatchView — a span of events plus an optional index span
// selecting a sub-batch *in place* — so the sharded layer's pre-filtered
// sub-batches reach the inner engines without copying a single Event.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/event.h"
#include "pubsub/filter.h"
#include "pubsub/range_index.h"
#include "pubsub/scoring.h"

namespace reef::pubsub {

/// Identifier a matcher client associates with a registered filter.
using SubscriptionId = std::uint64_t;

/// One scored boolean match: the subscription plus its relevance under the
/// subscription's ScoringSpec (kConstantScore when it has none).
struct ScoredHit {
  SubscriptionId id = 0;
  double score = kConstantScore;

  friend bool operator==(const ScoredHit&, const ScoredHit&) = default;
};

/// Registry of the non-neutral scoring specs among a matcher's
/// subscriptions, consulted by Matcher::match_batch_scored. Subscriptions
/// absent here score kConstantScore. Kept outside the engines on purpose:
/// scores *decorate* boolean matching (they are a pure function of (spec,
/// event), computed after the match), so no engine — sharded or not —
/// needs to know scoring exists, and identical match sets imply identical
/// scored output by construction.
class ScoringIndex {
 public:
  /// Registers (or replaces) the spec for `id`. Neutral specs are
  /// dropped — they are indistinguishable from absence.
  void set(SubscriptionId id, ScoringSpec spec) {
    if (spec.neutral()) {
      specs_.erase(id);
    } else {
      specs_[id] = std::move(spec);
    }
  }
  void erase(SubscriptionId id) { specs_.erase(id); }
  /// Spec for `id`, or nullptr when it scores the neutral constant. The
  /// pointer is stable until that id is set/erased (node-based map).
  const ScoringSpec* find(SubscriptionId id) const {
    const auto it = specs_.find(id);
    return it == specs_.end() ? nullptr : &it->second;
  }
  std::size_t size() const noexcept { return specs_.size(); }
  bool empty() const noexcept { return specs_.empty(); }

 private:
  std::unordered_map<SubscriptionId, ScoringSpec> specs_;
};

/// Normalizes ints with an exact double image to that double, so Eq(3) and
/// an event value 3.0 land in the same hash bucket (Value::compare treats
/// them as equal). Ints beyond 2^53 whose image would round keep their int
/// identity — no double compares equal to them, so the buckets stay
/// correctly distinct. Identity on non-numeric values.
Value canonical_numeric(const Value& v);

/// A zero-copy view of (a subset of) an event batch: the backing span plus
/// an optional index span selecting which events, in which order. The
/// sharded layer's pre-filter builds index lists once per batch and hands
/// each shard its slice of the original storage — no Event is ever copied
/// or moved. Both spans must outlive the view; the view itself is two
/// pointers and two sizes.
class EventBatchView {
 public:
  /// The whole batch, in order.
  explicit EventBatchView(std::span<const Event> events) noexcept
      : events_(events), all_(true) {}
  /// The sub-batch events_[indices_[0]], events_[indices_[1]], ...
  /// Every index must be < events.size().
  EventBatchView(std::span<const Event> events,
                 std::span<const std::uint32_t> indices) noexcept
      : events_(events), indices_(indices), all_(false) {}

  std::size_t size() const noexcept {
    return all_ ? events_.size() : indices_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  const Event& operator[](std::size_t pos) const noexcept {
    return all_ ? events_[pos] : events_[indices_[pos]];
  }
  /// Position in the *backing* span of the view's pos-th event.
  std::uint32_t backing_index(std::size_t pos) const noexcept {
    return all_ ? static_cast<std::uint32_t>(pos) : indices_[pos];
  }
  /// True when the view is the whole backing span in order.
  bool spans_all() const noexcept { return all_; }
  std::span<const Event> backing() const noexcept { return events_; }

 private:
  std::span<const Event> events_;
  std::span<const std::uint32_t> indices_;
  bool all_ = true;
};

/// Common interface of the matching engines.
///
/// ## The Matcher contract
///
/// Every built-in engine (engines.h) is held to three invariants; the
/// differential fuzz harness (tests/pubsub_differential_fuzz_test.cpp)
/// replays adversarial schedules through every engine, bare and sharded,
/// against the brute-force oracle to enforce them:
///
///   1. **Set semantics.** match / match_batch report exactly the ids of
///      the registered filters the event satisfies — no duplicates, order
///      unspecified. Engines are interchangeable up to hit order; callers
///      that need canonical output sort (the Broker does).
///   2. **Batch-composition independence.** The per-event output of
///      match_batch is a function of the event and the registered filters
///      only — never of which other events share the view, their order,
///      or whether the view is a sub-batch. A sub-batch view produces
///      exactly the hit lists the full batch would have produced at those
///      positions. The sharded layer's zero-copy pre-filter is built on
///      this: it hands each shard an index-span view and splices shard
///      outputs back by backing index.
///   3. **Maintenance transparency.** maintain() may restructure internal
///      state (re-anchor filters, rebuild buckets) but must never change
///      any match result — only probe cost. It may run at any point
///      between operations; the fuzz harness interleaves it with churn.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Registers `filter` under `id`. Re-adding an existing id replaces it.
  virtual void add(SubscriptionId id, Filter filter) = 0;

  /// Removes a registration; unknown ids are ignored.
  virtual void remove(SubscriptionId id) = 0;

  /// Appends the ids of all filters matching `event` to `out` (order
  /// unspecified; no duplicates).
  virtual void match(const Event& event,
                     std::vector<SubscriptionId>& out) const = 0;

  /// Batch matching: replaces `out` with one hit vector per event of the
  /// view, parallel to the view's order (per-event contract as for
  /// `match`). Per-event output is independent of which other events share
  /// the view — a sub-batch view produces exactly the hit lists the full
  /// batch would have produced at those positions (the sharded layer's
  /// zero-copy pre-filter relies on this; the differential fuzz harness
  /// enforces it). The base implementation loops over `match`; engines
  /// override it to amortize index probes across the batch.
  virtual void match_batch(const EventBatchView& events,
                           std::vector<std::vector<SubscriptionId>>& out) const;

  /// Convenience overload for whole-span callers (broker, tests, benches).
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out) const {
    match_batch(EventBatchView(events), out);
  }

  /// Scored batch matching: runs the engine's match_batch, then decorates
  /// each hit with score_event under its spec in `scoring` (kConstantScore
  /// for ids with no spec). Non-virtual on purpose — scoring happens on
  /// the calling thread *after* the (possibly sharded, multi-threaded)
  /// boolean match merges, so every engine inherits the same scored
  /// output for the same match sets, and the batch-composition
  /// independence of contract point 2 extends to scores: a sub-batch view
  /// produces exactly the (id, score) lists the full batch would have at
  /// those positions.
  void match_batch_scored(const EventBatchView& events,
                          const ScoringIndex& scoring,
                          std::vector<std::vector<ScoredHit>>& out) const;

  void match_batch_scored(std::span<const Event> events,
                          const ScoringIndex& scoring,
                          std::vector<std::vector<ScoredHit>>& out) const {
    match_batch_scored(EventBatchView(events), scoring, out);
  }

  /// Number of registered filters.
  virtual std::size_t size() const noexcept = 0;

  virtual std::string name() const = 0;

  /// Optional structural-maintenance hook. The routing layer calls it on a
  /// churn schedule (RoutingTable::Config::maintain_churn_threshold) so
  /// engines whose probe cost degrades under adversarial add/remove
  /// patterns can repair themselves in the production path: the anchor
  /// index re-runs anchor selection for filters stranded in equality
  /// buckets larger than `max_bucket` (IndexMatcher::rebalance), the
  /// sharded layer fans the call out to its shards. Must never change
  /// match results — only probe cost. Returns the number of structural
  /// changes made; the default (engines with no amortized state) is a
  /// no-op returning 0.
  virtual std::size_t maintain(std::size_t max_bucket) {
    (void)max_bucket;
    return 0;
  }

  /// Convenience wrapper returning a fresh vector.
  std::vector<SubscriptionId> match(const Event& event) const {
    std::vector<SubscriptionId> out;
    match(event, out);
    return out;
  }
};

/// Baseline: linear scan over all registered filters.
class BruteForceMatcher final : public Matcher {
 public:
  using Matcher::match;
  using Matcher::match_batch;
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  /// One pass over the table with the events in the inner loop (each
  /// filter is fetched once per batch instead of once per event).
  void match_batch(const EventBatchView& events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  std::size_t size() const noexcept override { return filters_.size(); }
  std::string name() const override { return "brute-force"; }

 private:
  std::unordered_map<SubscriptionId, Filter> filters_;
};

/// Anchor-index matcher. Every filter is indexed in exactly one place,
/// picked by anchor priority:
///
///   1. the smallest *current posting* among its equality buckets and the
///      exact-pattern postings of its indexable prefix / suffix / contains
///      constraints (the (attribute, value) bucket, or the one pattern's
///      entry in its table — see 4-6 for the tables), an equality bucket
///      winning ties. Posting size is the selectivity proxy: a filter
///      lands where it shares its probe with the fewest other filters;
///   2. absent eq constraints, the equality buckets of its first `in`
///      constraint: the filter is posted under *every* bucketable member
///      (an event value hits at most one member bucket, so the filter is
///      found at most once per probe);
///   3. absent those, a *sorted numeric bound array* for its first range
///      constraint (`<` `<=` `>` `>=` with a numeric bound): matching
///      binary-searches the event value against the sorted lower/upper
///      bound arrays and enumerates exactly the satisfied postings —
///      never the unsatisfied ones;
///   4-6. absent those, the smallest exact-pattern posting (first such
///      constraint on ties) in one of the pattern tables: the *sorted
///      string prefix table* (lexicographic binary probes, one per live
///      pattern length), the *reversed-pattern suffix table* (the same
///      probes against the reversed event string), or the *contains
///      table* (one pass over the event string tests every distinct
///      pattern) — see range_index.h for the probes, shared with the
///      bitset engine;
///   7. otherwise a residual per-attribute scan list (ne/exists, the
///      in-sets with no bucketable member, and range/prefix/suffix/
///      contains shapes the sorted structures cannot hold: string or NaN
///      bounds, non-string patterns). With every string search op
///      anchored in its own structure, only genuinely shapeless
///      constraints remain here.
///
/// Matching an event probes the structures of the event's own attribute
/// values and fully evaluates only the candidates found there; any anchor
/// is correct because it is a *necessary* condition of its filter (an
/// event matching the filter satisfies the anchor constraint, so the
/// probe finds it). Anchoring on the smallest posting steers filters away
/// from non-selective attributes (every feed subscription carries
/// stream="feed"; anchoring there would degenerate to a linear scan — the
/// classic content-based-matching pitfall). Content subscriptions
/// `stream = feed ∧ contains(text, term)` have no second eq constraint, so
/// their pattern postings are what keeps them out of the stream bucket.
class IndexMatcher final : public Matcher {
 public:
  using Matcher::match;
  using Matcher::match_batch;
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  /// Amortized batch path: the batch is flattened to (AttrId, event)
  /// occurrences and sorted by integer id, so each index probe runs once
  /// per distinct (attribute, value) across the batch — not once per
  /// event — and each candidate filter is fetched once per bucket and
  /// evaluated against only the events that reached its bucket.
  void match_batch(const EventBatchView& events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  std::size_t size() const noexcept override { return filters_.size(); }
  std::string name() const override { return "anchor-index"; }

  /// Introspection for tests and benches: filters anchored per structure
  /// (equality buckets, in-member buckets, sorted range arrays, prefix /
  /// suffix / contains tables, residual scan lists).
  std::size_t eq_anchored() const noexcept { return eq_count_; }
  std::size_t in_anchored() const noexcept { return in_count_; }
  std::size_t range_anchored() const noexcept { return range_count_; }
  std::size_t prefix_anchored() const noexcept { return prefix_count_; }
  std::size_t suffix_anchored() const noexcept { return suffix_count_; }
  std::size_t contains_anchored() const noexcept { return contains_count_; }
  std::size_t scan_anchored() const noexcept { return scan_count_; }
  /// Attribute a filter is currently anchored on (empty string for the
  /// universal list; nullopt for unknown ids). Test/bench introspection
  /// for the anchor-rebalancing behavior.
  std::optional<std::string> anchor_attribute(SubscriptionId id) const;
  /// Size of the largest equality bucket (0 when none exist); a scan over
  /// the buckets, for tests.
  std::size_t largest_eq_bucket() const noexcept;

  /// Anchor maintenance under adversarial churn: anchors are chosen at add
  /// time against the posting sizes of that moment, so a long-lived filter
  /// can sit in a bucket that has since grown far past its alternatives.
  /// This pass re-runs anchor selection — the same rule as add() — (in
  /// ascending id order, so it is deterministic) for every filter living
  /// in an equality bucket larger than `max_bucket`, and a filter moves
  /// only if another of its equality buckets or pattern postings is
  /// smaller than its current bucket at that point of the pass. Returns
  /// how many filters moved. Matching is correct for *any* anchor
  /// assignment — the pass only affects probe cost. Filters whose sole
  /// alternative-free constraint is the hot eq one (no second eq
  /// constraint, no indexable pattern) are pinned (they are skipped
  /// outright); largest_eq_bucket() stays above `max_bucket` in that case
  /// — the skew the churn test documents.
  std::size_t rebalance(std::size_t max_bucket);

  /// Maintenance hook: anchor rebalancing is this engine's structural
  /// repair (rebalance() itself no-ops cheaply when no bucket exceeds
  /// `max_bucket`).
  std::size_t maintain(std::size_t max_bucket) override {
    return rebalance(max_bucket);
  }

 private:
  enum class AnchorKind : std::uint8_t {
    kUniversal,  // empty filter, universal list
    kEqBucket,   // equality hash bucket
    kIn,         // equality buckets of every bucketable in-member
    kRange,      // sorted numeric bound array (lower or upper)
    kPrefix,     // sorted string prefix table
    kSuffix,     // reversed-pattern suffix table
    kContains,   // contains table (one-pass multi-pattern probe)
    kScan,       // residual per-attribute scan list
  };

  struct Entry {
    Filter filter;
    AnchorKind kind = AnchorKind::kUniversal;
    AttrId anchor_attr = kNoAttrId;  // kNoAttrId = universal list
    Value anchor_value;  // eq: canonical bucket key; range: the bound;
                         // prefix/suffix/contains: the original pattern;
                         // kIn: unused (removal re-finds the filter's
                         // first in constraint); otherwise unused
    bool anchor_strict = false;  // range: strict (< / >) bound
    bool anchor_lower = false;   // range: lower (>/>=) vs upper (</<=)
  };

  /// One range anchor posting: a sorted bound with its strictness.
  struct RangePosting {
    Value bound;  // numeric, non-NaN (is_sortable_range gatekeeps)
    bool strict;
    SubscriptionId id;
  };
  struct RangeIndex {
    std::vector<RangePosting> lower;  // >/>= — lower_bound_order
    std::vector<RangePosting> upper;  // </<= — upper_bound_order
  };
  /// One distinct prefix pattern with the filters anchored on it.
  struct PrefixPosting {
    std::string prefix;
    std::vector<SubscriptionId> ids;
  };
  struct PrefixIndex {
    std::vector<PrefixPosting> postings;  // sorted by pattern, distinct
    /// sorted (pattern length, live patterns of that length)
    std::vector<std::pair<std::size_t, std::size_t>> lengths;
  };
  /// Distinct contains patterns, each with the filters anchored on it.
  using ContainsIndex = ContainsTable<std::vector<SubscriptionId>>;

  /// Current population of each anchor `c` could take: its eq bucket or
  /// its exact pattern posting (0 when absent). Only called for eq and
  /// indexable prefix/suffix/contains constraints.
  std::size_t posting_size(const Constraint& c) const;

  std::unordered_map<SubscriptionId, Entry> filters_;
  /// attribute id -> canonical value -> filters anchored on (attr = value)
  std::unordered_map<AttrId,
                     std::unordered_map<Value, std::vector<SubscriptionId>>,
                     AttrIdHash>
      eq_;
  /// attribute id -> sorted range bound arrays of the filters anchored on
  /// a numeric range constraint of that attribute
  std::unordered_map<AttrId, RangeIndex, AttrIdHash> range_;
  /// attribute id -> sorted prefix table of the filters anchored on a
  /// string prefix constraint of that attribute
  std::unordered_map<AttrId, PrefixIndex, AttrIdHash> prefix_;
  /// attribute id -> reversed-pattern table of the filters anchored on a
  /// string suffix constraint of that attribute (PrefixIndex over the
  /// reversed patterns; probed with the reversed event string)
  std::unordered_map<AttrId, PrefixIndex, AttrIdHash> suffix_;
  /// attribute id -> contains table of the filters anchored on a string
  /// contains constraint of that attribute
  std::unordered_map<AttrId, ContainsIndex, AttrIdHash> contains_;
  /// attribute id -> residual filters (no indexable anchor shape)
  std::unordered_map<AttrId, std::vector<SubscriptionId>, AttrIdHash> scan_;
  std::vector<SubscriptionId> universal_;  // empty filters match everything
  std::size_t eq_count_ = 0;
  std::size_t in_count_ = 0;
  std::size_t range_count_ = 0;
  std::size_t prefix_count_ = 0;
  std::size_t suffix_count_ = 0;
  std::size_t contains_count_ = 0;
  std::size_t scan_count_ = 0;
};

}  // namespace reef::pubsub
