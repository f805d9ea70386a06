// Event-to-subscription matching engines.
//
// Two implementations share one interface, selected by name through
// make_matcher (see engines.h):
//   "brute-force"  — linear scan; the correctness oracle in tests and the
//                    ablation baseline in benches.
//   "bitset"       — the Gryphon/Siena counting algorithm over posting
//                    lists kept as dense bitmaps over filter slots; batch
//                    matching is AND/ANDNOT/popcount word streams with a
//                    bit-sliced counting threshold pass (see
//                    bitset_matcher.h).
//
// The bitset engine keys its indices by interned AttrId (see
// attr_table.h), so the per-event inner loop is integer probes — no string
// hashing or compares survive past construction.
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
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/event.h"
#include "pubsub/filter.h"
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
/// Every built-in engine (engines.h) is held to two invariants; the
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

}  // namespace reef::pubsub
