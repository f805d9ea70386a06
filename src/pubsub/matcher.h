// Event-to-subscription matching engines.
//
// Two implementations share one interface, selected by name through
// make_matcher (see engines.h):
//   "brute-force"  — linear scan; the correctness oracle in tests and the
//                    ablation baseline in benches.
//   "bitset"       — the Gryphon/Siena counting algorithm over posting
//                    lists kept as bitmaps over filter slots (the caller's
//                    ids); matching is AND/ANDNOT/popcount word streams
//                    with a bit-sliced counting threshold pass (see
//                    bitset_matcher.h).
//
// The bitset engine keys its indices by interned AttrId (see
// attr_table.h), so the per-event inner loop is integer probes — no string
// hashing or compares survive past construction.
//
// Every engine has one match path: match_batch matches each event of a
// contiguous span in turn, reusing per-call scratch across the span. The
// broker's per-tick publication coalescing feeds it, and the routing
// table's worker split hands each worker a contiguous sub-span of one
// batch.
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

namespace reef::pubsub {

/// Identifier a matcher client associates with a registered filter.
using SubscriptionId = std::uint64_t;

/// Normalizes ints with an exact double image to that double, so Eq(3) and
/// an event value 3.0 land in the same hash bucket (Value::compare treats
/// them as equal). Ints beyond 2^53 whose image would round keep their int
/// identity — no double compares equal to them, so the buckets stay
/// correctly distinct. Identity on non-numeric values.
Value canonical_numeric(const Value& v);

/// Common interface of the matching engines.
///
/// ## The Matcher contract
///
/// Every built-in engine (engines.h) is held to two invariants; the
/// differential fuzz harness (tests/pubsub_differential_fuzz_test.cpp)
/// replays adversarial schedules through every engine, with and without
/// the routing table's worker split, against the brute-force oracle to
/// enforce them:
///
///   1. **Set semantics.** match / match_batch report exactly the ids of
///      the registered filters the event satisfies — no duplicates, order
///      unspecified. Engines are interchangeable up to hit order; callers
///      that need canonical output sort (the Broker does).
///   2. **Batch-composition independence.** The per-event output of
///      match_batch is a function of the event and the registered filters
///      only — never of which other events share the span or their order.
///      A contiguous sub-span produces exactly the hit lists, in the same
///      order, that the full batch would have produced at those positions.
///      The routing table's worker split is built on this: it cuts a batch
///      into contiguous ranges, matches each on its own thread, and
///      concatenates the outputs.
///
/// Callers meet one precondition: **ids are dense.** An engine may use the
/// id itself as a position (bitset uses it as the filter's bit in every
/// posting bitmap), so its memory grows with the largest id registered,
/// and bitset rejects an id that does not fit a FilterSlot. Callers
/// recycle freed ids instead of counting up forever. The routing table
/// registers each distinct filter once, under its interned FilterId
/// (reused LIFO), and expands a hit to the filter's registrations itself.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Registers `filter` under `id` (dense, see above). Re-adding an
  /// existing id replaces it. The engine keeps the one copy of the filter.
  virtual void add(SubscriptionId id, Filter filter) = 0;

  /// Removes a registration; unknown ids are ignored.
  virtual void remove(SubscriptionId id) = 0;

  /// Appends the ids of all filters matching `event` to `out` (order
  /// unspecified; no duplicates).
  virtual void match(const Event& event,
                     std::vector<SubscriptionId>& out) const = 0;

  /// Batch matching: replaces `out` with one hit vector per event,
  /// parallel to `events` (per-event contract as for `match`). Per-event
  /// output is independent of which other events share the span (contract
  /// point 2; the routing table's worker split relies on it). The base
  /// implementation loops over `match`; an engine overrides it only to
  /// reuse its per-event scratch across the span. Const and
  /// scratch-per-call, so several threads may match disjoint sub-spans at
  /// once.
  virtual void match_batch(std::span<const Event> events,
                           std::vector<std::vector<SubscriptionId>>& out) const;

  /// The filter registered under `id`, which must be registered. The
  /// reference is valid until the next add or remove (bitset keeps its
  /// filters in a vector indexed by slot, which an add may grow).
  virtual const Filter& filter(SubscriptionId id) const = 0;

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
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  const Filter& filter(SubscriptionId id) const override {
    return filters_.at(id);
  }
  std::size_t size() const noexcept override { return filters_.size(); }
  std::string name() const override { return "brute-force"; }

 private:
  std::unordered_map<SubscriptionId, Filter> filters_;
};

}  // namespace reef::pubsub
