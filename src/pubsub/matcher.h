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
// index probes and candidate fetches across a contiguous span of events;
// the broker's per-tick publication coalescing feeds it, and the routing
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

  /// Batch matching: replaces `out` with one hit vector per event,
  /// parallel to `events` (per-event contract as for `match`). Per-event
  /// output is independent of which other events share the span (contract
  /// point 2; the routing table's worker split relies on it). The base
  /// implementation loops over `match`; engines override it to amortize
  /// index probes across the batch. Const and scratch-per-call, so several
  /// threads may match disjoint sub-spans at once.
  virtual void match_batch(std::span<const Event> events,
                           std::vector<std::vector<SubscriptionId>>& out) const;

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
  /// One pass over the table with the events in the inner loop (each
  /// filter is fetched once per batch instead of once per event).
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  std::size_t size() const noexcept override { return filters_.size(); }
  std::string name() const override { return "brute-force"; }

 private:
  std::unordered_map<SubscriptionId, Filter> filters_;
};

}  // namespace reef::pubsub
