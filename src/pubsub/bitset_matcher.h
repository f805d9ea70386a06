// Bitset posting-list matching engine ("bitset" in engines.h).
//
// The classic IR answer to batch matching: every constraint index entry is
// a dense, word-aligned bitmap over a stable *filter-slot* id space, and
// matching an event is a stream of bitmap word loops — no per-event hash
// probes over candidate lists, no per-event candidate vectors, no
// Filter::matches calls on the hot path at all.
//
// ## Slot space
//
// Each registered filter occupies one FilterSlot (uint32_t), the bit
// position every index bitmap uses for it. Slots freed by remove() go on a
// freelist and are reused by the next add(), so the bit space stays
// compact under churn instead of growing with the all-time subscription
// count; all bitmaps share one word width, grown together (capacity
// doubling) when the slot space outgrows it.
//
// ## Index entries
//
// Equality constraints index as eq[attr][canonical value] -> bitmap of the
// slots carrying that constraint (cross-type numerics collapse onto one
// entry via canonical_numeric, so eq(p, 3) and eq(p, 3.0) share it).
// Numeric range constraints (< <= > >=) index as *sorted bound arrays* per
// attribute — one bitmap entry per distinct bound — and resolve per event
// value by binary-search probes (see range_index.h): the satisfied lower
// bounds are a prefix of the sorted array, the satisfied upper bounds a
// suffix, so no range predicate is ever *evaluated* on the hot path,
// satisfied entries are enumerated.
// String prefix constraints index as a sorted pattern table probed with
// one lexicographic binary search per live pattern length; suffix
// constraints as the same table over *reversed* patterns, probed with the
// reversed event string; contains constraints as a table of distinct
// patterns probed in one pass over the event string (see range_index.h
// for all three probes). Every other operator (ne/exists, in-set, plus
// range/pattern shapes the sorted structures cannot hold) indexes as
// noneq[attr] -> (constraint, bitmap) postings, one per *distinct*
// constraint — filters sharing `text =$ ".log"` share one entry, so the
// predicate is evaluated once per event (or once per distinct value in a
// batch), not once per filter. All resolved entries feed the same
// threshold pass below.
//
// ## Matching: bitmap counters + threshold pass
//
// A filter (a conjunction) fires when *all* of its distinct entries are
// satisfied. Per event the engine accumulates, for every satisfied index
// entry, that entry's bitmap into a bit-sliced counter table: slice b
// holds bit b of every slot's satisfied-entry count, and adding a bitmap
// is a ripple-carry word loop (XOR + AND carry chains — word-parallel
// addition across 64 slots at a time). The per-slot *required* counts
// (number of distinct entries, fixed at add time) live in matching
// required-count slices, so the final threshold pass is pure word math:
//
//   fire_word = live & ~OR_b(count_b XOR required_b)
//
// i.e. a slot fires iff its counter equals its requirement and the slot is
// live (AND/ANDNOT over words); matches are emitted straight from the set
// bits via countr_zero/popcount. Universal (empty) filters hold slots with
// requirement 0 and fall out of the same equation — an attribute-free
// event satisfies no entries, every counter is 0, and exactly the
// requirement-0 slots fire (the engine keeps that zero-entry answer as a
// precomputed bitmap so empty events skip the counter pass entirely).
//
// This is the Gryphon/Siena counting algorithm, batched: a counting table
// *is* bitmap intersection with count thresholds. Its cost per event is
// the satisfied entries times the slot words, independent of how many
// filters share an (attribute, value) entry, so dense/high-overlap
// populations — every feed subscription carries stream = "feed" — cost no
// more than selective ones; see the dense workload in
// bench_pubsub_matching and the bitset-over-brute-force floors in its
// --smoke mode. Sharding (sharded_matcher.h) splits the slot space when
// one bitmap word stream per entry grows too long.
//
// Scratch memory (the counter slices) is allocated per call, never stored,
// so the const matching methods stay safe to call concurrently, as the
// sharded layer's worker pool requires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/matcher.h"
#include "pubsub/range_index.h"

namespace reef::pubsub {

/// Dense bit position of a registered filter in every index bitmap; stable
/// for the registration's lifetime, reused (via the freelist) after
/// removal.
using FilterSlot = std::uint32_t;

class BitsetMatcher final : public Matcher {
 public:
  using Matcher::match;
  using Matcher::match_batch;
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  /// Amortized batch path: the batch is grouped to (attribute, canonical
  /// value) occurrence lists, each eq entry is probed and each noneq
  /// predicate evaluated once per distinct value across the batch, and
  /// the per-event counter accumulation + threshold pass run over the
  /// collected entry bitmaps — word loops only.
  void match_batch(const EventBatchView& events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  std::size_t size() const noexcept override { return slot_of_.size(); }
  std::string name() const override { return "bitset"; }

  // --- introspection (tests and benches) ------------------------------------
  /// High-water slot count (live + freelisted): how wide the bit space is.
  std::size_t slot_capacity() const noexcept { return slots_.size(); }
  /// Current bitmap width in 64-bit words (shared by every index entry).
  std::size_t word_count() const noexcept { return words_; }
  /// Counter/required bit slices currently needed (ceil log2(max required
  /// + 1) over live filters; never shrinks).
  std::size_t slice_count() const noexcept { return required_.size(); }
  /// Live index entries (eq value entries + distinct noneq postings).
  std::size_t entry_count() const noexcept { return entries_; }
  /// Slot currently assigned to `id` (nullopt for unknown ids). Pins the
  /// freelist-reuse behavior in tests.
  std::optional<FilterSlot> slot_of(SubscriptionId id) const;

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  /// One index entry: the slots whose filters carry this constraint.
  struct Entry {
    std::vector<Word> bits;    // words_ wide, like every bitmap here
    std::size_t slot_count = 0;  // set bits; entry is erased at zero
  };
  struct NonEqPosting {
    Constraint constraint;
    Entry entry;
  };
  /// One distinct range bound with the slots carrying that constraint.
  struct RangePosting {
    Value bound;  // numeric, non-NaN (is_sortable_range gatekeeps)
    bool strict;
    Entry entry;
  };
  struct RangeEntries {
    std::vector<RangePosting> lower;  // >/>= — lower_bound_order
    std::vector<RangePosting> upper;  // </<= — upper_bound_order
  };
  /// One distinct prefix pattern with the slots carrying that constraint.
  struct PrefixPosting {
    std::string prefix;
    Entry entry;
  };
  struct PrefixEntries {
    std::vector<PrefixPosting> postings;  // sorted by pattern, distinct
    /// sorted (pattern length, live patterns of that length)
    std::vector<std::pair<std::size_t, std::size_t>> lengths;
  };
  /// Distinct contains patterns, each with the slots carrying it.
  using ContainsEntries = ContainsTable<Entry>;
  struct Slot {
    SubscriptionId sub = 0;
    Filter filter;
    std::uint32_t required = 0;  // distinct index entries referenced
  };

  FilterSlot acquire_slot();
  void grow_words(std::size_t min_words);
  void ensure_slices(std::uint32_t required);
  /// Invokes `eq_fn(attr, canonical_value)` / `noneq_fn(constraint)` once
  /// per *distinct* index entry of `filter` (duplicate eq entries arise
  /// from cross-type numeric constraints collapsing onto one canonical
  /// value; noneq constraints are already exactly-deduplicated by Filter
  /// canonicalization). Returns the distinct-entry count.
  template <typename EqFn, typename NonEqFn>
  std::uint32_t for_each_entry(const Filter& filter, EqFn&& eq_fn,
                               NonEqFn&& noneq_fn) const;

  /// Appends the entry bitmaps satisfied by (attr, value) to `out`.
  void collect_satisfied(AttrId attr, const Value& canonical,
                         std::vector<const Entry*>& out) const;
  /// Ripple-carry add of `bits` into the slice-major counter table.
  void accumulate(const std::vector<Word>& bits,
                  std::vector<Word>& counters) const;
  /// Threshold pass: emits the subscription ids of every live slot whose
  /// counter equals its requirement.
  void emit_matches(const std::vector<Word>& counters,
                    std::vector<SubscriptionId>& out) const;
  /// Fast path for events that satisfied no entry: exactly the
  /// requirement-0 (universal) slots fire.
  void emit_universal(std::vector<SubscriptionId>& out) const;

  std::unordered_map<SubscriptionId, FilterSlot> slot_of_;
  std::vector<Slot> slots_;            // indexed by FilterSlot
  std::vector<FilterSlot> free_slots_;  // LIFO freelist
  /// attribute id -> canonical value -> slots with that eq constraint.
  std::unordered_map<AttrId, std::unordered_map<Value, Entry>, AttrIdHash>
      eq_;
  /// attribute id -> sorted distinct range-bound entries on that attribute.
  std::unordered_map<AttrId, RangeEntries, AttrIdHash> range_;
  /// attribute id -> sorted distinct prefix-pattern entries.
  std::unordered_map<AttrId, PrefixEntries, AttrIdHash> prefix_;
  /// attribute id -> sorted distinct *reversed* suffix-pattern entries
  /// (PrefixEntries layout; probed with the reversed event string).
  std::unordered_map<AttrId, PrefixEntries, AttrIdHash> suffix_;
  /// attribute id -> distinct contains-pattern entries.
  std::unordered_map<AttrId, ContainsEntries, AttrIdHash> contains_;
  /// attribute id -> residual distinct non-equality postings (operators
  /// the sorted structures cannot hold; evaluated per distinct value).
  std::unordered_map<AttrId, std::vector<NonEqPosting>, AttrIdHash> noneq_;
  std::vector<Word> live_;      // occupied slots
  std::vector<Word> zero_req_;  // live slots with requirement 0 (universal)
  /// Required-count bit slices: required_[b] bit s == bit b of slot s's
  /// distinct-entry count. Grows (never shrinks) with the largest
  /// requirement seen.
  std::vector<std::vector<Word>> required_;
  std::size_t words_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace reef::pubsub
