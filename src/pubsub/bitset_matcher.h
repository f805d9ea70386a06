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
// The caller's id *is* the filter's FilterSlot (uint32_t): the bit
// position every index bitmap uses for it and the index of the engine's
// one copy of the filter. The Matcher contract's dense-id precondition
// keeps the bit space compact under churn (the routing table reuses freed
// ids LIFO); add() rejects an id that does not fit a FilterSlot. All dense
// bitmaps share one word width, grown together (capacity doubling) when
// an id outgrows it.
//
// ## Index entries
//
// Every structure below lives in one record per attribute, held in a
// vector indexed by AttrId (attribute names are a bounded vocabulary, see
// attr_table.h): an event attribute resolves to its record with one array
// index, and a record with no live entry is skipped whole.
//
// Equality constraints index as eq[canonical value] -> bitmap of the
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
// residual (constraint, bitmap) postings, one per *distinct*
// constraint — filters sharing `text =$ ".log"` share one entry, so the
// predicate is evaluated once per event, not once per filter. All resolved
// entries feed the same threshold pass below.
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
// requirement-0 slots fire (the threshold pass then visits only the words
// holding them; see below).
//
// This is the Gryphon/Siena counting algorithm, batched: a counting table
// *is* bitmap intersection with count thresholds.
//
// ## Sparse entries: cost follows the hits, not the table
//
// Entry bitmaps are stored sparse, roaring-style (Lemire et al., "Roaring
// Bitmaps", arXiv 1402.6407): an entry keeps only its non-zero 64-slot
// words, as a sorted (word index, word) list, plus the same list one level
// up (bit b of block k set iff word 64k + b is held). Accumulating an entry
// ripple-carries just those words and ORs its blocks into a per-call
// touched-word summary (one bit per word); the threshold pass then visits
// only the touched words plus the words holding universal slots (a
// maintained summary of the requirement-0 bitmap) — an untouched word's
// counters are all zero, so it can fire only its universal slots — and
// re-zeroes the counters of the words it visits. Per event the cost is the
// satisfied entries' own words plus the words they touched, independent of
// how wide the slot space has grown and of how many filters share an
// (attribute, value) entry, so dense/high-overlap populations — every feed
// subscription carries stream = "feed" — cost no more than selective
// ones; see the dense workload in bench_pubsub_matching and the
// bitset-over-brute-force floors in its --smoke mode.
//
// Scratch memory (the counter slices, the touched summary and the
// satisfied-entry buffer) is allocated per call and reused across the
// events of a batch, never stored, so the const matching methods stay safe
// to call concurrently — the routing table's worker split runs contiguous
// ranges of one batch through one engine at once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/matcher.h"
#include "pubsub/range_index.h"

namespace reef::pubsub {

/// Bit position of a registered filter in every index bitmap: its
/// SubscriptionId, which must fit this type.
using FilterSlot = std::uint32_t;

class BitsetMatcher final : public Matcher {
 public:
  using Matcher::match;
  /// Throws std::out_of_range, changing nothing, when `id` does not fit a
  /// FilterSlot.
  void add(SubscriptionId id, Filter filter) override;
  void remove(SubscriptionId id) override;
  void match(const Event& event,
             std::vector<SubscriptionId>& out) const override;
  /// The per-event path of match, event by event, with one scratch shared
  /// by the whole span.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out)
      const override;
  const Filter& filter(SubscriptionId id) const override {
    return filters_[id];
  }
  std::size_t size() const noexcept override { return size_; }
  std::string name() const override { return "bitset"; }

  // --- introspection (tests and benches) ------------------------------------
  /// One past the largest id ever registered: how wide the bit space is.
  std::size_t slot_capacity() const noexcept { return filters_.size(); }
  /// Current bitmap width in 64-bit words (shared by every index entry).
  std::size_t word_count() const noexcept { return words_; }
  /// Counter/required bit slices currently needed (ceil log2(max required
  /// + 1) over live filters; never shrinks).
  std::size_t slice_count() const noexcept { return required_.size(); }
  /// Live index entries (eq value entries + distinct noneq postings).
  std::size_t entry_count() const noexcept { return entries_; }
  /// Slot words holding at least one universal (requirement-0) slot: the
  /// words the threshold pass visits even when no entry touched them.
  std::size_t universal_words() const noexcept;

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  /// One index entry: the slots whose filters carry this constraint, as
  /// the non-zero words of its bitmap sorted by word index (see "Sparse
  /// entries" above).
  struct Entry {
    std::vector<std::pair<std::uint32_t, Word>> words;
    /// The same shape one level up: bit b of block k is set iff word
    /// 64k + b is in `words` (what accumulate marks touched).
    std::vector<std::pair<std::uint32_t, Word>> blocks;
    std::size_t slot_count = 0;  // set bits; entry is erased at zero
    /// Sets `bit` in word `w`, inserting the word when it was zero.
    void set(std::size_t w, Word bit);
    /// Clears `bit` in word `w` (which must hold it), dropping the word
    /// once it is zero.
    void clear(std::size_t w, Word bit);
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
  /// Everything indexed on one attribute, so add, remove and every probe
  /// resolve the attribute once.
  struct AttrIndex {
    /// canonical value -> slots with that eq constraint.
    std::unordered_map<Value, Entry> eq;
    std::vector<RangePosting> lower;  // >/>= — lower_bound_order
    std::vector<RangePosting> upper;  // </<= — upper_bound_order
    PrefixEntries prefix;
    /// Reversed suffix patterns (probed with the reversed event string).
    PrefixEntries suffix;
    /// Out of line (its 256-entry lead array is ~14 KB) and allocated only
    /// while the attribute has a contains pattern.
    std::unique_ptr<ContainsEntries> contains;
    /// Residual distinct postings: operators the sorted structures cannot
    /// hold, evaluated per distinct value.
    std::vector<NonEqPosting> noneq;
    std::size_t entries = 0;  // live entries above; 0 = nothing to probe
  };

  /// Per-call matching scratch: word-major counter slices (slot word w's
  /// slice s at counters[w * slices + s]) and the touched-word summary,
  /// both all-zero between events, plus the event's satisfied entries.
  struct Scratch {
    std::vector<Word> counters;
    std::vector<Word> touched;
    std::vector<const Entry*> satisfied;
  };

  bool registered(SubscriptionId id) const noexcept {
    return id < filters_.size() &&
           ((live_[id / kWordBits] >> (id % kWordBits)) & 1) != 0;
  }
  /// Widens every dense bitmap to hold `slot`.
  void reserve_slot(FilterSlot slot);
  void grow_words(std::size_t min_words);
  void ensure_slices(std::uint32_t required);
  /// Invokes `fn(constraint, key)` once per *distinct* index entry of
  /// `filter`, where `key` is the canonical value for eq constraints and
  /// the constraint's own value otherwise (duplicate eq entries arise from
  /// cross-type numeric constraints collapsing onto one canonical value;
  /// the rest are already exactly-deduplicated by Filter
  /// canonicalization). Returns the distinct-entry count.
  template <typename Fn>
  std::uint32_t for_each_entry(const Filter& filter, Fn&& fn) const;

  /// The entry `c` indexes under on its attribute (`key` as passed by
  /// for_each_entry), created empty when new.
  Entry& acquire_entry(AttrIndex& index, const Constraint& c,
                       const Value& key);
  /// Clears the slot at (`w`, `bit`) from `c`'s entry, which must hold it,
  /// and drops the entry once no slot is left.
  void release_entry(AttrIndex& index, const Constraint& c, const Value& key,
                     std::size_t w, Word bit);
  /// The attribute's index record, or nullptr when nothing is indexed on it.
  const AttrIndex* index_of(AttrId attr) const noexcept {
    return attr < attrs_.size() && attrs_[attr].entries != 0 ? &attrs_[attr]
                                                             : nullptr;
  }

  /// Appends the entry bitmaps of `index` satisfied by `canonical` (an
  /// event value through canonical_numeric) to `out`.
  void collect_satisfied(const AttrIndex& index, const Value& canonical,
                         std::vector<const Entry*>& out) const;
  Scratch make_scratch() const;
  /// The one per-event path behind match and match_batch: collects the
  /// satisfied entries, accumulates them and runs the threshold pass,
  /// leaving `scratch` zeroed for the next event.
  void match_event(const Event& event, Scratch& scratch,
                   std::vector<SubscriptionId>& out) const;
  /// Ripple-carry add of `entry`'s words into the counters, marking its
  /// words touched.
  void accumulate(const Entry& entry, Scratch& scratch) const;
  /// Threshold pass over the touched and universal words: emits every live
  /// slot whose counter equals its requirement, and leaves `scratch`
  /// zeroed.
  void emit_matches(Scratch& scratch, std::vector<SubscriptionId>& out) const;

  std::vector<Filter> filters_;   // indexed by FilterSlot
  std::size_t size_ = 0;          // registered filters
  std::vector<AttrIndex> attrs_;  // indexed by AttrId
  std::vector<Word> live_;      // occupied slots
  std::vector<Word> zero_req_;  // live slots with requirement 0 (universal)
  /// Summary of zero_req_: bit w is set iff zero_req_[w] != 0.
  std::vector<Word> zero_words_;
  /// Required-count bit slices: required_[b] bit s == bit b of slot s's
  /// distinct-entry count. Grows (never shrinks) with the largest
  /// requirement seen.
  std::vector<std::vector<Word>> required_;
  std::size_t words_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace reef::pubsub
