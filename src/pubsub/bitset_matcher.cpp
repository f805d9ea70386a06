#include "pubsub/bitset_matcher.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "pubsub/range_index.h"

namespace reef::pubsub {

// --- slot space -------------------------------------------------------------

void BitsetMatcher::reserve_slot(FilterSlot slot) {
  if (slot < filters_.size()) return;
  filters_.resize(std::size_t{slot} + 1);
  const std::size_t needed = slot / kWordBits + 1;
  if (needed > words_) {
    // Capacity doubling: every bitmap in the engine is resized together,
    // so amortize the pass instead of paying it once per 64 slots.
    grow_words(std::max(needed, words_ * 2));
  }
}

void BitsetMatcher::grow_words(std::size_t min_words) {
  // Entries are sparse (only their non-zero words), so widening the slot
  // space touches the dense per-slot bitmaps only.
  words_ = min_words;
  live_.resize(words_, 0);
  zero_req_.resize(words_, 0);
  zero_words_.resize((words_ + kWordBits - 1) / kWordBits, 0);
  for (auto& slice : required_) slice.resize(words_, 0);
}

void BitsetMatcher::ensure_slices(std::uint32_t required) {
  const std::size_t needed = std::bit_width(required);
  while (required_.size() < needed) required_.emplace_back(words_, 0);
}

// --- index maintenance ------------------------------------------------------

template <typename Fn>
std::uint32_t BitsetMatcher::for_each_entry(const Filter& filter,
                                            Fn&& fn) const {
  std::uint32_t count = 0;
  // Filter canonicalization exactly-dedups constraints, but two *distinct*
  // eq constraints (int 3 vs double 3.0) still collapse onto one canonical
  // index entry — they must count as one requirement or the filter could
  // never fire. Filters are small; a linear seen-list beats a hash set.
  std::vector<std::pair<AttrId, Value>> seen_eq;
  for (const auto& c : filter.constraints()) {
    if (c.op() == Op::kEq) {
      Value canonical = canonical_numeric(c.value());
      bool duplicate = false;
      for (const auto& [attr, value] : seen_eq) {
        if (attr == c.attr_id() && value == canonical) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seen_eq.emplace_back(c.attr_id(), std::move(canonical));
      fn(c, seen_eq.back().second);
    } else {
      fn(c, c.value());
    }
    ++count;
  }
  return count;
}

namespace {

using SparseWords = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

SparseWords::iterator word_pos(SparseWords& words, std::size_t index) {
  return std::lower_bound(
      words.begin(), words.end(), index,
      [](const std::pair<std::uint32_t, std::uint64_t>& word,
         std::size_t i) { return word.first < i; });
}

/// Sets `bit` in word `index`; true when the word was zero (inserted).
bool sparse_set(SparseWords& words, std::size_t index, std::uint64_t bit) {
  const auto it = word_pos(words, index);
  if (it != words.end() && it->first == index) {
    it->second |= bit;
    return false;
  }
  words.insert(it, {static_cast<std::uint32_t>(index), bit});
  return true;
}

/// Clears `bit` in word `index` (which must hold it); true when the word
/// became zero (dropped).
bool sparse_clear(SparseWords& words, std::size_t index, std::uint64_t bit) {
  const auto it = word_pos(words, index);
  it->second &= ~bit;
  if (it->second != 0) return false;
  words.erase(it);
  return true;
}

}  // namespace

void BitsetMatcher::Entry::set(std::size_t w, Word bit) {
  if (sparse_set(words, w, bit)) {
    sparse_set(blocks, w / kWordBits, Word{1} << (w % kWordBits));
  }
}

void BitsetMatcher::Entry::clear(std::size_t w, Word bit) {
  if (sparse_clear(words, w, bit)) {
    sparse_clear(blocks, w / kWordBits, Word{1} << (w % kWordBits));
  }
}

// Distinct constraints map to distinct entries in every class: eq keys on
// the canonical value, range on (bound class, strictness, strict value
// identity) — cross-type compare-equal bounds like `< 3` and `< 3.0` stay
// separate entries that a probe always satisfies together, so the
// per-filter requirement count stays exact — prefix/suffix/contains on the
// pattern, and the residual class (ne/exists, in-set, unindexable shapes)
// on full constraint identity.

namespace {

template <typename Postings>
auto find_range(Postings& postings, const Constraint& c) {
  const bool strict = is_strict_op(c.op());
  return std::find_if(postings.begin(), postings.end(), [&](const auto& p) {
    return p.strict == strict && p.bound == c.value();
  });
}

template <typename Postings>
auto find_residual(Postings& postings, const Constraint& c) {
  return std::find_if(postings.begin(), postings.end(),
                      [&](const auto& p) { return p.constraint == c; });
}

/// The table key of a sortable prefix or suffix constraint: suffix tables
/// hold reversed patterns.
std::string pattern_key(const Constraint& c) {
  return c.op() == Op::kPrefix ? c.value().as_string()
                               : reversed(c.value().as_string());
}

}  // namespace

BitsetMatcher::Entry& BitsetMatcher::acquire_entry(AttrIndex& index,
                                                   const Constraint& c,
                                                   const Value& key) {
  if (c.op() == Op::kEq) return index.eq[key];
  if (is_sortable_range(c)) {
    const bool lower = is_lower_bound_op(c.op());
    auto& postings = lower ? index.lower : index.upper;
    auto it = find_range(postings, c);
    if (it == postings.end()) {
      RangePosting posting{c.value(), is_strict_op(c.op()), Entry{}};
      const auto pos =
          lower ? std::upper_bound(postings.begin(), postings.end(), posting,
                                   lower_bound_order<RangePosting>)
                : std::upper_bound(postings.begin(), postings.end(), posting,
                                   upper_bound_order<RangePosting>);
      it = postings.insert(pos, std::move(posting));
    }
    return it->entry;
  }
  if (is_sortable_prefix(c) || is_sortable_suffix(c)) {
    PrefixEntries& entries =
        c.op() == Op::kPrefix ? index.prefix : index.suffix;
    std::string pattern = pattern_key(c);
    auto it = prefix_posting_pos(entries.postings, pattern);
    if (it == entries.postings.end() || it->prefix != pattern) {
      add_prefix_length(entries.lengths, pattern.size());
      it = entries.postings.insert(
          it, PrefixPosting{std::move(pattern), Entry{}});
    }
    return it->entry;
  }
  if (is_sortable_contains(c)) {
    if (!index.contains) index.contains = std::make_unique<ContainsEntries>();
    return index.contains->insert(c.value().as_string()).payload;
  }
  const auto it = find_residual(index.noneq, c);
  return it != index.noneq.end()
             ? it->entry
             : index.noneq.emplace_back(NonEqPosting{c, Entry{}}).entry;
}

void BitsetMatcher::release_entry(AttrIndex& index, const Constraint& c,
                                  const Value& key, std::size_t w, Word bit) {
  // Clears the slot; true once the entry is empty and must be erased.
  const auto emptied = [&](Entry& entry) {
    entry.clear(w, bit);
    if (--entry.slot_count != 0) return false;
    --index.entries;
    --entries_;
    return true;
  };
  if (c.op() == Op::kEq) {
    const auto it = index.eq.find(key);
    if (emptied(it->second)) index.eq.erase(it);
  } else if (is_sortable_range(c)) {
    auto& postings = is_lower_bound_op(c.op()) ? index.lower : index.upper;
    const auto it = find_range(postings, c);
    if (emptied(it->entry)) postings.erase(it);
  } else if (is_sortable_prefix(c) || is_sortable_suffix(c)) {
    PrefixEntries& entries =
        c.op() == Op::kPrefix ? index.prefix : index.suffix;
    const std::string pattern = pattern_key(c);
    const auto it = prefix_posting_pos(entries.postings, pattern);
    if (emptied(it->entry)) {
      remove_prefix_length(entries.lengths, pattern.size());
      entries.postings.erase(it);
    }
  } else if (is_sortable_contains(c)) {
    const std::string& pattern = c.value().as_string();
    if (emptied(index.contains->find(pattern)->payload)) {
      index.contains->erase(pattern);
      if (index.contains->empty()) index.contains.reset();
    }
  } else {
    const auto it = find_residual(index.noneq, c);
    if (emptied(it->entry)) index.noneq.erase(it);
  }
}

void BitsetMatcher::add(SubscriptionId id, Filter filter) {
  if (id > std::numeric_limits<FilterSlot>::max()) {
    throw std::out_of_range("bitset: subscription id " + std::to_string(id) +
                            " does not fit a filter slot");
  }
  remove(id);  // replace semantics
  reserve_slot(static_cast<FilterSlot>(id));
  const std::size_t w = id / kWordBits;
  const Word bit = Word{1} << (id % kWordBits);
  const std::uint32_t required =
      for_each_entry(filter, [&](const Constraint& c, const Value& key) {
        if (c.attr_id() >= attrs_.size()) attrs_.resize(c.attr_id() + 1);
        AttrIndex& index = attrs_[c.attr_id()];
        Entry& entry = acquire_entry(index, c, key);
        if (entry.slot_count++ == 0) {
          ++index.entries;
          ++entries_;
        }
        entry.set(w, bit);
      });
  ensure_slices(required);
  for (std::size_t s = 0; s < required_.size(); ++s) {
    if ((required >> s) & 1u) required_[s][w] |= bit;
  }
  live_[w] |= bit;
  if (required == 0) {
    zero_req_[w] |= bit;
    zero_words_[w / kWordBits] |= Word{1} << (w % kWordBits);
  }
  filters_[id] = std::move(filter);
  ++size_;
}

void BitsetMatcher::remove(SubscriptionId id) {
  if (!registered(id)) return;
  const std::size_t w = id / kWordBits;
  const Word bit = Word{1} << (id % kWordBits);
  for_each_entry(filters_[id], [&](const Constraint& c, const Value& key) {
    release_entry(attrs_[c.attr_id()], c, key, w, bit);
  });
  live_[w] &= ~bit;
  zero_req_[w] &= ~bit;
  if (zero_req_[w] == 0) {
    zero_words_[w / kWordBits] &= ~(Word{1} << (w % kWordBits));
  }
  for (auto& slice : required_) slice[w] &= ~bit;
  filters_[id] = Filter{};  // release the filter's memory while unused
  --size_;
}

std::size_t BitsetMatcher::universal_words() const noexcept {
  std::size_t count = 0;
  for (const Word summary : zero_words_) {
    count += static_cast<std::size_t>(std::popcount(summary));
  }
  return count;
}

// --- matching ---------------------------------------------------------------

void BitsetMatcher::collect_satisfied(const AttrIndex& index,
                                      const Value& canonical,
                                      std::vector<const Entry*>& out) const {
  if (!index.eq.empty()) {
    if (const auto it = index.eq.find(canonical); it != index.eq.end()) {
      out.push_back(&it->second);
    }
  }
  if (range_sortable(canonical)) {
    // Sorted-bound probes (see range_index.h): satisfied lower bounds are
    // a prefix of the array, satisfied upper bounds a suffix. Probing the
    // canonical value is exact — int -> double canonicalization only
    // happens when the image is exact, and Value::compare is value-based
    // across the types either way.
    const std::size_t lower_end = lower_satisfied_end(index.lower, canonical);
    for (std::size_t k = 0; k < lower_end; ++k) {
      out.push_back(&index.lower[k].entry);
    }
    for (std::size_t k = upper_satisfied_begin(index.upper, canonical);
         k < index.upper.size(); ++k) {
      out.push_back(&index.upper[k].entry);
    }
  }
  if (canonical.is_string()) {
    const std::string& s = canonical.as_string();
    const auto collect = [&](const PrefixPosting& posting) {
      out.push_back(&posting.entry);
    };
    probe_prefixes(index.prefix.postings, index.prefix.lengths, s, collect);
    if (!index.suffix.postings.empty()) {
      // Reversed-pattern table: one reversal of the event string, then the
      // prefix probes (see range_index.h).
      probe_prefixes(index.suffix.postings, index.suffix.lengths,
                     reversed(s), collect);
    }
    if (index.contains) {
      index.contains->probe(s, [&](const ContainsEntries::Posting& posting) {
        out.push_back(&posting.payload);
      });
    }
  }
  // Residual postings see the canonical value too; every operator's result
  // is invariant under int -> double canonicalization (numeric comparisons
  // compare numerics, string ops reject non-strings of either type, exists
  // ignores the value).
  for (const auto& posting : index.noneq) {
    if (posting.constraint.matches(canonical)) out.push_back(&posting.entry);
  }
}

void BitsetMatcher::accumulate(const Entry& entry, Scratch& scratch) const {
  for (const auto& [k, mask] : entry.blocks) scratch.touched[k] |= mask;
  const std::size_t slices = required_.size();
  for (const auto& [w, bits] : entry.words) {
    Word carry = bits;
    Word* counter = &scratch.counters[w * slices];
    for (std::size_t s = 0; s < slices && carry != 0; ++s) {
      const Word next = counter[s] & carry;
      counter[s] ^= carry;
      carry = next;
    }
    // No carry-out is possible: a slot's counter never exceeds its own
    // requirement (each distinct entry is satisfied at most once per
    // event) and the slices cover the largest requirement registered.
  }
}

void BitsetMatcher::emit_matches(Scratch& scratch,
                                 std::vector<SubscriptionId>& out) const {
  // Only touched words can hold a non-zero counter; an untouched word
  // fires exactly its universal slots, so visiting the touched words plus
  // the words with universal slots covers every match, in ascending slot
  // order (an event that satisfied no entry visits only the universal
  // words). Visiting a word re-zeroes its counters for the next event.
  const std::size_t slices = required_.size();
  for (std::size_t k = 0; k < scratch.touched.size(); ++k) {
    const Word visit = scratch.touched[k] | zero_words_[k];
    if (visit == 0) continue;
    scratch.touched[k] = 0;
    // A straight walk from the block's first to its last visited word:
    // one predictable bit test per word, whether the block is dense or
    // holds a single visited word.
    const auto last =
        kWordBits - static_cast<std::size_t>(std::countl_zero(visit));
    for (auto b = static_cast<std::size_t>(std::countr_zero(visit));
         b < last; ++b) {
      if (((visit >> b) & 1) == 0) continue;
      const std::size_t w = k * kWordBits + b;
      // data(), not operator[]: a universal-only table has no slices.
      Word* counter = scratch.counters.data() + w * slices;
      Word diff = 0;
      for (std::size_t s = 0; s < slices; ++s) {
        diff |= counter[s] ^ required_[s][w];
        counter[s] = 0;
      }
      // Emitted inline: as a call, the per-word cost shows on dense
      // populations.
      for (Word fire = live_[w] & ~diff; fire != 0; fire &= fire - 1) {
        out.push_back(w * kWordBits +
                      static_cast<std::size_t>(std::countr_zero(fire)));
      }
    }
  }
}

BitsetMatcher::Scratch BitsetMatcher::make_scratch() const {
  return Scratch{
      std::vector<Word>(words_ * required_.size(), 0),
      std::vector<Word>((words_ + kWordBits - 1) / kWordBits, 0), {}};
}

void BitsetMatcher::match_event(const Event& event, Scratch& scratch,
                                std::vector<SubscriptionId>& out) const {
  scratch.satisfied.clear();
  for (const auto& [attr, value] : event.attrs()) {
    const AttrIndex* index = index_of(attr);
    if (index == nullptr) continue;
    // Only ints change under canonical_numeric; every other value is
    // probed in place, so no string is copied.
    if (value.type() == Value::Type::kInt) {
      collect_satisfied(*index, canonical_numeric(value), scratch.satisfied);
    } else {
      collect_satisfied(*index, value, scratch.satisfied);
    }
  }
  for (const Entry* entry : scratch.satisfied) accumulate(*entry, scratch);
  emit_matches(scratch, out);
}

void BitsetMatcher::match(const Event& event,
                          std::vector<SubscriptionId>& out) const {
  if (size_ == 0) return;
  Scratch scratch = make_scratch();
  match_event(event, scratch, out);
}

void BitsetMatcher::match_batch(
    std::span<const Event> events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  if (size_ == 0) return;
  Scratch scratch = make_scratch();
  for (std::size_t i = 0; i < events.size(); ++i) {
    match_event(events[i], scratch, out[i]);
  }
}

}  // namespace reef::pubsub
