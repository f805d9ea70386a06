#include "pubsub/bitset_matcher.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "pubsub/batch_group.h"
#include "pubsub/range_index.h"

namespace reef::pubsub {

// --- slot space -------------------------------------------------------------

FilterSlot BitsetMatcher::acquire_slot() {
  if (!free_slots_.empty()) {
    const FilterSlot slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const FilterSlot slot = static_cast<FilterSlot>(slots_.size());
  slots_.emplace_back();
  const std::size_t needed = (slots_.size() + kWordBits - 1) / kWordBits;
  if (needed > words_) {
    // Capacity doubling: every bitmap in the engine is resized together,
    // so amortize the pass instead of paying it once per 64 slots.
    grow_words(std::max(needed, words_ * 2));
  }
  return slot;
}

void BitsetMatcher::grow_words(std::size_t min_words) {
  words_ = min_words;
  live_.resize(words_, 0);
  zero_req_.resize(words_, 0);
  for (auto& slice : required_) slice.resize(words_, 0);
  for (auto& [attr, by_value] : eq_) {
    for (auto& [value, entry] : by_value) entry.bits.resize(words_, 0);
  }
  for (auto& [attr, entries] : range_) {
    for (auto& posting : entries.lower) posting.entry.bits.resize(words_, 0);
    for (auto& posting : entries.upper) posting.entry.bits.resize(words_, 0);
  }
  for (auto& [attr, entries] : prefix_) {
    for (auto& posting : entries.postings) {
      posting.entry.bits.resize(words_, 0);
    }
  }
  for (auto& [attr, entries] : suffix_) {
    for (auto& posting : entries.postings) {
      posting.entry.bits.resize(words_, 0);
    }
  }
  for (auto& [attr, entries] : contains_) {
    entries.for_each_payload(
        [this](Entry& entry) { entry.bits.resize(words_, 0); });
  }
  for (auto& [attr, postings] : noneq_) {
    for (auto& posting : postings) posting.entry.bits.resize(words_, 0);
  }
}

void BitsetMatcher::ensure_slices(std::uint32_t required) {
  const std::size_t needed = std::bit_width(required);
  while (required_.size() < needed) required_.emplace_back(words_, 0);
}

// --- index maintenance ------------------------------------------------------

template <typename EqFn, typename NonEqFn>
std::uint32_t BitsetMatcher::for_each_entry(const Filter& filter, EqFn&& eq_fn,
                                            NonEqFn&& noneq_fn) const {
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
      eq_fn(c.attr_id(), seen_eq.back().second);
    } else {
      noneq_fn(c);
    }
    ++count;
  }
  return count;
}

void BitsetMatcher::add(SubscriptionId id, Filter filter) {
  remove(id);  // replace semantics
  const FilterSlot slot = acquire_slot();
  const std::size_t w = slot / kWordBits;
  const Word bit = Word{1} << (slot % kWordBits);
  const std::uint32_t required = for_each_entry(
      filter,
      [&](AttrId attr, const Value& canonical) {
        Entry& entry = eq_[attr][canonical];
        if (entry.bits.empty()) {
          entry.bits.assign(words_, 0);
          ++entries_;
        }
        entry.bits[w] |= bit;
        ++entry.slot_count;
      },
      [&](const Constraint& c) {
        // Distinct constraints map to distinct entries in every class:
        // range keys on (bound class, strictness, strict value identity) —
        // cross-type compare-equal bounds like `< 3` and `< 3.0` stay
        // separate entries that a probe always satisfies together, so the
        // per-filter requirement count stays exact — prefix/suffix/
        // contains key on the pattern, and the residual class (ne/exists,
        // in-set, unindexable shapes) on full constraint identity.
        Entry* entry = nullptr;
        if (is_sortable_range(c)) {
          RangeEntries& entries = range_[c.attr_id()];
          auto& postings =
              is_lower_bound_op(c.op()) ? entries.lower : entries.upper;
          const bool strict = is_strict_op(c.op());
          auto it = std::find_if(postings.begin(), postings.end(),
                                 [&](const RangePosting& p) {
                                   return p.strict == strict &&
                                          p.bound == c.value();
                                 });
          if (it == postings.end()) {
            RangePosting posting{c.value(), strict, Entry{}};
            posting.entry.bits.assign(words_, 0);
            if (is_lower_bound_op(c.op())) {
              it = postings.insert(
                  std::upper_bound(postings.begin(), postings.end(), posting,
                                   lower_bound_order<RangePosting>),
                  std::move(posting));
            } else {
              it = postings.insert(
                  std::upper_bound(postings.begin(), postings.end(), posting,
                                   upper_bound_order<RangePosting>),
                  std::move(posting));
            }
            ++entries_;
          }
          entry = &it->entry;
        } else if (is_sortable_prefix(c)) {
          PrefixEntries& entries = prefix_[c.attr_id()];
          const std::string& pattern = c.value().as_string();
          auto it = prefix_posting_pos(entries.postings, pattern);
          if (it == entries.postings.end() || it->prefix != pattern) {
            it = entries.postings.insert(it, PrefixPosting{pattern, Entry{}});
            it->entry.bits.assign(words_, 0);
            add_prefix_length(entries.lengths, pattern.size());
            ++entries_;
          }
          entry = &it->entry;
        } else if (is_sortable_suffix(c)) {
          PrefixEntries& entries = suffix_[c.attr_id()];
          const std::string pattern = reversed(c.value().as_string());
          auto it = prefix_posting_pos(entries.postings, pattern);
          if (it == entries.postings.end() || it->prefix != pattern) {
            it = entries.postings.insert(it, PrefixPosting{pattern, Entry{}});
            it->entry.bits.assign(words_, 0);
            add_prefix_length(entries.lengths, pattern.size());
            ++entries_;
          }
          entry = &it->entry;
        } else if (is_sortable_contains(c)) {
          entry = &contains_[c.attr_id()].insert(c.value().as_string())
                       .payload;
          if (entry->bits.empty()) {
            entry->bits.assign(words_, 0);
            ++entries_;
          }
        } else {
          auto& postings = noneq_[c.attr_id()];
          NonEqPosting* posting = nullptr;
          for (auto& p : postings) {
            if (p.constraint == c) {
              posting = &p;
              break;
            }
          }
          if (posting == nullptr) {
            posting = &postings.emplace_back(NonEqPosting{c, Entry{}});
            posting->entry.bits.assign(words_, 0);
            ++entries_;
          }
          entry = &posting->entry;
        }
        entry->bits[w] |= bit;
        ++entry->slot_count;
      });
  ensure_slices(required);
  for (std::size_t s = 0; s < required_.size(); ++s) {
    if ((required >> s) & 1u) required_[s][w] |= bit;
  }
  live_[w] |= bit;
  if (required == 0) zero_req_[w] |= bit;
  Slot& stored = slots_[slot];
  stored.sub = id;
  stored.filter = std::move(filter);
  stored.required = required;
  slot_of_.emplace(id, slot);
}

void BitsetMatcher::remove(SubscriptionId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  const FilterSlot slot = it->second;
  const std::size_t w = slot / kWordBits;
  const Word bit = Word{1} << (slot % kWordBits);
  for_each_entry(
      slots_[slot].filter,
      [&](AttrId attr, const Value& canonical) {
        const auto attr_it = eq_.find(attr);
        const auto value_it = attr_it->second.find(canonical);
        Entry& entry = value_it->second;
        entry.bits[w] &= ~bit;
        if (--entry.slot_count == 0) {
          attr_it->second.erase(value_it);
          if (attr_it->second.empty()) eq_.erase(attr_it);
          --entries_;
        }
      },
      [&](const Constraint& c) {
        if (is_sortable_range(c)) {
          const auto attr_it = range_.find(c.attr_id());
          RangeEntries& entries = attr_it->second;
          auto& postings =
              is_lower_bound_op(c.op()) ? entries.lower : entries.upper;
          const bool strict = is_strict_op(c.op());
          const auto posting_it =
              std::find_if(postings.begin(), postings.end(),
                           [&](const RangePosting& p) {
                             return p.strict == strict &&
                                    p.bound == c.value();
                           });
          Entry& entry = posting_it->entry;
          entry.bits[w] &= ~bit;
          if (--entry.slot_count == 0) {
            postings.erase(posting_it);
            if (entries.lower.empty() && entries.upper.empty()) {
              range_.erase(attr_it);
            }
            --entries_;
          }
        } else if (is_sortable_prefix(c)) {
          const auto attr_it = prefix_.find(c.attr_id());
          PrefixEntries& entries = attr_it->second;
          const std::string& pattern = c.value().as_string();
          const auto posting_it =
              prefix_posting_pos(entries.postings, pattern);
          Entry& entry = posting_it->entry;
          entry.bits[w] &= ~bit;
          if (--entry.slot_count == 0) {
            remove_prefix_length(entries.lengths, pattern.size());
            entries.postings.erase(posting_it);
            if (entries.postings.empty()) prefix_.erase(attr_it);
            --entries_;
          }
        } else if (is_sortable_suffix(c)) {
          const auto attr_it = suffix_.find(c.attr_id());
          PrefixEntries& entries = attr_it->second;
          const std::string pattern = reversed(c.value().as_string());
          const auto posting_it =
              prefix_posting_pos(entries.postings, pattern);
          Entry& entry = posting_it->entry;
          entry.bits[w] &= ~bit;
          if (--entry.slot_count == 0) {
            remove_prefix_length(entries.lengths, pattern.size());
            entries.postings.erase(posting_it);
            if (entries.postings.empty()) suffix_.erase(attr_it);
            --entries_;
          }
        } else if (is_sortable_contains(c)) {
          const auto attr_it = contains_.find(c.attr_id());
          ContainsEntries& entries = attr_it->second;
          const std::string& pattern = c.value().as_string();
          Entry& entry = entries.find(pattern)->payload;
          entry.bits[w] &= ~bit;
          if (--entry.slot_count == 0) {
            entries.erase(pattern);
            if (entries.empty()) contains_.erase(attr_it);
            --entries_;
          }
        } else {
          const auto attr_it = noneq_.find(c.attr_id());
          auto& postings = attr_it->second;
          const auto posting_it =
              std::find_if(postings.begin(), postings.end(),
                           [&](const NonEqPosting& p) {
                             return p.constraint == c;
                           });
          Entry& entry = posting_it->entry;
          entry.bits[w] &= ~bit;
          if (--entry.slot_count == 0) {
            postings.erase(posting_it);
            if (postings.empty()) noneq_.erase(attr_it);
            --entries_;
          }
        }
      });
  live_[w] &= ~bit;
  zero_req_[w] &= ~bit;
  for (auto& slice : required_) slice[w] &= ~bit;
  slots_[slot] = Slot{};  // release the filter's memory while freelisted
  free_slots_.push_back(slot);
  slot_of_.erase(it);
}

std::optional<FilterSlot> BitsetMatcher::slot_of(SubscriptionId id) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return std::nullopt;
  return it->second;
}

// --- matching ---------------------------------------------------------------

void BitsetMatcher::collect_satisfied(AttrId attr, const Value& canonical,
                                      std::vector<const Entry*>& out) const {
  if (const auto attr_it = eq_.find(attr); attr_it != eq_.end()) {
    if (const auto value_it = attr_it->second.find(canonical);
        value_it != attr_it->second.end()) {
      out.push_back(&value_it->second);
    }
  }
  if (const auto range_it = range_.find(attr);
      range_it != range_.end() && range_sortable(canonical)) {
    // Sorted-bound probes (see range_index.h): satisfied lower bounds are
    // a prefix of the array, satisfied upper bounds a suffix. Probing the
    // canonical value is exact — int -> double canonicalization only
    // happens when the image is exact, and Value::compare is value-based
    // across the types either way.
    const RangeEntries& entries = range_it->second;
    const std::size_t lower_end =
        lower_satisfied_end(entries.lower, canonical);
    for (std::size_t k = 0; k < lower_end; ++k) {
      out.push_back(&entries.lower[k].entry);
    }
    for (std::size_t k = upper_satisfied_begin(entries.upper, canonical);
         k < entries.upper.size(); ++k) {
      out.push_back(&entries.upper[k].entry);
    }
  }
  if (const auto prefix_it = prefix_.find(attr);
      prefix_it != prefix_.end() && canonical.is_string()) {
    probe_prefixes(prefix_it->second.postings, prefix_it->second.lengths,
                   canonical.as_string(), [&](const PrefixPosting& posting) {
                     out.push_back(&posting.entry);
                   });
  }
  if (const auto suffix_it = suffix_.find(attr);
      suffix_it != suffix_.end() && canonical.is_string()) {
    // Reversed-pattern table: one reversal of the event string, then the
    // prefix probes (see range_index.h).
    const std::string rev = reversed(canonical.as_string());
    probe_prefixes(suffix_it->second.postings, suffix_it->second.lengths,
                   rev, [&](const PrefixPosting& posting) {
                     out.push_back(&posting.entry);
                   });
  }
  if (const auto contains_it = contains_.find(attr);
      contains_it != contains_.end() && canonical.is_string()) {
    contains_it->second.probe(canonical.as_string(),
                              [&](const ContainsEntries::Posting& posting) {
                                out.push_back(&posting.payload);
                              });
  }
  if (const auto noneq_it = noneq_.find(attr); noneq_it != noneq_.end()) {
    // Evaluated against the *canonical* value in the single-event path too,
    // so the batch path (which groups by canonical value) provably agrees:
    // every operator's result is invariant under int -> double
    // canonicalization (numeric comparisons compare numerics, string ops
    // reject non-strings of either type, exists ignores the value).
    for (const auto& posting : noneq_it->second) {
      if (posting.constraint.matches(canonical)) out.push_back(&posting.entry);
    }
  }
}

void BitsetMatcher::accumulate(const std::vector<Word>& bits,
                               std::vector<Word>& counters) const {
  const std::size_t slices = required_.size();
  for (std::size_t w = 0; w < words_; ++w) {
    Word carry = bits[w];
    if (carry == 0) continue;
    for (std::size_t s = 0; s < slices && carry != 0; ++s) {
      Word& slice = counters[s * words_ + w];
      const Word next = slice & carry;
      slice ^= carry;
      carry = next;
    }
    // No carry-out is possible: a slot's counter never exceeds its own
    // requirement (each distinct entry is satisfied at most once per
    // event) and the slices cover the largest requirement registered.
  }
}

void BitsetMatcher::emit_matches(const std::vector<Word>& counters,
                                 std::vector<SubscriptionId>& out) const {
  const std::size_t slices = required_.size();
  for (std::size_t w = 0; w < words_; ++w) {
    Word diff = 0;
    for (std::size_t s = 0; s < slices; ++s) {
      diff |= counters[s * words_ + w] ^ required_[s][w];
    }
    Word fire = live_[w] & ~diff;
    while (fire != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(fire));
      fire &= fire - 1;
      out.push_back(slots_[w * kWordBits + b].sub);
    }
  }
}

void BitsetMatcher::emit_universal(std::vector<SubscriptionId>& out) const {
  for (std::size_t w = 0; w < words_; ++w) {
    Word fire = zero_req_[w];
    while (fire != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(fire));
      fire &= fire - 1;
      out.push_back(slots_[w * kWordBits + b].sub);
    }
  }
}

void BitsetMatcher::match(const Event& event,
                          std::vector<SubscriptionId>& out) const {
  if (slot_of_.empty()) return;
  std::vector<const Entry*> satisfied;
  for (const auto& [attr, value] : event.attrs()) {
    collect_satisfied(attr, canonical_numeric(value), satisfied);
  }
  if (satisfied.empty()) {
    // Zero satisfied entries means exactly the requirement-0 (universal)
    // slots fire; skip the counter pass.
    emit_universal(out);
    return;
  }
  std::vector<Word> counters(required_.size() * words_, 0);
  for (const Entry* entry : satisfied) accumulate(entry->bits, counters);
  emit_matches(counters, out);
}

void BitsetMatcher::match_batch(
    const EventBatchView& events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  if (slot_of_.empty() || events.empty()) return;
  if (entries_ == 0) {
    // Only universal filters are registered.
    for (auto& hits : out) emit_universal(hits);
    return;
  }
  // Phase 1 — resolve satisfied index entries, amortized across the batch.
  // Occurrences are grouped by attribute and then by canonical value
  // (batch_group.h), so each eq probe and each noneq predicate runs once
  // per distinct (attribute, value) of the whole batch. The result is one
  // satisfied-entry list per event — a pure function of that event and the
  // registered filters, so per-event output is independent of the rest of
  // the batch (contract invariant 2).
  std::vector<std::vector<const Entry*>> satisfied(events.size());
  std::vector<const Entry*> group_entries;
  for_each_attr_group(events, [&](AttrId attr,
                                  const Occurrences& occurrences) {
    if (!eq_.contains(attr) && !range_.contains(attr) &&
        !prefix_.contains(attr) && !suffix_.contains(attr) &&
        !contains_.contains(attr) && !noneq_.contains(attr)) {
      return;
    }
    for_each_value_group(occurrences, [&](const Value& value,
                                          const std::vector<std::uint32_t>&
                                              event_positions) {
      group_entries.clear();
      collect_satisfied(attr, value, group_entries);
      if (group_entries.empty()) return;
      for (const std::uint32_t i : event_positions) {
        satisfied[i].insert(satisfied[i].end(), group_entries.begin(),
                            group_entries.end());
      }
    });
  });
  // Phase 2 — per event: ripple-carry the satisfied bitmaps into the
  // counter slices (reused scratch, re-zeroed per event) and run the
  // threshold pass. Word loops only; no hash probe survives phase 1.
  std::vector<Word> counters(required_.size() * words_, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (satisfied[i].empty()) {
      emit_universal(out[i]);
      continue;
    }
    std::fill(counters.begin(), counters.end(), 0);
    for (const Entry* entry : satisfied[i]) accumulate(entry->bits, counters);
    emit_matches(counters, out[i]);
  }
}

}  // namespace reef::pubsub
