#include "pubsub/matcher.h"

#include <algorithm>
#include <utility>

#include "pubsub/batch_group.h"
#include "pubsub/range_index.h"

namespace reef::pubsub {

Value canonical_numeric(const Value& v) {
  // Fold ints onto their double image only when the image is exact: an
  // engine that trusts bucket identity without re-evaluating (bitset)
  // would otherwise merge 2^53 with 2^53+1 — values the exact
  // Value::compare keeps distinct — and report false matches.
  if (v.type() == Value::Type::kInt) {
    if (const auto d = Value::exact_double_of_int(v.as_int())) {
      return Value(*d);
    }
  }
  return v;
}

void Matcher::match_batch(const EventBatchView& events,
                          std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) match(events[i], out[i]);
}

void Matcher::match_batch_scored(
    const EventBatchView& events, const ScoringIndex& scoring,
    std::vector<std::vector<ScoredHit>>& out) const {
  std::vector<std::vector<SubscriptionId>> hits;
  match_batch(events, hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[i].reserve(hits[i].size());
    for (const SubscriptionId id : hits[i]) {
      const ScoringSpec* spec = scoring.find(id);
      out[i].push_back(
          {id, spec != nullptr ? score_event(*spec, events[i])
                               : kConstantScore});
    }
  }
}

// --- BruteForceMatcher ------------------------------------------------------

void BruteForceMatcher::add(SubscriptionId id, Filter filter) {
  filters_.insert_or_assign(id, std::move(filter));
}

void BruteForceMatcher::remove(SubscriptionId id) { filters_.erase(id); }

void BruteForceMatcher::match(const Event& event,
                              std::vector<SubscriptionId>& out) const {
  for (const auto& [id, filter] : filters_) {
    if (filter.matches(event)) out.push_back(id);
  }
}

void BruteForceMatcher::match_batch(
    const EventBatchView& events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  for (const auto& [id, filter] : filters_) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (filter.matches(events[i])) out[i].push_back(id);
    }
  }
}

// --- IndexMatcher -----------------------------------------------------------

void IndexMatcher::add(SubscriptionId id, Filter filter) {
  remove(id);  // replace semantics
  Entry entry;
  entry.filter = std::move(filter);
  if (entry.filter.empty()) {
    universal_.push_back(id);
    filters_.emplace(id, std::move(entry));
    return;
  }
  // Anchor priority (see the class comment): the smallest current posting
  // among the eq buckets and exact-pattern postings (eq winning ties), else
  // the first in constraint with a bucketable member, else the first
  // sorted-indexable range constraint, else the smallest pattern posting,
  // else the residual scan list keyed by the first constraint's attribute.
  // Each anchor constraint is a necessary condition of its filter, so
  // matching stays correct for any choice — priority only steers probe
  // cost.
  const Constraint* best_eq = nullptr;
  std::size_t best_eq_size = ~std::size_t{0};
  const Constraint* best_pattern = nullptr;
  std::size_t best_pattern_size = ~std::size_t{0};
  const Constraint* in_anchor = nullptr;
  const Constraint* range_anchor = nullptr;
  for (const auto& c : entry.filter.constraints()) {
    if (c.op() == Op::kEq) {
      if (const std::size_t size = posting_size(c); size < best_eq_size) {
        best_eq_size = size;
        best_eq = &c;
      }
    } else if (is_sortable_prefix(c) || is_sortable_suffix(c) ||
               is_sortable_contains(c)) {
      if (const std::size_t size = posting_size(c);
          size < best_pattern_size) {
        best_pattern_size = size;
        best_pattern = &c;
      }
    } else if (in_anchor == nullptr && c.op() == Op::kIn) {
      if (std::any_of(c.members().begin(), c.members().end(), eq_bucketable)) {
        in_anchor = &c;
      }
    } else if (range_anchor == nullptr && is_sortable_range(c)) {
      range_anchor = &c;
    }
  }
  const Constraint* pattern_anchor = nullptr;
  if (best_eq != nullptr && best_pattern_size < best_eq_size) {
    pattern_anchor = best_pattern;  // strictly smaller than every eq bucket
    best_eq = nullptr;
  } else if (best_eq == nullptr && in_anchor == nullptr &&
             range_anchor == nullptr) {
    pattern_anchor = best_pattern;
  }
  if (best_eq != nullptr) {
    entry.kind = AnchorKind::kEqBucket;
    entry.anchor_attr = best_eq->attr_id();
    entry.anchor_value = canonical_numeric(best_eq->value());
    eq_[entry.anchor_attr][entry.anchor_value].push_back(id);
    ++eq_count_;
  } else if (pattern_anchor != nullptr) {
    entry.anchor_attr = pattern_anchor->attr_id();
    entry.anchor_value = pattern_anchor->value();  // original pattern
    const std::string& pattern = entry.anchor_value.as_string();
    if (pattern_anchor->op() == Op::kContains) {
      entry.kind = AnchorKind::kContains;
      contains_[entry.anchor_attr].insert(pattern).payload.push_back(id);
      ++contains_count_;
    } else {
      const bool is_prefix = pattern_anchor->op() == Op::kPrefix;
      entry.kind = is_prefix ? AnchorKind::kPrefix : AnchorKind::kSuffix;
      PrefixIndex& index =
          (is_prefix ? prefix_ : suffix_)[entry.anchor_attr];
      const std::string key = is_prefix ? pattern : reversed(pattern);
      auto it = prefix_posting_pos(index.postings, key);
      if (it == index.postings.end() || it->prefix != key) {
        it = index.postings.insert(it, PrefixPosting{key, {}});
        add_prefix_length(index.lengths, key.size());
      }
      it->ids.push_back(id);
      ++(is_prefix ? prefix_count_ : suffix_count_);
    }
  } else if (in_anchor != nullptr) {
    // Post the filter under every bucketable member of the set. An event
    // value equals at most one canonical member, so a probe finds the
    // filter at most once — and a matching event satisfies the in
    // constraint, so its member bucket is always probed (necessary
    // condition, like any other anchor). Unbucketable members (null, NaN)
    // can never be satisfied and are skipped symmetrically in remove().
    entry.kind = AnchorKind::kIn;
    entry.anchor_attr = in_anchor->attr_id();
    auto& by_value = eq_[entry.anchor_attr];
    for (const Value& m : in_anchor->members()) {
      if (eq_bucketable(m)) by_value[canonical_numeric(m)].push_back(id);
    }
    ++in_count_;
  } else if (range_anchor != nullptr) {
    entry.kind = AnchorKind::kRange;
    entry.anchor_attr = range_anchor->attr_id();
    entry.anchor_value = range_anchor->value();
    entry.anchor_strict = is_strict_op(range_anchor->op());
    entry.anchor_lower = is_lower_bound_op(range_anchor->op());
    RangeIndex& index = range_[entry.anchor_attr];
    RangePosting posting{entry.anchor_value, entry.anchor_strict, id};
    if (entry.anchor_lower) {
      index.lower.insert(
          std::upper_bound(index.lower.begin(), index.lower.end(), posting,
                           lower_bound_order<RangePosting>),
          std::move(posting));
    } else {
      index.upper.insert(
          std::upper_bound(index.upper.begin(), index.upper.end(), posting,
                           upper_bound_order<RangePosting>),
          std::move(posting));
    }
    ++range_count_;
  } else {
    entry.kind = AnchorKind::kScan;
    entry.anchor_attr = entry.filter.constraints().front().attr_id();
    scan_[entry.anchor_attr].push_back(id);
    ++scan_count_;
  }
  filters_.emplace(id, std::move(entry));
}

void IndexMatcher::remove(SubscriptionId id) {
  const auto it = filters_.find(id);
  if (it == filters_.end()) return;
  const Entry& entry = it->second;
  switch (entry.kind) {
    case AnchorKind::kUniversal:
      std::erase(universal_, id);
      break;
    case AnchorKind::kEqBucket: {
      auto& by_value = eq_.at(entry.anchor_attr);
      auto& bucket = by_value.at(entry.anchor_value);
      std::erase(bucket, id);
      if (bucket.empty()) by_value.erase(entry.anchor_value);
      if (by_value.empty()) eq_.erase(entry.anchor_attr);
      --eq_count_;
      break;
    }
    case AnchorKind::kIn: {
      // Re-find the anchor constraint the same way add() chose it: the
      // first in constraint with a bucketable member.
      const Constraint* anchor = nullptr;
      for (const auto& c : entry.filter.constraints()) {
        if (c.op() != Op::kIn) continue;
        for (const Value& m : c.members()) {
          if (eq_bucketable(m)) {
            anchor = &c;
            break;
          }
        }
        if (anchor != nullptr) break;
      }
      auto& by_value = eq_.at(entry.anchor_attr);
      for (const Value& m : anchor->members()) {
        if (!eq_bucketable(m)) continue;
        const Value key = canonical_numeric(m);
        auto& bucket = by_value.at(key);
        std::erase(bucket, id);
        if (bucket.empty()) by_value.erase(key);
      }
      if (by_value.empty()) eq_.erase(entry.anchor_attr);
      --in_count_;
      break;
    }
    case AnchorKind::kRange: {
      const auto range_it = range_.find(entry.anchor_attr);
      RangeIndex& index = range_it->second;
      auto& postings = entry.anchor_lower ? index.lower : index.upper;
      postings.erase(std::find_if(
          postings.begin(), postings.end(),
          [&](const RangePosting& p) { return p.id == id; }));
      if (index.lower.empty() && index.upper.empty()) range_.erase(range_it);
      --range_count_;
      break;
    }
    case AnchorKind::kPrefix: {
      const auto prefix_it = prefix_.find(entry.anchor_attr);
      PrefixIndex& index = prefix_it->second;
      const std::string& pattern = entry.anchor_value.as_string();
      const auto pos = prefix_posting_pos(index.postings, pattern);
      std::erase(pos->ids, id);
      if (pos->ids.empty()) {
        remove_prefix_length(index.lengths, pattern.size());
        index.postings.erase(pos);
      }
      if (index.postings.empty()) prefix_.erase(prefix_it);
      --prefix_count_;
      break;
    }
    case AnchorKind::kSuffix: {
      const auto suffix_it = suffix_.find(entry.anchor_attr);
      PrefixIndex& index = suffix_it->second;
      const std::string pattern = reversed(entry.anchor_value.as_string());
      const auto pos = prefix_posting_pos(index.postings, pattern);
      std::erase(pos->ids, id);
      if (pos->ids.empty()) {
        remove_prefix_length(index.lengths, pattern.size());
        index.postings.erase(pos);
      }
      if (index.postings.empty()) suffix_.erase(suffix_it);
      --suffix_count_;
      break;
    }
    case AnchorKind::kContains: {
      const auto contains_it = contains_.find(entry.anchor_attr);
      ContainsIndex& index = contains_it->second;
      const std::string& pattern = entry.anchor_value.as_string();
      auto& ids = index.find(pattern)->payload;
      std::erase(ids, id);
      if (ids.empty()) index.erase(pattern);
      if (index.empty()) contains_.erase(contains_it);
      --contains_count_;
      break;
    }
    case AnchorKind::kScan: {
      auto& list = scan_.at(entry.anchor_attr);
      std::erase(list, id);
      if (list.empty()) scan_.erase(entry.anchor_attr);
      --scan_count_;
      break;
    }
  }
  filters_.erase(it);
}

std::size_t IndexMatcher::posting_size(const Constraint& c) const {
  const AttrId attr = c.attr_id();
  if (c.op() == Op::kEq) {
    const auto attr_it = eq_.find(attr);
    if (attr_it == eq_.end()) return 0;
    const auto value_it = attr_it->second.find(canonical_numeric(c.value()));
    return value_it == attr_it->second.end() ? 0 : value_it->second.size();
  }
  const std::string& pattern = c.value().as_string();
  if (c.op() == Op::kContains) {
    const auto table_it = contains_.find(attr);
    if (table_it == contains_.end()) return 0;
    const auto* posting = table_it->second.find(pattern);
    return posting == nullptr ? 0 : posting->payload.size();
  }
  const bool is_prefix = c.op() == Op::kPrefix;
  const auto& tables = is_prefix ? prefix_ : suffix_;
  const auto table_it = tables.find(attr);
  if (table_it == tables.end()) return 0;
  const std::string key = is_prefix ? pattern : reversed(pattern);
  const auto& postings = table_it->second.postings;
  const auto it = prefix_posting_pos(postings, key);
  return it == postings.end() || it->prefix != key ? 0 : it->ids.size();
}

std::optional<std::string> IndexMatcher::anchor_attribute(
    SubscriptionId id) const {
  const auto it = filters_.find(id);
  if (it == filters_.end()) return std::nullopt;
  if (it->second.anchor_attr == kNoAttrId) return std::string();
  return AttrTable::instance().name(it->second.anchor_attr);
}

std::size_t IndexMatcher::largest_eq_bucket() const noexcept {
  std::size_t largest = 0;
  for (const auto& [attr, by_value] : eq_) {
    for (const auto& [value, bucket] : by_value) {
      largest = std::max(largest, bucket.size());
    }
  }
  return largest;
}

std::size_t IndexMatcher::rebalance(std::size_t max_bucket) {
  // Collect victims first: re-adding mutates the buckets being iterated.
  // Sorted ids make the pass order (and therefore the resulting anchor
  // assignment) independent of hash-map iteration order. Only eq-anchored
  // filters with an alternative anchor — a second eq constraint or an
  // indexable pattern — can move; the rest (single-eq filters, in-anchored
  // ones) are pinned to their bucket, so skip them rather than churn them
  // through a pointless remove/re-add cycle.
  std::vector<SubscriptionId> victims;
  for (const auto& [attr, by_value] : eq_) {
    for (const auto& [value, bucket] : by_value) {
      if (bucket.size() <= max_bucket) continue;
      for (const SubscriptionId id : bucket) {
        const Entry& entry = filters_.at(id);
        if (entry.kind != AnchorKind::kEqBucket) continue;
        std::size_t alternatives = 0;
        for (const auto& c : entry.filter.constraints()) {
          if (c.op() == Op::kEq || is_sortable_prefix(c) ||
              is_sortable_suffix(c) || is_sortable_contains(c)) {
            if (++alternatives > 1) break;
          }
        }
        if (alternatives > 1) victims.push_back(id);
      }
    }
  }
  std::sort(victims.begin(), victims.end());
  std::size_t moved = 0;
  for (const SubscriptionId id : victims) {
    const Entry& entry = filters_.at(id);
    const AnchorKind old_kind = entry.kind;
    const AttrId old_attr = entry.anchor_attr;
    const Value old_value = entry.anchor_value;
    Filter filter = entry.filter;
    add(id, std::move(filter));  // re-runs anchor selection
    const Entry& after = filters_.at(id);
    if (after.kind != old_kind || after.anchor_attr != old_attr ||
        !(after.anchor_value == old_value)) {
      ++moved;
    }
  }
  return moved;
}

void IndexMatcher::match(const Event& event,
                         std::vector<SubscriptionId>& out) const {
  out.insert(out.end(), universal_.begin(), universal_.end());
  // Probe the anchors reachable from the event's own attributes; each
  // candidate is evaluated fully. Every filter lives under exactly one
  // anchor, so no deduplication is needed, and a matching filter's anchor
  // constraint is by definition satisfied by the event — the probe always
  // finds it. Attributes come out of the event in ascending AttrId order —
  // the same order the batch path uses, so per-event output is identical.
  for (const auto& [attr, value] : event.attrs()) {
    if (const auto attr_it = eq_.find(attr); attr_it != eq_.end()) {
      if (const auto value_it = attr_it->second.find(canonical_numeric(value));
          value_it != attr_it->second.end()) {
        for (const SubscriptionId id : value_it->second) {
          if (filters_.at(id).filter.matches(event)) out.push_back(id);
        }
      }
    }
    if (const auto range_it = range_.find(attr);
        range_it != range_.end() && range_sortable(value)) {
      // Binary-search the sorted bound arrays: the satisfied lower-bound
      // postings are a prefix, the satisfied upper-bound postings a
      // suffix; only those candidates are fetched and evaluated.
      const RangeIndex& index = range_it->second;
      const std::size_t lower_end = lower_satisfied_end(index.lower, value);
      for (std::size_t k = 0; k < lower_end; ++k) {
        const SubscriptionId id = index.lower[k].id;
        if (filters_.at(id).filter.matches(event)) out.push_back(id);
      }
      for (std::size_t k = upper_satisfied_begin(index.upper, value);
           k < index.upper.size(); ++k) {
        const SubscriptionId id = index.upper[k].id;
        if (filters_.at(id).filter.matches(event)) out.push_back(id);
      }
    }
    if (const auto prefix_it = prefix_.find(attr);
        prefix_it != prefix_.end() && value.is_string()) {
      probe_prefixes(prefix_it->second.postings, prefix_it->second.lengths,
                     value.as_string(), [&](const PrefixPosting& posting) {
                       for (const SubscriptionId id : posting.ids) {
                         if (filters_.at(id).filter.matches(event)) {
                           out.push_back(id);
                         }
                       }
                     });
    }
    if (const auto suffix_it = suffix_.find(attr);
        suffix_it != suffix_.end() && value.is_string()) {
      // Suffix tables hold reversed patterns; reverse the event string
      // once and the prefix probes do the rest.
      const std::string rev = reversed(value.as_string());
      probe_prefixes(suffix_it->second.postings, suffix_it->second.lengths,
                     rev, [&](const PrefixPosting& posting) {
                       for (const SubscriptionId id : posting.ids) {
                         if (filters_.at(id).filter.matches(event)) {
                           out.push_back(id);
                         }
                       }
                     });
    }
    if (const auto contains_it = contains_.find(attr);
        contains_it != contains_.end() && value.is_string()) {
      contains_it->second.probe(
          value.as_string(), [&](const ContainsIndex::Posting& posting) {
            for (const SubscriptionId id : posting.payload) {
              if (filters_.at(id).filter.matches(event)) out.push_back(id);
            }
          });
    }
    if (const auto scan_it = scan_.find(attr); scan_it != scan_.end()) {
      for (const SubscriptionId id : scan_it->second) {
        if (filters_.at(id).filter.matches(event)) out.push_back(id);
      }
    }
  }
}

void IndexMatcher::match_batch(
    const EventBatchView& events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  out.assign(events.size(), {});
  for (auto& hits : out) {
    hits.insert(hits.end(), universal_.begin(), universal_.end());
  }
  if (eq_.empty() && range_.empty() && prefix_.empty() && suffix_.empty() &&
      contains_.empty() && scan_.empty()) {
    return;
  }
  // Group the batch by attribute, then by canonical value (batch_group.h),
  // so each probe — eq bucket lookup, range binary search, prefix/suffix/
  // contains table probe — runs once and each candidate filter is fetched
  // once, however many events of the batch share the value. Probe order
  // per value mirrors the single-event path (eq, range lower, range upper,
  // prefix, suffix, contains, scan), and each event carries one value per
  // attribute, so per-event output order is batch-composition independent.
  for_each_attr_group(events, [&](AttrId attr,
                                  const Occurrences& occurrences) {
    const auto eq_it = eq_.find(attr);
    const auto range_it = range_.find(attr);
    const auto prefix_it = prefix_.find(attr);
    const auto suffix_it = suffix_.find(attr);
    const auto contains_it = contains_.find(attr);
    if (eq_it != eq_.end() || range_it != range_.end() ||
        prefix_it != prefix_.end() || suffix_it != suffix_.end() ||
        contains_it != contains_.end()) {
      for_each_value_group(occurrences, [&](const Value& value,
                                            const std::vector<std::uint32_t>&
                                                event_positions) {
        const auto evaluate = [&](SubscriptionId id) {
          const Filter& filter = filters_.at(id).filter;
          for (const std::uint32_t i : event_positions) {
            if (filter.matches(events[i])) out[i].push_back(id);
          }
        };
        if (eq_it != eq_.end()) {
          if (const auto value_it = eq_it->second.find(value);
              value_it != eq_it->second.end()) {
            for (const SubscriptionId id : value_it->second) evaluate(id);
          }
        }
        if (range_it != range_.end() && range_sortable(value)) {
          const RangeIndex& index = range_it->second;
          const std::size_t lower_end =
              lower_satisfied_end(index.lower, value);
          for (std::size_t k = 0; k < lower_end; ++k) {
            evaluate(index.lower[k].id);
          }
          for (std::size_t k = upper_satisfied_begin(index.upper, value);
               k < index.upper.size(); ++k) {
            evaluate(index.upper[k].id);
          }
        }
        if (prefix_it != prefix_.end() && value.is_string()) {
          probe_prefixes(prefix_it->second.postings,
                         prefix_it->second.lengths, value.as_string(),
                         [&](const PrefixPosting& posting) {
                           for (const SubscriptionId id : posting.ids) {
                             evaluate(id);
                           }
                         });
        }
        if (suffix_it != suffix_.end() && value.is_string()) {
          const std::string rev = reversed(value.as_string());
          probe_prefixes(suffix_it->second.postings,
                         suffix_it->second.lengths, rev,
                         [&](const PrefixPosting& posting) {
                           for (const SubscriptionId id : posting.ids) {
                             evaluate(id);
                           }
                         });
        }
        if (contains_it != contains_.end() && value.is_string()) {
          contains_it->second.probe(
              value.as_string(), [&](const ContainsIndex::Posting& posting) {
                for (const SubscriptionId id : posting.payload) evaluate(id);
              });
        }
      });
    }
    if (const auto scan_it = scan_.find(attr); scan_it != scan_.end()) {
      for (const SubscriptionId id : scan_it->second) {
        const Filter& filter = filters_.at(id).filter;
        for (const auto& [i, value] : occurrences) {
          if (filter.matches(events[i])) out[i].push_back(id);
        }
      }
    }
  });
}

}  // namespace reef::pubsub
