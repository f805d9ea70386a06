// Batch grouping for BitsetMatcher::match_batch: a batch is cut into
// per-attribute occurrence lists, and each list into per-value groups, so
// every index probe runs once per distinct (attribute, canonical value) of
// the batch instead of once per event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/matcher.h"

namespace reef::pubsub {

/// One attribute across a batch: (position in the view, the event's value).
using Occurrences = std::vector<std::pair<std::uint32_t, const Value*>>;

/// Invokes `fn(attr, occurrences)` once per attribute present in the batch,
/// in ascending AttrId, with the events in view order inside each list —
/// so per-event output built group by group is independent of which other
/// events share the batch (event.attrs() iterates ascending too). Two
/// grouping strategies, same output: a dense AttrId-indexed table when the
/// ids present span a range comparable to the batch (the schema-bounded
/// norm — attribute names are a small vocabulary, see the AttrTable
/// cardinality note), and an O(A log A) sort of flattened occurrences when
/// a stray late-interned id would make the dense table bigger than the work
/// it saves.
template <typename Fn>
void for_each_attr_group(const EventBatchView& events, Fn&& fn) {
  std::size_t occurrence_count = 0;
  AttrId max_attr = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& attrs = events[i].attrs();
    occurrence_count += attrs.size();
    if (!attrs.empty()) max_attr = std::max(max_attr, attrs.back().first);
  }
  const std::size_t id_span = static_cast<std::size_t>(max_attr) + 1;
  if (id_span <= 4 * occurrence_count + 64) {
    std::vector<Occurrences> by_attr(id_span);
    std::vector<AttrId> touched;
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      for (const auto& [attr, value] : events[i].attrs()) {
        auto& occurrences = by_attr[attr];
        if (occurrences.empty()) touched.push_back(attr);
        occurrences.emplace_back(i, &value);
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const AttrId attr : touched) fn(attr, by_attr[attr]);
    return;
  }
  std::vector<std::pair<AttrId, std::pair<std::uint32_t, const Value*>>> flat;
  flat.reserve(occurrence_count);
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    for (const auto& [attr, value] : events[i].attrs()) {
      flat.emplace_back(attr, std::make_pair(i, &value));
    }
  }
  std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.first < b.second.first;
  });
  Occurrences occurrences;
  for (std::size_t o = 0; o < flat.size();) {
    const AttrId attr = flat[o].first;
    occurrences.clear();
    for (; o < flat.size() && flat[o].first == attr; ++o) {
      occurrences.push_back(flat[o].second);
    }
    fn(attr, occurrences);
  }
}

/// Invokes `fn(canonical, positions)` once per distinct canonical value
/// (canonical_numeric identity: an int with an exact double image groups
/// with that double) among `occurrences`, with the view positions carrying
/// it. Groups are keyed by pointer into the events, so no value is copied —
/// only ints are, into their canonical double, when the group is visited.
/// Value::hash already hashes such ints through their double image.
template <typename Fn>
void for_each_value_group(const Occurrences& occurrences, Fn&& fn) {
  struct Hash {
    std::size_t operator()(const Value* v) const noexcept {
      return std::hash<Value>{}(*v);
    }
  };
  struct Equal {
    bool operator()(const Value* a, const Value* b) const {
      if (a->type() != Value::Type::kInt && b->type() != Value::Type::kInt) {
        return *a == *b;
      }
      return a->is_numeric() && b->is_numeric() &&
             canonical_numeric(*a) == canonical_numeric(*b);
    }
  };
  std::unordered_map<const Value*, std::vector<std::uint32_t>, Hash, Equal>
      by_value;
  for (const auto& [i, value] : occurrences) by_value[value].push_back(i);
  for (const auto& [value, positions] : by_value) {
    if (value->type() == Value::Type::kInt) {
      fn(canonical_numeric(*value), positions);
    } else {
      fn(*value, positions);
    }
  }
}

}  // namespace reef::pubsub
