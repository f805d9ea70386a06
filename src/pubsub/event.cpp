#include "pubsub/event.h"

#include <algorithm>

namespace reef::pubsub {

std::atomic<std::uint64_t> Event::copy_count_{0};

const std::vector<std::pair<AttrId, Value>> Event::kNoAttrs;

void Event::set(AttrId id, Value value) {
  if (!body_) {
    body_ = std::make_shared<Body>();
  } else if (body_.use_count() > 1) {
    // Copy-on-write: other handles share the block, so write to a clone
    // and leave theirs untouched.
    body_ = std::make_shared<Body>(*body_);
  }
  Body& body = *body_;
  const auto it = std::lower_bound(
      body.attrs.begin(), body.attrs.end(), id,
      [](const auto& entry, AttrId key) { return entry.first < key; });
  if (it != body.attrs.end() && it->first == id) {
    // insert_or_assign semantics; the name's bytes are already counted.
    body.wire = body.wire - it->second.wire_size() + value.wire_size();
    it->second = std::move(value);
  } else {
    body.wire += 2 + AttrTable::instance().name(id).size() + value.wire_size();
    body.attrs.emplace(it, id, std::move(value));
  }
}

const Value* Event::find(AttrId id) const noexcept {
  // Events carry a handful of attributes; a linear scan with the sorted-id
  // early exit beats binary search at these sizes.
  for (const auto& [attr, value] : attrs()) {
    if (attr >= id) return attr == id ? &value : nullptr;
  }
  return nullptr;
}

std::string Event::to_string() const {
  // Canonical text is in attribute-*name* order (the original map-backed
  // representation); ids are assigned in interning order, so re-sort a
  // scratch view by name here, off the hot path.
  const AttrTable& table = AttrTable::instance();
  std::vector<const std::pair<AttrId, Value>*> by_name;
  by_name.reserve(size());
  for (const auto& entry : attrs()) by_name.push_back(&entry);
  std::sort(by_name.begin(), by_name.end(),
            [&table](const auto* a, const auto* b) {
              return table.name(a->first) < table.name(b->first);
            });
  std::string out = "{";
  bool first = true;
  for (const auto* entry : by_name) {
    if (!first) out += ", ";
    first = false;
    out += table.name(entry->first);
    out += '=';
    out += entry->second.to_string();
  }
  out += '}';
  return out;
}

}  // namespace reef::pubsub
