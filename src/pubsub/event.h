// Events (notifications) for the content-based pub/sub substrate: a set of
// typed name-value attributes plus a monotone sequence id for tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/value.h"

namespace reef::pubsub {

/// Monotone identifier for an event instance (assigned by publishers).
using EventId = std::uint64_t;

/// A notification: a value-semantic handle to one shared, immutable block
/// of attributes. Attribute names are interned through the process-wide
/// AttrTable, and the attributes live in a flat vector sorted by AttrId —
/// matching engines iterate and probe by integer id, never touching the
/// strings. The canonical textual form (to_string), wire size, and
/// equality semantics are byte-for-byte identical to the original
/// name-keyed representation (tests/pubsub_attr_table_test.cpp pins the
/// golden strings).
///
/// Copying an Event copies the handle (one refcount bump), not the
/// attributes: every forward and delivery of one publication shares the
/// block the publisher built, and the last holder frees it. set()/with()
/// are copy-on-write — they clone the block only while another handle
/// shares it — and keep the cached wire size current, so wire_size() is a
/// field read. The id lives in the handle, so set_id() never clones.
///
/// Thread rule: an Event is mutated only by the thread that owns it, and
/// only before it is shared with another thread. Readers on other threads
/// (the routing table's match workers) never mutate, so the use_count() test
/// that guards the clone cannot race.
class Event {
 public:
  Event() = default;

  // Handle copies are counted (relaxed, process-global) so the zero-copy
  // batch contract is testable: matching a batch, or the contiguous
  // sub-spans the routing table's worker split hands out, must not copy a
  // single Event, not even a handle (tests/pubsub_workers_test.cpp and
  // tests/pubsub_attr_table_test.cpp assert copy_count() stays flat).
  Event(const Event& other) : body_(other.body_), id_(other.id_) {
    copy_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Event& operator=(const Event& other) {
    body_ = other.body_;
    id_ = other.id_;
    copy_count_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  /// A moved-from Event reads as empty (no attributes).
  Event(Event&&) noexcept = default;
  Event& operator=(Event&&) noexcept = default;

  /// Process-wide count of Event copy-constructions/assignments since
  /// start. Monotone; test code diffs it around a call under test.
  static std::uint64_t copy_count() noexcept {
    return copy_count_.load(std::memory_order_relaxed);
  }

  /// Fluent construction: Event().with("symbol", "ACME").with("price", 12.5)
  /// `name` is interned process-wide and never freed — attribute names
  /// must stay a bounded, schema-like vocabulary (dynamic data belongs in
  /// the Value); see the AttrTable cardinality note.
  Event&& with(std::string_view name, Value value) && {
    set(AttrTable::instance().intern(name), std::move(value));
    return std::move(*this);
  }
  Event& with(std::string_view name, Value value) & {
    set(AttrTable::instance().intern(name), std::move(value));
    return *this;
  }

  /// Attribute lookup by name; returns nullptr when absent. Names never
  /// interned by any event or filter cannot be present.
  const Value* find(std::string_view name) const noexcept {
    const AttrId id = AttrTable::instance().lookup(name);
    return id == kNoAttrId ? nullptr : find(id);
  }

  /// Hot-path attribute lookup by interned id (early-exit linear scan
  /// over the id-sorted flat storage — events carry a handful of
  /// attributes, where the scan beats binary search).
  const Value* find(AttrId id) const noexcept;

  bool has(std::string_view name) const noexcept { return find(name); }
  std::size_t size() const noexcept { return attrs().size(); }
  bool empty() const noexcept { return attrs().empty(); }

  /// Flat attribute storage, sorted by AttrId. The matching engines'
  /// iteration surface; names are recovered via AttrTable::name when a
  /// human-readable form is needed. Every copy of an Event returns the
  /// same vector until one of them is mutated.
  const std::vector<std::pair<AttrId, Value>>& attrs() const noexcept {
    return body_ ? body_->attrs : kNoAttrs;
  }

  EventId id() const noexcept { return id_; }
  void set_id(EventId id) noexcept { id_ = id; }

  /// Approximate wire size in bytes for traffic accounting: a 16-byte
  /// envelope plus 2 + name.size() + value.wire_size() per attribute.
  std::size_t wire_size() const noexcept {
    return body_ ? body_->wire : kEnvelopeBytes;
  }

  /// Canonical text, e.g. {price=12.5, symbol="ACME"} — attributes in
  /// name order, exactly as the original map-backed representation.
  std::string to_string() const;

  /// Same attribute set with the same values. AttrIds biject with names,
  /// so comparing the id-sorted flat vectors is equivalent to comparing
  /// the original name-sorted maps.
  friend bool operator==(const Event& a, const Event& b) noexcept {
    return a.attrs() == b.attrs();
  }

 private:
  static constexpr std::size_t kEnvelopeBytes = 16;  // id + count + framing

  /// The shared attribute block; `wire` caches wire_size().
  struct Body {
    std::vector<std::pair<AttrId, Value>> attrs;  // sorted by AttrId
    std::size_t wire = kEnvelopeBytes;
  };

  void set(AttrId id, Value value);

  static std::atomic<std::uint64_t> copy_count_;
  static const std::vector<std::pair<AttrId, Value>> kNoAttrs;

  std::shared_ptr<Body> body_;  // null until the first attribute
  EventId id_ = 0;
};

}  // namespace reef::pubsub
