// Process-wide attribute-name symbol table for the pub/sub hot path.
//
// Every attribute name that appears in an Event or a Constraint is
// interned exactly once and identified thereafter by a stable, dense
// AttrId (uint32_t). Matching engines key their indices by AttrId — hash
// is the identity — so the per-event inner loop does integer compares and
// array probes instead of string hashing and string compares; the strings
// themselves survive only at the edges (construction, to_string, wire
// accounting).
//
// Concurrency contract: intern() takes a mutex and is safe from any
// thread; lookup() and name() are lock-free and wait-free, safe to call
// concurrently with intern(). The table is append-only — ids are never
// reused or remapped, and an interned name's storage is never moved — so
// readers only need acquire loads on the published index and chunk
// pointers. The routing table's match workers read names concurrently
// with other threads interning them; tests/pubsub_attr_table_test.cpp runs the
// intern/lookup race under TSan.
//
// Cardinality assumption: attribute *names* are schema-like — a bounded
// vocabulary (stream, feed, price, ...), per-entity variability belongs
// in attribute *values*. Interned names are never freed (append-only by
// design), so a workload synthesizing unbounded distinct names retains
// them for the process lifetime, and intern() throws std::length_error
// at the 4M-name capacity (surfacing through Event::with / Constraint
// construction). Keep dynamic data out of attribute names.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace reef::pubsub {

/// Stable identifier of an interned attribute name. Dense: ids count up
/// from 0 in interning order, so AttrId-indexed vectors work as maps.
using AttrId = std::uint32_t;

/// Sentinel returned by AttrTable::lookup for names never interned — and
/// therefore impossible to occur in any registered filter or stored event.
inline constexpr AttrId kNoAttrId = 0xffffffff;

/// Transparent identity hash for AttrId-keyed unordered_maps: the ids are
/// already dense and well-distributed, re-hashing them is pure waste.
struct AttrIdHash {
  std::size_t operator()(AttrId id) const noexcept { return id; }
};

class AttrTable {
 public:
  /// The process-wide table (events, filters, and engines must agree on
  /// ids, so there is exactly one).
  static AttrTable& instance();

  /// Returns the id for `attr_name`, interning it first if needed.
  /// Thread-safe (mutex on the insert path, lock-free when present).
  AttrId intern(std::string_view attr_name);

  /// Returns the id for `attr_name`, or kNoAttrId when it was never
  /// interned. Lock-free; safe concurrently with intern().
  AttrId lookup(std::string_view attr_name) const noexcept;

  /// The interned name for `id`. The reference is stable for the process
  /// lifetime. `id` must be a *valid* interned id (< size()); passing
  /// kNoAttrId — e.g. an unchecked lookup() miss — is a precondition
  /// violation (asserted in debug builds). Lock-free.
  const std::string& name(AttrId id) const noexcept;

  /// Number of interned names (== smallest id not yet assigned).
  std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  AttrTable(const AttrTable&) = delete;
  AttrTable& operator=(const AttrTable&) = delete;

 private:
  AttrTable();

  /// Open-addressing hash index over the interned names. Immutable once
  /// published except for slot fills (0 -> id+1, released by the writer
  /// under the mutex); readers re-probe through an acquire load per slot.
  /// Rehashing builds a fresh Index and publishes it; superseded indexes
  /// are retired (not freed) so racing readers never touch freed memory.
  struct Index {
    explicit Index(std::size_t capacity_pow2);
    std::size_t mask;  // capacity - 1
    std::vector<std::atomic<std::uint32_t>> slots;  // 0 = empty, else id+1
  };

  static constexpr std::size_t kChunkShift = 10;  // 1024 names per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = 1u << 12;  // 4M names

  /// Probes `index` for `attr_name`; fills `hash` out-param for reuse.
  AttrId find_in(const Index& index, std::string_view attr_name,
                 std::uint64_t hash) const noexcept;

  std::atomic<Index*> index_;
  std::array<std::atomic<std::string*>, kMaxChunks> chunks_{};
  std::atomic<std::uint32_t> count_{0};

  std::mutex insert_mutex_;
  std::vector<std::unique_ptr<Index>> retired_;  // superseded index versions
  std::vector<std::unique_ptr<std::string[]>> chunk_storage_;
};

}  // namespace reef::pubsub
