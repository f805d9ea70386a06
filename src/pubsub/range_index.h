// Sorted-bound / sorted-prefix probe arithmetic for the per-op predicate
// indexes of BitsetMatcher: its range and prefix/suffix entry tables sort
// their postings with the comparators here and enumerate the satisfied
// postings with partition-point probes. The boundary semantics (strict vs
// inclusive at an exactly-equal bound is where the off-by-ones live) are
// defined in this one place.
//
// ## Range postings
//
// A numeric range constraint is either a *lower* bound (`> b`, `>= b`:
// satisfied values are bounded below) or an *upper* bound (`< b`, `<= b`).
// Per attribute each class lives in its own sorted array, ordered so the
// postings satisfied by an event value `v` form a contiguous run found by
// one binary search:
//
//   lower: bound ascending, inclusive (>=) before strict (>) at
//          compare-equal bounds  =>  satisfied set is a *prefix*
//   upper: bound ascending, strict (<) before inclusive (<=)
//          =>  satisfied set is a *suffix*
//
// Bounds compare with the exact Value::compare (int/double cross-type,
// no precision loss past 2^53), which is a total order over non-NaN
// numerics — NaN bounds are excluded up front by is_sortable_range.
//
// ## Prefix postings
//
// Prefix constraints per attribute live in one array sorted by pattern
// (distinct patterns), plus a sorted set of live pattern lengths. Probing
// an event string runs one lexicographic binary search per live length
// l <= |s| for s's own l-prefix — the [p, p+epsilon) interval membership
// test, inverted: instead of asking which strings fall in a pattern's
// interval, each l-prefix of the event names the one pattern interval it
// could fall in. The length-0 pattern (matches every string) is a live
// length like any other: its probe key is the empty view, which every
// event string, including "", has as its 0-prefix.
//
// ## Suffix postings
//
// Suffix is prefix read backwards: the table stores *reversed* patterns
// in the same sorted-pattern layout, and probing reverses the event
// string once, then reuses probe_prefixes verbatim. One reversal + one
// binary search per live length replaces a per-filter ends_with scan.
//
// ## Contains postings
//
// Contains has no single-probe order, so ContainsTable probes every
// distinct pattern in *one pass over the event string*. Postings stay
// sorted by (pattern length, pattern); next to them the table keeps a
// gated bigram index. Per first byte b it holds a *lead*: the posting of
// the length-1 pattern "b" if there is one, and a 256-bit gate of the
// second bytes that longer patterns starting with b use. Every pattern of
// length >= 2 is filed in its (first byte, second byte) group, in posting
// order, as a gram that carries its first min(length, 8) bytes (the
// head), the mask of those bytes and its length inline. At text position
// i the probe marks the lead's length-1 pattern, and one bit test of
// s[i+1] in the gate rejects most positions. Past the gate, the rank of
// that bit (per-word group bases plus one popcount) names the group; the
// probe loads the text's next min(8, |s| - i) bytes into a zeroed word
// once and confirms each candidate by one masked 64-bit compare against
// its head. Only patterns longer than 8 bytes then compare their tail,
// straight from the posting. A group's grams ascend in length, so the
// first one longer than the rest of s ends the walk.
//
// Heads, masks and text words are all built by memcpy of bytes in memory
// order into a zeroed word, so the compare is between two words loaded
// the same way and does not depend on endianness. The text load never
// reads past s.size(): within 8 bytes of the end it copies only the bytes
// that are left, and any pattern that passes the length check has its
// mask inside them.
//
// Hits are marked in a per-thread bitmap over posting positions, so a
// pattern occurring many times in s is reported once, and fired
// afterwards in posting order: ascending (length, pattern), with the
// empty pattern, a substring of everything, first; hit order does not
// depend on where in s a pattern occurs. The index is rebuilt whenever a
// distinct pattern comes or goes, by one pass that sets gate bits, one
// over the 256 leads that numbers the groups, and one counting pass that
// files the grams: O(distinct patterns) per change, no per-byte-pair flat
// tables. Distinct patterns appear once no matter how many filters share
// them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/constraint.h"
#include "pubsub/value.h"

namespace reef::pubsub {

/// True for the range ops whose satisfied values are bounded below.
inline bool is_lower_bound_op(Op op) noexcept {
  return op == Op::kGt || op == Op::kGe;
}

/// True for the strict comparisons (`<`, `>`).
inline bool is_strict_op(Op op) noexcept {
  return op == Op::kLt || op == Op::kGt;
}

/// True for values a sorted numeric bound array can hold or be probed
/// with: numeric and not NaN (NaN satisfies and is covered by nothing).
inline bool range_sortable(const Value& v) noexcept {
  if (!v.is_numeric()) return false;
  return v.type() != Value::Type::kDouble || !std::isnan(v.as_double());
}

/// Range constraint whose bound can live in a sorted numeric array.
/// String/bool range constraints are legal in the language but stay on
/// the residual scan path.
inline bool is_sortable_range(const Constraint& c) noexcept {
  switch (c.op()) {
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      return range_sortable(c.value());
    default:
      return false;
  }
}

/// Prefix constraint indexable in the sorted-pattern table. A non-string
/// pattern never matches anything; it stays on the residual scan path.
inline bool is_sortable_prefix(const Constraint& c) noexcept {
  return c.op() == Op::kPrefix && c.value().is_string();
}

/// Suffix constraint indexable in the reversed-pattern table.
inline bool is_sortable_suffix(const Constraint& c) noexcept {
  return c.op() == Op::kSuffix && c.value().is_string();
}

/// Contains constraint indexable in the contains table (ContainsTable).
inline bool is_sortable_contains(const Constraint& c) noexcept {
  return c.op() == Op::kContains && c.value().is_string();
}

/// The reversed copy used by the suffix tables: suffix patterns and probe
/// strings are both stored/probed reversed, turning ends_with into
/// starts_with.
inline std::string reversed(std::string_view s) {
  return std::string(s.rbegin(), s.rend());
}

/// True for values that can key an equality hash bucket. Null never
/// equals anything; a NaN double neither equals anything (Value::compare
/// is partial there) nor behaves as a hash key (hash-equal,
/// operator==-unequal copies make unordered_map entries unreachable).
/// Skipping such kIn members is sound: they can never be satisfied.
inline bool eq_bucketable(const Value& v) noexcept {
  if (v.is_null()) return false;
  return v.type() != Value::Type::kDouble || !std::isnan(v.as_double());
}

namespace probe_detail {
inline bool value_less(const Value& a, const Value& b) noexcept {
  return Value::compare(a, b) == std::strong_ordering::less;
}
}  // namespace probe_detail

/// Sort order for lower-bound postings (`Posting` needs `.bound` and
/// `.strict`): bound ascending, inclusive before strict at compare-equal
/// bounds, so the satisfied postings for any probe value are a prefix.
template <typename Posting>
bool lower_bound_order(const Posting& a, const Posting& b) noexcept {
  if (probe_detail::value_less(a.bound, b.bound)) return true;
  if (probe_detail::value_less(b.bound, a.bound)) return false;
  return !a.strict && b.strict;
}

/// Sort order for upper-bound postings: bound ascending, strict before
/// inclusive, so the satisfied postings are a suffix.
template <typename Posting>
bool upper_bound_order(const Posting& a, const Posting& b) noexcept {
  if (probe_detail::value_less(a.bound, b.bound)) return true;
  if (probe_detail::value_less(b.bound, a.bound)) return false;
  return a.strict && !b.strict;
}

/// One past the last lower-bound posting satisfied by probe value `v`
/// (array sorted by lower_bound_order; `v` must pass range_sortable).
/// Satisfied means bound < v, or bound == v for an inclusive posting —
/// monotone along the sort order, so partition_point finds the edge.
template <typename Posting>
std::size_t lower_satisfied_end(const std::vector<Posting>& sorted,
                                const Value& v) noexcept {
  const auto it = std::partition_point(
      sorted.begin(), sorted.end(), [&](const Posting& p) {
        const auto c = Value::compare(p.bound, v);
        return c == std::strong_ordering::less ||
               (c == std::strong_ordering::equal && !p.strict);
      });
  return static_cast<std::size_t>(it - sorted.begin());
}

/// Index of the first upper-bound posting satisfied by `v` (array sorted
/// by upper_bound_order). Unsatisfied means bound < v, or bound == v for
/// a strict posting — monotone, so the satisfied suffix starts at the
/// partition point.
template <typename Posting>
std::size_t upper_satisfied_begin(const std::vector<Posting>& sorted,
                                  const Value& v) noexcept {
  const auto it = std::partition_point(
      sorted.begin(), sorted.end(), [&](const Posting& p) {
        const auto c = Value::compare(p.bound, v);
        return c == std::strong_ordering::less ||
               (c == std::strong_ordering::equal && p.strict);
      });
  return static_cast<std::size_t>(it - sorted.begin());
}

/// Live-prefix-length bookkeeping: lengths is kept sorted ascending with a
/// count of live distinct patterns per length.
inline void add_prefix_length(
    std::vector<std::pair<std::size_t, std::size_t>>& lengths,
    std::size_t len) {
  const auto it = std::lower_bound(
      lengths.begin(), lengths.end(), len,
      [](const auto& e, std::size_t l) { return e.first < l; });
  if (it != lengths.end() && it->first == len) {
    ++it->second;
  } else {
    lengths.insert(it, {len, 1});
  }
}

inline void remove_prefix_length(
    std::vector<std::pair<std::size_t, std::size_t>>& lengths,
    std::size_t len) {
  const auto it = std::lower_bound(
      lengths.begin(), lengths.end(), len,
      [](const auto& e, std::size_t l) { return e.first < l; });
  // A removal for a length that was never added (or was already drained)
  // must not decrement a neighboring entry — lower_bound lands on the
  // next length up (or end) when `len` is absent.
  if (it == lengths.end() || it->first != len) return;
  if (--it->second == 0) lengths.erase(it);
}

/// Lower-bound position of pattern `key` in a prefix-sorted posting array
/// (`Posting` needs `.prefix`); callers check for an exact hit.
template <typename Postings>
auto prefix_posting_pos(Postings& sorted, std::string_view key) noexcept {
  return std::lower_bound(
      sorted.begin(), sorted.end(), key,
      [](const auto& p, std::string_view k) {
        return std::string_view(p.prefix) < k;
      });
}

/// Invokes `fn(posting)` for every posting whose pattern is a prefix of
/// event string `s`: one binary search per live pattern length <= |s|.
template <typename Posting, typename Fn>
void probe_prefixes(
    const std::vector<Posting>& sorted,
    const std::vector<std::pair<std::size_t, std::size_t>>& lengths,
    const std::string& s, Fn&& fn) {
  for (const auto& [len, count] : lengths) {
    if (len > s.size()) break;
    const std::string_view key(s.data(), len);
    const auto it = prefix_posting_pos(sorted, key);
    if (it != sorted.end() && std::string_view(it->prefix) == key) fn(*it);
  }
}

/// The contains postings of one attribute: distinct patterns sorted by
/// (length, pattern), each carrying an engine `Payload` (the bitset
/// engine's slot bitmap), plus the gated bigram index that lets probe()
/// test all of them in one pass over an event string (see "Contains
/// postings" above).
template <typename Payload>
class ContainsTable {
 public:
  struct Posting {
    std::string pattern;
    Payload payload;
  };

  bool empty() const noexcept { return postings_.empty(); }

  /// The posting of `pattern`, or nullptr when no filter uses it.
  Posting* find(std::string_view pattern) noexcept {
    const std::size_t pos = position(pattern);
    return pos < postings_.size() && postings_[pos].pattern == pattern
               ? &postings_[pos]
               : nullptr;
  }
  const Posting* find(std::string_view pattern) const noexcept {
    const std::size_t pos = position(pattern);
    return pos < postings_.size() && postings_[pos].pattern == pattern
               ? &postings_[pos]
               : nullptr;
  }

  /// The posting of `pattern`, created with an empty payload when new. The
  /// reference is valid until the next insert() or erase().
  Posting& insert(std::string_view pattern) {
    const std::size_t pos = position(pattern);
    if (pos < postings_.size() && postings_[pos].pattern == pattern) {
      return postings_[pos];
    }
    postings_.insert(postings_.begin() + static_cast<std::ptrdiff_t>(pos),
                     Posting{std::string(pattern), Payload{}});
    rebuild_bigrams();
    return postings_[pos];
  }

  /// Drops the posting of `pattern` (which must exist).
  void erase(std::string_view pattern) {
    postings_.erase(postings_.begin() +
                    static_cast<std::ptrdiff_t>(position(pattern)));
    rebuild_bigrams();
  }

  /// Visits every payload (e.g. to widen every bitmap together).
  template <typename Fn>
  void for_each_payload(Fn&& fn) {
    for (Posting& p : postings_) fn(p.payload);
  }

  /// Invokes `fn(posting)` once for every posting whose pattern occurs in
  /// `s`, in ascending (length, pattern) order; the length-0 pattern, a
  /// substring of everything, always fires first. One pass over `s`.
  /// Allocation-free once the calling thread's hit bitmap has grown to the
  /// table, and safe to call concurrently: the bitmap is per thread. `fn`
  /// must not itself probe a ContainsTable (it would share that bitmap).
  template <typename Fn>
  void probe(std::string_view s, Fn&& fn) const {
    if (postings_.empty()) return;
    thread_local std::vector<std::uint64_t> hit_words;
    const std::size_t words = (postings_.size() + 63) / 64;
    if (hit_words.size() < words) hit_words.resize(words, 0);
    std::uint64_t* const hits = hit_words.data();
    const auto mark = [hits](std::uint32_t p) {
      hits[p / 64] |= std::uint64_t{1} << (p % 64);
    };
    if (postings_.front().pattern.empty()) mark(0);
    // Bytes as unsigned: a signed char >= 0x80 would index leads_ with a
    // negative offset.
    const auto* const text = reinterpret_cast<const unsigned char*>(s.data());
    const std::size_t n = s.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Lead& lead = leads_[text[i]];
      if (lead.single != 0) mark(lead.single - 1);
      if (i + 1 == n) break;
      const unsigned char second = text[i + 1];
      if (!lead.has_second(second)) continue;
      // The group's grams are in posting order, so ascending length: the
      // first one longer than the rest of s ends the walk.
      const std::size_t rest = n - i;
      const std::uint64_t word = load_head(text + i, rest);
      const std::uint32_t group = lead.group(second);
      const Gram* const end = grams_.data() + groups_[group + 1];
      for (const Gram* g = grams_.data() + groups_[group];
           g != end && g->length <= rest; ++g) {
        if ((word & g->mask) == g->head &&
            (g->length <= 8 || tail_matches(*g, text + i))) {
          mark(g->posting);
        }
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = hits[w];
      hits[w] = 0;
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        fn(postings_[w * 64 + bit]);
        bits &= bits - 1;
      }
    }
  }

 private:
  /// One pattern of length >= 2 in the bigram index: its first
  /// min(length, 8) bytes as loaded by load_head, the mask of those bytes,
  /// its length and its posting position.
  struct Gram {
    std::uint64_t head;
    std::uint64_t mask;
    std::uint32_t length;
    std::uint32_t posting;
  };

  /// Everything the index keeps per first byte b: the length-1 pattern
  /// "b" (its posting position + 1, 0 for none), the gate bitmap of the
  /// second bytes that patterns starting with b use, and per gate word the
  /// number of (first, second) groups before it in byte order.
  struct Lead {
    std::uint32_t single = 0;
    std::array<std::uint32_t, 4> base{};
    std::array<std::uint64_t, 4> seconds{};

    void add_second(unsigned char byte) noexcept {
      seconds[byte / 64] |= std::uint64_t{1} << (byte % 64);
    }
    bool has_second(unsigned char byte) const noexcept {
      return (seconds[byte / 64] >> (byte % 64) & 1) != 0;
    }
    /// Group number of (this first byte, `byte`); `byte` must be gated in.
    std::uint32_t group(unsigned char byte) const noexcept {
      const std::uint64_t below = (std::uint64_t{1} << (byte % 64)) - 1;
      return base[byte / 64] + static_cast<std::uint32_t>(std::popcount(
                                   seconds[byte / 64] & below));
    }
  };

  /// The first min(n, 8) bytes at `p` in memory order, zero above: never
  /// reads past p + n, and text and pattern heads load the same way, so a
  /// masked compare of the two is independent of endianness.
  static std::uint64_t load_head(const unsigned char* p,
                                 std::size_t n) noexcept {
    std::uint64_t word = 0;
    if (n >= 8) {
      std::memcpy(&word, p, 8);
    } else {
      std::memcpy(&word, p, n);
    }
    return word;
  }

  /// Whether the bytes of a pattern longer than 8 past its head match the
  /// text at `at` (which has at least g.length bytes left).
  bool tail_matches(const Gram& g, const unsigned char* at) const noexcept {
    return std::memcmp(at + 8, postings_[g.posting].pattern.data() + 8,
                       g.length - 8) == 0;
  }

  /// Lower-bound position of `pattern` in (length, pattern) order.
  std::size_t position(std::string_view pattern) const noexcept {
    const auto it = std::lower_bound(
        postings_.begin(), postings_.end(), pattern,
        [](const Posting& p, std::string_view k) {
          if (p.pattern.size() != k.size()) return p.pattern.size() < k.size();
          return std::string_view(p.pattern) < k;
        });
    return static_cast<std::size_t>(it - postings_.begin());
  }

  /// Rebuilds leads_, groups_ and grams_ from postings_: one pass sets the
  /// gate bits and single-byte entries, a 256-lead pass numbers the groups,
  /// and a counting pass files every pattern of length >= 2 into its
  /// (first, second) group, kept in posting order.
  void rebuild_bigrams() {
    leads_.fill(Lead{});
    const auto byte = [](const std::string& pattern, std::size_t k) {
      return static_cast<unsigned char>(pattern[k]);
    };
    for (std::uint32_t pos = 0; pos < postings_.size(); ++pos) {
      const std::string& pat = postings_[pos].pattern;
      if (pat.size() == 1) leads_[byte(pat, 0)].single = pos + 1;
      if (pat.size() < 2) continue;
      leads_[byte(pat, 0)].add_second(byte(pat, 1));
    }
    std::uint32_t group_count = 0;
    for (Lead& lead : leads_) {
      for (std::size_t w = 0; w < lead.seconds.size(); ++w) {
        lead.base[w] = group_count;
        group_count +=
            static_cast<std::uint32_t>(std::popcount(lead.seconds[w]));
      }
    }
    // groups_[g] counts group g, then becomes its end by prefix sums, then
    // its start as the reverse fill below steps back through it.
    groups_.assign(group_count + 1, 0);
    const auto group_of = [&](const std::string& pat) {
      return leads_[byte(pat, 0)].group(byte(pat, 1));
    };
    for (const Posting& p : postings_) {
      if (p.pattern.size() >= 2) ++groups_[group_of(p.pattern)];
    }
    for (std::size_t g = 1; g < groups_.size(); ++g) {
      groups_[g] += groups_[g - 1];
    }
    grams_.resize(groups_.back());
    for (std::uint32_t pos = static_cast<std::uint32_t>(postings_.size());
         pos-- > 0;) {
      const std::string& pat = postings_[pos].pattern;
      if (pat.size() < 2) continue;
      Gram g{load_head(reinterpret_cast<const unsigned char*>(pat.data()),
                       pat.size()),
             0, static_cast<std::uint32_t>(pat.size()), pos};
      std::memset(&g.mask, 0xff, std::min<std::size_t>(pat.size(), 8));
      grams_[--groups_[group_of(pat)]] = g;
    }
  }

  std::vector<Posting> postings_;  // sorted by (length, pattern), distinct
  /// Patterns of length >= 2 by (first byte, second byte, posting).
  std::vector<Gram> grams_;
  /// grams_ of (first, second) group g: [groups_[g], groups_[g + 1]).
  std::vector<std::uint32_t> groups_;
  std::array<Lead, 256> leads_{};  // by first byte
};

}  // namespace reef::pubsub
