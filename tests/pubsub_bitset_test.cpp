// BitsetMatcher-specific behavior: the slot/bitmap machinery the generic
// equivalence and fuzz suites can't see from the Matcher interface — ids
// are slots, so a recycled id reuses its slot and an id that does not fit
// one is rejected; bitmap growth past one word and past a capacity
// doubling, index-entry sharing and the distinct-entry required count, and
// the degenerate inputs the threshold pass must get right (all-noneq
// filters, zero-attribute events, universal filters), and the sparse-entry
// threshold pass that visits only touched and universal words.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pubsub/bitset_matcher.h"
#include "pubsub/engines.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BitsetMatcher, BasicMatchAndName) {
  BitsetMatcher m;
  EXPECT_EQ(m.name(), "bitset");
  m.add(1, Filter().and_(eq("sym", "ACME")).and_(ge("price", 10.0)));
  m.add(2, Filter().and_(eq("sym", "ACME")).and_(ge("price", 20.0)));
  m.add(3, Filter().and_(eq("sym", "XYZ")));
  EXPECT_EQ(sorted(m.match(Event().with("sym", "ACME").with("price", 15.0))),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(sorted(m.match(Event().with("sym", "ACME").with("price", 25.0))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_TRUE(m.match(Event().with("sym", "NONE")).empty());
}

TEST(BitsetMatcher, SlotReuseAfterUnsubscribe) {
  // Ids are slots, handed out from 0 and recycled by the caller, as the
  // routing table does.
  BitsetMatcher m;
  m.add(0, Filter().and_(eq("a", 1)));
  m.add(1, Filter().and_(eq("a", 2)));
  m.add(2, Filter().and_(eq("a", 3)));
  ASSERT_EQ(m.slot_capacity(), 3u);

  // Freeing the middle registration and registering a new filter under
  // the freed id reuses its slot, not a wider bit space.
  m.remove(1);
  EXPECT_EQ(m.size(), 2u);
  m.add(1, Filter().and_(eq("a", 9)));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.slot_capacity(), 3u);

  // The recycled slot matches its new filter only — no ghost of the old.
  EXPECT_TRUE(m.match(Event().with("a", 2)).empty());
  EXPECT_EQ(sorted(m.match(Event().with("a", 9))),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(sorted(m.match(Event().with("a", 1))),
            (std::vector<SubscriptionId>{0}));
}

TEST(BitsetMatcher, IdThatDoesNotFitASlotThrowsAndChangesNothing) {
  BitsetMatcher m;
  m.add(0, Filter().and_(eq("a", 1)));
  m.add(1, Filter());
  const SubscriptionId too_big =
      SubscriptionId{std::numeric_limits<FilterSlot>::max()} + 1;
  EXPECT_THROW(m.add(too_big, Filter().and_(eq("a", 1))), std::out_of_range);
  EXPECT_THROW(m.add(too_big, Filter()), std::out_of_range);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.slot_capacity(), 2u);
  EXPECT_EQ(sorted(m.match(Event().with("a", 1))),
            (std::vector<SubscriptionId>{0, 1}));
  EXPECT_EQ(m.match(Event()), (std::vector<SubscriptionId>{1}));
  m.remove(too_big);  // never registered: a no-op
  EXPECT_EQ(m.size(), 2u);
}

TEST(BitsetMatcher, ReplaceSemanticsReuseTheSlot) {
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("a", 1)));
  m.add(1, Filter().and_(eq("b", 2)));  // replace = remove + add
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.slot_capacity(), 2u);  // id 1 is slot 1
  EXPECT_TRUE(m.match(Event().with("a", 1)).empty());
  EXPECT_EQ(m.match(Event().with("b", 2)).size(), 1u);
  m.remove(99);  // unknown id: no-op
}

TEST(BitsetMatcher, BitmapGrowthPastOneWordAndOneDoubling) {
  BitsetMatcher m;
  BruteForceMatcher oracle;
  // 200 filters on slots 1..200: past one 64-bit word (slot 64) and past
  // the 2-word capacity doubling (slot 128; growth goes 1 -> 2 -> 4 words).
  for (SubscriptionId id = 1; id <= 200; ++id) {
    const auto f =
        Filter().and_(eq("bucket", static_cast<std::int64_t>(id % 7)));
    m.add(id, f);
    oracle.add(id, f);
  }
  EXPECT_EQ(m.slot_capacity(), 201u);
  EXPECT_EQ(m.word_count(), 4u);
  for (std::int64_t v = 0; v < 7; ++v) {
    const Event e = Event().with("bucket", v);
    EXPECT_EQ(sorted(m.match(e)), sorted(oracle.match(e))) << v;
  }
  // Shrink back below one word; matching still agrees (bitmaps never
  // shrink, stale high words must stay zeroed).
  for (SubscriptionId id = 1; id <= 190; ++id) {
    m.remove(id);
    oracle.remove(id);
  }
  EXPECT_EQ(m.word_count(), 4u);
  for (std::int64_t v = 0; v < 7; ++v) {
    const Event e = Event().with("bucket", v);
    EXPECT_EQ(sorted(m.match(e)), sorted(oracle.match(e))) << v;
  }
}

TEST(BitsetMatcher, AllNonEqFilters) {
  BitsetMatcher m;
  m.add(1, Filter().and_(gt("p", 5)).and_(lt("p", 10)));  // range (5,10)
  m.add(2, Filter().and_(prefix("s", "ab")));
  m.add(3, Filter().and_(exists("q")));
  EXPECT_EQ(sorted(m.match(Event().with("p", 7))),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(m.match(Event().with("p", 4)).empty());
  EXPECT_TRUE(m.match(Event().with("p", 11)).empty());
  EXPECT_EQ(sorted(m.match(Event().with("s", "abc"))),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(sorted(m.match(Event().with("q", "anything"))),
            (std::vector<SubscriptionId>{3}));
  EXPECT_EQ(sorted(m.match(Event().with("p", 6).with("q", 1))),
            (std::vector<SubscriptionId>{1, 3}));
}

TEST(BitsetMatcher, ZeroAttributeEventsAndUniversalFilters) {
  BitsetMatcher m;
  EXPECT_TRUE(m.match(Event()).empty());  // empty engine, empty event
  m.add(1, Filter());                     // universal
  m.add(2, Filter().and_(eq("a", 1)));
  m.add(3, Filter());                     // another universal
  // A zero-attribute event satisfies no index entry: exactly the
  // requirement-0 slots fire.
  EXPECT_EQ(sorted(m.match(Event())), (std::vector<SubscriptionId>{1, 3}));
  EXPECT_EQ(sorted(m.match(Event().with("a", 1))),
            (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(sorted(m.match(Event().with("zzz", 0))),
            (std::vector<SubscriptionId>{1, 3}));
  // Batch path, including an empty event mid-batch.
  const std::vector<Event> events{Event().with("a", 1), Event(),
                                  Event().with("b", 2)};
  std::vector<std::vector<SubscriptionId>> out;
  m.match_batch(events, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(sorted(out[0]), (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(sorted(out[1]), (std::vector<SubscriptionId>{1, 3}));
  EXPECT_EQ(sorted(out[2]), (std::vector<SubscriptionId>{1, 3}));
}

TEST(BitsetMatcher, SharedConstraintsShareOneIndexEntry) {
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("sym", "ACME")).and_(lt("price", 100)));
  EXPECT_EQ(m.entry_count(), 2u);
  // Same two constraints again: both entries are shared, none added.
  m.add(2, Filter().and_(eq("sym", "ACME")).and_(lt("price", 100)));
  EXPECT_EQ(m.entry_count(), 2u);
  m.add(3, Filter().and_(eq("sym", "XYZ")));
  EXPECT_EQ(m.entry_count(), 3u);
  EXPECT_EQ(sorted(m.match(Event().with("sym", "ACME").with("price", 50))),
            (std::vector<SubscriptionId>{1, 2}));
  // Entries disappear only when their last referencing filter does.
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 3u);
  m.remove(2);
  EXPECT_EQ(m.entry_count(), 1u);
}

TEST(BitsetMatcher, CrossTypeNumericEqConstraintsCountAsOneEntry) {
  BitsetMatcher m;
  // eq(p, int 3) and eq(p, double 3.0) are distinct constraints but land
  // on one canonical index entry; the required count must say 1, or the
  // filter could never fire (an event carries one value per attribute).
  m.add(1, Filter().and_(eq("p", 3)).and_(eq("p", 3.0)));
  EXPECT_EQ(m.entry_count(), 1u);
  EXPECT_EQ(m.match(Event().with("p", 3)).size(), 1u);
  EXPECT_EQ(m.match(Event().with("p", 3.0)).size(), 1u);
  EXPECT_TRUE(m.match(Event().with("p", 4)).empty());
  EXPECT_TRUE(m.match(Event().with("p", "3")).empty());
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 0u);
  EXPECT_TRUE(m.match(Event().with("p", 3)).empty());
}

TEST(BitsetMatcher, RangeEntriesResolveViaSortedProbes) {
  BitsetMatcher m;
  m.add(1, Filter().and_(gt("p", 10)));
  m.add(2, Filter().and_(ge("p", 10)));
  m.add(3, Filter().and_(lt("p", 20)).and_(gt("p", 5)));
  m.add(4, Filter().and_(gt("p", 10)));  // shares the > 10 entry with 1
  EXPECT_EQ(m.entry_count(), 4u);        // > 10, >= 10, < 20, > 5
  // Exactly on a bound only the inclusive entry resolves — the
  // strict/inclusive partition edge range_index.h encodes.
  EXPECT_EQ(sorted(m.match(Event().with("p", 10))),
            (std::vector<SubscriptionId>{2, 3}));
  EXPECT_EQ(sorted(m.match(Event().with("p", 15))),
            (std::vector<SubscriptionId>{1, 2, 3, 4}));
  EXPECT_EQ(sorted(m.match(Event().with("p", 25))),
            (std::vector<SubscriptionId>{1, 2, 4}));
  EXPECT_TRUE(m.match(Event().with("p", "x")).empty());
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 4u);  // > 10 still referenced by 4
  m.remove(4);
  EXPECT_EQ(m.entry_count(), 3u);
}

TEST(BitsetMatcher, CrossTypeRangeBoundsStayDistinctEntriesButAgree) {
  BitsetMatcher m;
  // lt(p, 3) and lt(p, 3.0) are distinct constraints (strict identity)
  // and therefore distinct entries — but any probe value satisfies both
  // or neither, so a filter carrying both (required count 2) still fires.
  m.add(1, Filter().and_(lt("p", 3)).and_(lt("p", 3.0)));
  EXPECT_EQ(m.entry_count(), 2u);
  EXPECT_EQ(m.match(Event().with("p", 2)).size(), 1u);
  EXPECT_EQ(m.match(Event().with("p", 2.5)).size(), 1u);
  EXPECT_TRUE(m.match(Event().with("p", 3)).empty());
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 0u);
}

TEST(BitsetMatcher, PrefixEntriesResolveViaPatternTable) {
  BitsetMatcher m;
  m.add(1, Filter().and_(prefix("t", "ab")));
  m.add(2, Filter().and_(prefix("t", "ab")));  // shares the "ab" entry
  m.add(3, Filter().and_(prefix("t", "a")));
  m.add(4, Filter().and_(suffix("t", "z")));   // reversed-pattern table
  EXPECT_EQ(m.entry_count(), 3u);
  EXPECT_EQ(sorted(m.match(Event().with("t", "abz"))),
            (std::vector<SubscriptionId>{1, 2, 3, 4}));
  EXPECT_EQ(sorted(m.match(Event().with("t", "ax"))),
            (std::vector<SubscriptionId>{3}));
  EXPECT_TRUE(m.match(Event().with("t", 7)).empty());
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 3u);
  m.remove(2);
  EXPECT_EQ(m.entry_count(), 2u);
  EXPECT_EQ(sorted(m.match(Event().with("t", "abz"))),
            (std::vector<SubscriptionId>{3, 4}));
}

TEST(BitsetMatcher, SuffixAndContainsEntriesResolveViaPatternTables) {
  BitsetMatcher m;
  m.add(1, Filter().and_(suffix("t", "og")));
  m.add(2, Filter().and_(suffix("t", "og")));  // shares the reversed entry
  m.add(3, Filter().and_(suffix("t", "g")));
  m.add(4, Filter().and_(contains("t", "lo")));
  m.add(5, Filter().and_(contains("t", "lo")));  // shares the "lo" entry
  m.add(6, Filter().and_(contains("t", "x")));
  EXPECT_EQ(m.entry_count(), 4u);  // rev "go", rev "g", "lo", "x"
  EXPECT_EQ(sorted(m.match(Event().with("t", "log"))),
            (std::vector<SubscriptionId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sorted(m.match(Event().with("t", "xg"))),
            (std::vector<SubscriptionId>{3, 6}));
  EXPECT_TRUE(m.match(Event().with("t", 7)).empty());
  m.remove(1);
  EXPECT_EQ(m.entry_count(), 4u);  // rev "go" still referenced by 2
  m.remove(2);
  EXPECT_EQ(m.entry_count(), 3u);
  m.remove(4);
  m.remove(5);
  EXPECT_EQ(m.entry_count(), 2u);
  EXPECT_EQ(sorted(m.match(Event().with("t", "log"))),
            (std::vector<SubscriptionId>{3}));
}

TEST(BitsetMatcher, InSetConstraintsShareOneResidualEntry) {
  BitsetMatcher m;
  // Set membership stays a residual posting (evaluated once per distinct
  // value), and identical sets share the entry — including sets spelled
  // with different member orders or redundant members, which canonicalize
  // to one constraint identity.
  m.add(1, Filter().and_(in_("sym", {Value("A"), Value("B")})));
  m.add(2, Filter().and_(in_("sym", {Value("B"), Value("A"), Value("B")})));
  EXPECT_EQ(m.entry_count(), 1u);
  // Cross-type members collapse; int and double events both hit.
  m.add(3, Filter().and_(in_("p", {Value(1), Value(1.0), Value(2)})));
  EXPECT_EQ(m.entry_count(), 2u);
  EXPECT_EQ(sorted(m.match(Event().with("sym", "A"))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(sorted(m.match(Event().with("sym", "B"))),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_TRUE(m.match(Event().with("sym", "C")).empty());
  EXPECT_EQ(sorted(m.match(Event().with("p", 1.0))),
            (std::vector<SubscriptionId>{3}));
  EXPECT_EQ(sorted(m.match(Event().with("p", 2))),
            (std::vector<SubscriptionId>{3}));
  // An empty set matches nothing, ever — the filter simply never fires.
  m.add(4, Filter().and_(in_("sym", {})));
  EXPECT_EQ(sorted(m.match(Event().with("sym", "A"))),
            (std::vector<SubscriptionId>{1, 2}));
  m.remove(1);
  EXPECT_EQ(sorted(m.match(Event().with("sym", "A"))),
            (std::vector<SubscriptionId>{2}));
  m.remove(2);
  EXPECT_TRUE(m.match(Event().with("sym", "A")).empty());
}

TEST(BitsetMatcher, RangeEntriesSurviveBitmapGrowth) {
  BitsetMatcher m;
  for (int i = 0; i < 70; ++i) {
    m.add(static_cast<SubscriptionId>(i + 1), Filter().and_(ge("p", i)));
  }
  // 70 slots cross the one-word boundary: every sorted-array entry bitmap
  // must have been grown alongside the eq entries.
  EXPECT_GE(m.word_count(), 2u);
  EXPECT_EQ(m.match(Event().with("p", 34)).size(), 35u);  // ge(0)..ge(34)
  EXPECT_EQ(m.match(Event().with("p", 100)).size(), 70u);
}

TEST(BitsetMatcher, RequiredCountSlicesGrowPastTwoBits) {
  BitsetMatcher m;
  // A 5-constraint conjunction needs 3 required-count bit slices.
  Filter f;
  for (const char* attr : {"a", "b", "c", "d", "e"}) {
    f.and_(eq(attr, 1));
  }
  m.add(1, f);
  EXPECT_EQ(m.slice_count(), 3u);
  Event full;
  for (const char* attr : {"a", "b", "c", "d", "e"}) full.with(attr, 1);
  EXPECT_EQ(m.match(full).size(), 1u);
  // Satisfying only 4 of 5 entries must not fire (counter 4 != required 5
  // — a popcount-threshold-as->= would get this wrong too, but the
  // equality pass also protects the other direction below).
  Event partial;
  for (const char* attr : {"a", "b", "c", "d"}) partial.with(attr, 1);
  EXPECT_TRUE(m.match(partial).empty());
}

TEST(BitsetMatcher, FreelistChurnAgreesWithOracle) {
  util::Rng rng(0xb175e7);
  BitsetMatcher m;
  BruteForceMatcher oracle;
  std::vector<SubscriptionId> live;
  std::vector<SubscriptionId> free_ids;  // recycled LIFO
  SubscriptionId next = 1;
  std::size_t peak_live = 0;
  const std::vector<std::string> attrs{"a", "b", "c"};
  for (int round = 0; round < 400; ++round) {
    if (live.empty() || rng.chance(0.55)) {
      Filter f;
      const std::size_t n = rng.index(3);  // 0 => universal
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& attr = attrs[rng.index(attrs.size())];
        if (rng.chance(0.6)) {
          f.and_(eq(attr, static_cast<std::int64_t>(rng.index(4))));
        } else {
          f.and_(le(attr, static_cast<std::int64_t>(rng.index(4))));
        }
      }
      SubscriptionId id = next;
      if (free_ids.empty()) {
        ++next;
      } else {
        id = free_ids.back();
        free_ids.pop_back();
      }
      m.add(id, f);
      oracle.add(id, f);
      live.push_back(id);
      peak_live = std::max(peak_live, live.size());
    } else {
      const std::size_t idx = rng.index(live.size());
      m.remove(live[idx]);
      oracle.remove(live[idx]);
      free_ids.push_back(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    Event e;
    const std::size_t n = rng.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      e.with(attrs[rng.index(attrs.size())],
             static_cast<std::int64_t>(rng.index(4)));
    }
    ASSERT_EQ(sorted(m.match(e)), sorted(oracle.match(e)))
        << "round " << round << " event " << e.to_string();
    ASSERT_EQ(m.size(), oracle.size());
  }
  // Recycled ids never widened the slot space past the live high-water
  // mark (ids start at 1, so slot 0 stays unused).
  EXPECT_EQ(m.slot_capacity(), peak_live + 1);
}

TEST(BitsetMatcher, BuiltByName) {
  const auto m = make_matcher("bitset");
  EXPECT_EQ(m->name(), "bitset");
  m->add(1, Filter().and_(eq("sym", "ACME")));
  m->add(2, Filter());
  auto hits = m->match(Event().with("sym", "ACME"));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{1, 2}));
}

TEST(BitsetMatcher, SubSpanMatchesFullBatchPositions) {
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("a", 1)));
  m.add(2, Filter().and_(gt("b", 5)));
  std::vector<Event> events;
  for (std::int64_t i = 0; i < 8; ++i) {
    events.push_back(Event().with("a", i % 2).with("b", i));
  }
  std::vector<std::vector<SubscriptionId>> full;
  m.match_batch(events, full);
  for (std::size_t begin = 0; begin + 3 <= events.size(); begin += 2) {
    std::vector<std::vector<SubscriptionId>> sub;
    m.match_batch(std::span<const Event>(events).subspan(begin, 3), sub);
    ASSERT_EQ(sub.size(), 3u);
    for (std::size_t pos = 0; pos < sub.size(); ++pos) {
      EXPECT_EQ(sub[pos], full[begin + pos]) << begin << "+" << pos;
    }
  }
}

TEST(BitsetMatcher, OneEventBatchEqualsMatchAtTheShortcutGuards) {
  // match and match_batch share one per-event path behind their own
  // empty-table guards; a one-event batch must equal match on an empty, a
  // universal-only and a mixed table, and on an attribute-free event.
  const std::vector<Event> events = {Event(), Event().with("a", 1),
                                     Event().with("zzz", 0)};
  const auto check = [&](const BitsetMatcher& m, const std::string& table) {
    for (const Event& event : events) {
      std::vector<std::vector<SubscriptionId>> out;
      m.match_batch(std::span<const Event>(&event, 1), out);
      ASSERT_EQ(out.size(), 1u) << table;
      EXPECT_EQ(sorted(out.front()), sorted(m.match(event)))
          << table << " on " << event.to_string();
    }
  };
  BitsetMatcher m;
  check(m, "empty");
  m.add(1, Filter());
  m.add(2, Filter());
  check(m, "universal-only");
  m.add(3, Filter().and_(eq("a", 1)));
  check(m, "mixed");
  m.remove(3);
  check(m, "universal-only after removal");
}

// --- sparse entries: the threshold pass visits touched + universal words ----

/// Registers `count` filters eq("a", i), i = 0..count-1, on ids (slots)
/// 0..count-1.
void add_eq_filters(BitsetMatcher& m, int count) {
  for (int i = 0; i < count; ++i) {
    m.add(static_cast<SubscriptionId>(i),
          Filter().and_(eq("a", static_cast<std::int64_t>(i))));
  }
}

TEST(BitsetMatcher, UniversalSlotInAnUntouchedWordStillFires) {
  BitsetMatcher m;
  add_eq_filters(m, 130);    // slots 0..129: words 0, 1 and 2
  m.add(130, Filter());      // slot 130, word 2
  ASSERT_EQ(m.slot_capacity(), 131u);
  ASSERT_EQ(m.universal_words(), 1u);
  // a = 5 satisfies one entry, whose only word is word 0; word 2 is never
  // touched, yet its universal slot fires.
  const Event e = Event().with("a", 5);
  EXPECT_EQ(sorted(m.match(e)), (std::vector<SubscriptionId>{5, 130}));
  const std::vector<Event> events{e, Event().with("zzz", 1), Event()};
  std::vector<std::vector<SubscriptionId>> out;
  m.match_batch(events, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(sorted(out[0]), (std::vector<SubscriptionId>{5, 130}));
  EXPECT_EQ(out[1], (std::vector<SubscriptionId>{130}));
  EXPECT_EQ(out[2], (std::vector<SubscriptionId>{130}));
}

TEST(BitsetMatcher, RemovingTheLastUniversalSlotOfAWordStopsItFiring) {
  BitsetMatcher m;
  add_eq_filters(m, 130);  // slots 0..129
  m.add(130, Filter());    // word 2
  m.add(131, Filter());    // word 2
  m.add(132, Filter());    // word 2
  ASSERT_EQ(m.universal_words(), 1u);
  const Event e = Event().with("a", 5);  // touches word 0 only
  m.remove(130);
  m.remove(132);
  // One universal slot is left in word 2: the word stays summarized.
  EXPECT_EQ(m.universal_words(), 1u);
  EXPECT_EQ(sorted(m.match(e)), (std::vector<SubscriptionId>{5, 131}));
  m.remove(131);
  // The last one is gone: the summary bit is cleared and nothing fires
  // there, on either path.
  EXPECT_EQ(m.universal_words(), 0u);
  EXPECT_EQ(m.match(e), (std::vector<SubscriptionId>{5}));
  EXPECT_TRUE(m.match(Event()).empty());
  std::vector<std::vector<SubscriptionId>> out;
  m.match_batch(std::vector<Event>{e, Event()}, out);
  EXPECT_EQ(out[0], (std::vector<SubscriptionId>{5}));
  EXPECT_TRUE(out[1].empty());
  // A non-universal filter reusing the freed slot (the last id freed, as a
  // LIFO caller hands it out) fires only on its own entry.
  m.add(131, Filter().and_(eq("b", 1)));
  EXPECT_EQ(m.universal_words(), 0u);
  EXPECT_EQ(m.match(e), (std::vector<SubscriptionId>{5}));
  EXPECT_EQ(m.match(Event().with("b", 1)), (std::vector<SubscriptionId>{131}));
}

/// Slot reuse through a caller's LIFO id freelist (the routing table's
/// recycling) while the live population swings across several word
/// boundaries: entries gain and drop words at both ends of their sorted
/// word lists, and the universal summary flips bits in words the churn
/// keeps vacating. Brute force agrees after every operation.
TEST(BitsetMatcher, FreelistReuseAcrossWordBoundariesAgreesWithOracle) {
  util::Rng rng(0x5a125e);
  BitsetMatcher m;
  BruteForceMatcher oracle;
  std::vector<SubscriptionId> live;
  std::vector<SubscriptionId> free_ids;  // recycled LIFO
  SubscriptionId next = 0;
  const std::vector<std::string> attrs{"a", "b", "c"};
  const auto random_event = [&] {
    Event e;
    const std::size_t n = rng.index(3);  // 0 => attribute-free
    for (std::size_t i = 0; i < n; ++i) {
      e.with(attrs[rng.index(attrs.size())],
             static_cast<std::int64_t>(rng.index(6)));
    }
    return e;
  };
  bool growing = true;
  std::size_t max_capacity = 0;
  std::size_t peak_live = 0;
  for (int op = 0; op < 10000; ++op) {
    // Swing the population between ~20 and ~300 live filters (past the
    // 64-, 128- and 192-slot boundaries).
    if (live.size() >= 300) growing = false;
    if (live.size() <= 20) growing = true;
    if (live.empty() || rng.chance(growing ? 0.8 : 0.2)) {
      Filter f;
      const std::size_t n = rng.index(4);  // 0 => universal
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& attr = attrs[rng.index(attrs.size())];
        const auto v = static_cast<std::int64_t>(rng.index(6));
        switch (rng.index(3)) {
          case 0:
            f.and_(eq(attr, v));
            break;
          case 1:
            f.and_(ge(attr, v));
            break;
          default:
            f.and_(exists(attr));
            break;
        }
      }
      SubscriptionId id = next;
      if (free_ids.empty()) {
        ++next;
      } else {
        id = free_ids.back();
        free_ids.pop_back();
      }
      m.add(id, f);
      oracle.add(id, f);
      live.push_back(id);
      peak_live = std::max(peak_live, live.size());
    } else {
      const std::size_t idx = rng.index(live.size());
      m.remove(live[idx]);
      oracle.remove(live[idx]);
      free_ids.push_back(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    max_capacity = std::max(max_capacity, m.slot_capacity());
    const Event e = random_event();
    ASSERT_EQ(sorted(m.match(e)), sorted(oracle.match(e)))
        << "op " << op << " event " << e.to_string();
    if (op % 16 == 0) {
      std::vector<Event> events;
      for (int i = 0; i < 8; ++i) events.push_back(random_event());
      std::vector<std::vector<SubscriptionId>> out;
      m.match_batch(events, out);
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(sorted(out[i]), sorted(oracle.match(events[i])))
            << "op " << op << " batch event " << events[i].to_string();
      }
    }
  }
  EXPECT_GT(max_capacity, 3 * 64u);
  // Ids recycled from 0 keep the bit space at the live high-water mark.
  EXPECT_EQ(max_capacity, peak_live);
}

/// Every posting class shares one attribute's index record: eq (numeric
/// and string), lower and upper range bounds, prefix, suffix, contains and
/// the residual ne/exists/in-set postings, registered and retracted in a
/// seeded churn. Brute force agrees after every operation, and once the
/// last filter is gone no entry is left behind.
TEST(BitsetMatcher, MixedPostingClassesOnOneAttributeChurnAgreesWithOracle) {
  util::Rng rng(0xa771d);
  BitsetMatcher m;
  BruteForceMatcher oracle;
  std::vector<SubscriptionId> live;
  SubscriptionId next = 1;
  const auto random_text = [&] {
    std::string text;
    const std::size_t n = rng.index(4);  // "" included
    for (std::size_t i = 0; i < n; ++i) text += "abc"[rng.index(3)];
    return text;
  };
  const auto random_number = [&] {
    return Value(static_cast<std::int64_t>(rng.index(5)));
  };
  const auto random_event = [&] {
    Event e;
    switch (rng.index(4)) {
      case 0:
        break;  // the attribute absent
      case 1:
        e.with("x", random_number());
        break;
      case 2:
        e.with("x", static_cast<double>(rng.index(5)) + 0.5);
        break;
      default:
        e.with("x", random_text());
        break;
    }
    return e;
  };
  constexpr std::size_t kClasses = 10;
  std::vector<int> added(kClasses, 0);
  std::size_t max_entries = 0;
  for (int op = 0; op < 3000; ++op) {
    if (live.empty() || rng.chance(0.55)) {
      Filter f;
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t kind = rng.index(kClasses);
        ++added[kind];
        switch (kind) {
          case 0:
            f.and_(eq("x", random_number()));
            break;
          case 1:
            f.and_(eq("x", random_text()));
            break;
          case 2:
            f.and_(rng.chance(0.5) ? ge("x", random_number())
                                   : gt("x", random_number()));
            break;
          case 3:
            f.and_(rng.chance(0.5) ? le("x", random_number())
                                   : lt("x", random_number()));
            break;
          case 4:
            f.and_(prefix("x", random_text()));
            break;
          case 5:
            f.and_(suffix("x", random_text()));
            break;
          case 6:
            f.and_(contains("x", random_text()));
            break;
          case 7:
            f.and_(ne("x", random_number()));
            break;
          case 8:
            f.and_(exists("x"));
            break;
          default:
            f.and_(in_("x", {random_number(), Value(random_text())}));
            break;
        }
      }
      m.add(next, f);
      oracle.add(next, f);
      live.push_back(next++);
    } else {
      const std::size_t idx = rng.index(live.size());
      m.remove(live[idx]);
      oracle.remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    max_entries = std::max(max_entries, m.entry_count());
    const Event e = random_event();
    ASSERT_EQ(sorted(m.match(e)), sorted(oracle.match(e)))
        << "op " << op << " event " << e.to_string();
    if (op % 8 == 0) {
      std::vector<Event> events;
      for (int i = 0; i < 8; ++i) events.push_back(random_event());
      std::vector<std::vector<SubscriptionId>> out;
      m.match_batch(events, out);
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(sorted(out[i]), sorted(oracle.match(events[i])))
            << "op " << op << " batch event " << events[i].to_string();
      }
    }
  }
  for (std::size_t kind = 0; kind < kClasses; ++kind) {
    EXPECT_GT(added[kind], 100) << "class " << kind;
  }
  EXPECT_GT(max_entries, 50u);
  for (const SubscriptionId id : live) {
    m.remove(id);
    oracle.remove(id);
    ASSERT_EQ(sorted(m.match(Event().with("x", "abc"))),
              sorted(oracle.match(Event().with("x", "abc"))));
  }
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.entry_count(), 0u);
  EXPECT_TRUE(m.match(Event().with("x", "abc")).empty());
}

}  // namespace
}  // namespace reef::pubsub
