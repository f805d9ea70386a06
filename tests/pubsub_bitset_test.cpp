// BitsetMatcher-specific behavior: the slot/bitmap machinery the generic
// equivalence and fuzz suites can't see from the Matcher interface — slot
// freelist reuse after unsubscribe, bitmap growth past one word and past a
// capacity doubling, index-entry sharing and the distinct-entry required
// count, and the degenerate inputs the threshold pass must get right
// (all-noneq filters, zero-attribute events, universal filters).
#include <gtest/gtest.h>

#include <algorithm>
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
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("a", 1)));
  m.add(2, Filter().and_(eq("a", 2)));
  m.add(3, Filter().and_(eq("a", 3)));
  ASSERT_EQ(m.slot_capacity(), 3u);
  const auto freed = m.slot_of(2);
  ASSERT_TRUE(freed.has_value());

  // Freeing the middle registration and adding a new one must reuse its
  // slot (LIFO freelist), not widen the bit space.
  m.remove(2);
  EXPECT_FALSE(m.slot_of(2).has_value());
  m.add(9, Filter().and_(eq("a", 9)));
  EXPECT_EQ(m.slot_of(9), freed);
  EXPECT_EQ(m.slot_capacity(), 3u);

  // The recycled slot matches its new filter only — no ghost of the old.
  EXPECT_TRUE(m.match(Event().with("a", 2)).empty());
  EXPECT_EQ(sorted(m.match(Event().with("a", 9))),
            (std::vector<SubscriptionId>{9}));
  EXPECT_EQ(sorted(m.match(Event().with("a", 1))),
            (std::vector<SubscriptionId>{1}));
}

TEST(BitsetMatcher, ReplaceSemanticsReuseTheSlot) {
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("a", 1)));
  m.add(1, Filter().and_(eq("b", 2)));  // replace = remove + add
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.slot_capacity(), 1u);
  EXPECT_TRUE(m.match(Event().with("a", 1)).empty());
  EXPECT_EQ(m.match(Event().with("b", 2)).size(), 1u);
  m.remove(99);  // unknown id: no-op
}

TEST(BitsetMatcher, BitmapGrowthPastOneWordAndOneDoubling) {
  BitsetMatcher m;
  BruteForceMatcher oracle;
  // 200 filters: past one 64-bit word (slot 64) and past the 2-word
  // capacity doubling (slot 128; growth goes 1 -> 2 -> 4 words).
  for (SubscriptionId id = 1; id <= 200; ++id) {
    const auto f =
        Filter().and_(eq("bucket", static_cast<std::int64_t>(id % 7)));
    m.add(id, f);
    oracle.add(id, f);
  }
  EXPECT_EQ(m.slot_capacity(), 200u);
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
  SubscriptionId next = 1;
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
      m.add(next, f);
      oracle.add(next, f);
      live.push_back(next++);
    } else {
      const std::size_t idx = rng.index(live.size());
      m.remove(live[idx]);
      oracle.remove(live[idx]);
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
  // Churn never widened the slot space past the live high-water mark.
  EXPECT_LE(m.slot_capacity(), static_cast<std::size_t>(next));
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

TEST(BitsetMatcher, SubBatchViewMatchesFullBatchPositions) {
  BitsetMatcher m;
  m.add(1, Filter().and_(eq("a", 1)));
  m.add(2, Filter().and_(gt("b", 5)));
  std::vector<Event> events;
  for (std::int64_t i = 0; i < 8; ++i) {
    events.push_back(Event().with("a", i % 2).with("b", i));
  }
  std::vector<std::vector<SubscriptionId>> full;
  m.match_batch(events, full);
  const std::vector<std::uint32_t> indices{6, 1, 3};
  std::vector<std::vector<SubscriptionId>> sub;
  m.match_batch(EventBatchView(events, indices), sub);
  ASSERT_EQ(sub.size(), indices.size());
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    EXPECT_EQ(sorted(sub[pos]), sorted(full[indices[pos]])) << pos;
  }
}

}  // namespace
}  // namespace reef::pubsub
