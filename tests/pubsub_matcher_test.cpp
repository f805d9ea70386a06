#include <gtest/gtest.h>

#include <algorithm>

#include "engine_variants.h"
#include "pubsub/matcher.h"
#include "pubsub/sharded_matcher.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

Filter stock_filter(const std::string& sym, double min_price) {
  return Filter().and_(eq("sym", sym)).and_(ge("price", min_price));
}

TEST(IndexMatcher, BasicMatch) {
  IndexMatcher m;
  m.add(1, stock_filter("ACME", 10.0));
  m.add(2, stock_filter("ACME", 20.0));
  m.add(3, stock_filter("XYZ", 5.0));

  auto hits = m.match(Event().with("sym", "ACME").with("price", 15.0));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{1}));

  hits = m.match(Event().with("sym", "ACME").with("price", 25.0));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{1, 2}));

  EXPECT_TRUE(m.match(Event().with("sym", "NONE").with("price", 99.0)).empty());
}

TEST(IndexMatcher, EmptyFilterMatchesEverything) {
  IndexMatcher m;
  m.add(7, Filter());
  EXPECT_EQ(m.match(Event()).size(), 1u);
  EXPECT_EQ(m.match(Event().with("x", 1)).size(), 1u);
}

TEST(IndexMatcher, RemoveStopsMatching) {
  IndexMatcher m;
  m.add(1, stock_filter("A", 1.0));
  m.remove(1);
  EXPECT_TRUE(m.match(Event().with("sym", "A").with("price", 5.0)).empty());
  EXPECT_EQ(m.size(), 0u);
  m.remove(99);  // unknown id: no-op
}

TEST(IndexMatcher, ReplaceSemantics) {
  IndexMatcher m;
  m.add(1, stock_filter("A", 1.0));
  m.add(1, stock_filter("B", 1.0));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.match(Event().with("sym", "A").with("price", 5.0)).empty());
  EXPECT_EQ(m.match(Event().with("sym", "B").with("price", 5.0)).size(), 1u);
}

TEST(IndexMatcher, CrossTypeNumericEqualityViaHashPath) {
  IndexMatcher m;
  m.add(1, Filter().and_(eq("p", 3)));  // int constraint
  EXPECT_EQ(m.match(Event().with("p", 3.0)).size(), 1u);  // double event
  m.add(2, Filter().and_(eq("q", 2.0)));  // double constraint
  EXPECT_EQ(m.match(Event().with("q", 2)).size(), 1u);  // int event
}

TEST(IndexMatcher, MultipleConstraintsSameAttribute) {
  IndexMatcher m;
  // range (5, 10): two constraints on one attribute
  m.add(1, Filter().and_(gt("p", 5)).and_(lt("p", 10)));
  EXPECT_EQ(m.match(Event().with("p", 7)).size(), 1u);
  EXPECT_TRUE(m.match(Event().with("p", 4)).empty());
  EXPECT_TRUE(m.match(Event().with("p", 11)).empty());
}

TEST(IndexMatcher, AnchorBookkeeping) {
  IndexMatcher m;
  // Filter with an equality constraint anchors in an eq bucket...
  m.add(1, Filter().and_(eq("a", 1)).and_(gt("b", 2)));
  EXPECT_EQ(m.eq_anchored(), 1u);
  EXPECT_EQ(m.range_anchored(), 0u);
  EXPECT_EQ(m.scan_anchored(), 0u);
  // ...one without any equality constraint anchors in the sorted range
  // bound array of its first numeric range constraint...
  m.add(2, Filter().and_(gt("b", 2)));
  EXPECT_EQ(m.eq_anchored(), 1u);
  EXPECT_EQ(m.range_anchored(), 1u);
  EXPECT_EQ(m.scan_anchored(), 0u);
  // ...a prefix-only filter in the sorted prefix table...
  m.add(3, Filter().and_(prefix("t", "ab")));
  EXPECT_EQ(m.prefix_anchored(), 1u);
  EXPECT_EQ(m.scan_anchored(), 0u);
  // ...suffix and contains filters in their own sorted pattern tables
  // (suffix probes are prefix probes over the reversed strings)...
  m.add(4, Filter().and_(contains("t", "x")));
  m.add(6, Filter().and_(suffix("t", "z")));
  EXPECT_EQ(m.contains_anchored(), 1u);
  EXPECT_EQ(m.suffix_anchored(), 1u);
  // ...set membership in the per-member eq buckets...
  m.add(7, Filter().and_(in_("k", {Value(1), Value(2)})));
  EXPECT_EQ(m.in_anchored(), 1u);
  EXPECT_EQ(m.eq_anchored(), 1u);  // the in-anchor is not an eq anchor
  // ...and only shapes no sorted structure holds fall back to the scan
  // list (ne/exists, string-bounded ranges, non-string patterns).
  m.add(5, Filter().and_(gt("name", "m")));  // string bound: residual
  EXPECT_EQ(m.scan_anchored(), 1u);
  for (SubscriptionId id = 1; id <= 7; ++id) m.remove(id);
  EXPECT_EQ(m.eq_anchored(), 0u);
  EXPECT_EQ(m.range_anchored(), 0u);
  EXPECT_EQ(m.prefix_anchored(), 0u);
  EXPECT_EQ(m.suffix_anchored(), 0u);
  EXPECT_EQ(m.contains_anchored(), 0u);
  EXPECT_EQ(m.in_anchored(), 0u);
  EXPECT_EQ(m.scan_anchored(), 0u);
}

TEST(IndexMatcher, InSetAnchorsAcrossMemberBuckets) {
  IndexMatcher m;
  m.add(1, Filter().and_(in_("sym", {Value("ACME"), Value("XYZ")})));
  m.add(2, Filter().and_(in_("p", {Value(1), Value(2.0)})));
  EXPECT_EQ(m.in_anchored(), 2u);
  EXPECT_EQ(m.eq_anchored(), 0u);
  EXPECT_EQ(m.match(Event().with("sym", "ACME")).size(), 1u);
  EXPECT_EQ(m.match(Event().with("sym", "XYZ")).size(), 1u);
  EXPECT_TRUE(m.match(Event().with("sym", "OTHER")).empty());
  // Cross-type numeric members collapse onto canonical buckets, so either
  // event representation hits — and hits exactly once (no duplicate ids
  // from a value landing in two member buckets).
  EXPECT_EQ(m.match(Event().with("p", 1.0)),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(m.match(Event().with("p", 2)), (std::vector<SubscriptionId>{2}));
  m.remove(1);
  EXPECT_TRUE(m.match(Event().with("sym", "ACME")).empty());
  EXPECT_EQ(m.in_anchored(), 1u);
  m.remove(2);
  EXPECT_EQ(m.in_anchored(), 0u);
  EXPECT_EQ(m.largest_eq_bucket(), 0u);
}

TEST(IndexMatcher, SuffixAnchorProbesEveryPatternLength) {
  IndexMatcher m;
  m.add(1, Filter().and_(suffix("t", "")));  // empty pattern: matches all
  m.add(2, Filter().and_(suffix("t", "g")));
  m.add(3, Filter().and_(suffix("t", "og")));
  m.add(4, Filter().and_(suffix("t", "log")));
  m.add(5, Filter().and_(suffix("t", "x")));
  EXPECT_EQ(m.suffix_anchored(), 5u);
  const auto sorted_hits = [&](const Event& e) {
    auto hits = m.match(e);
    std::sort(hits.begin(), hits.end());
    return hits;
  };
  EXPECT_EQ(sorted_hits(Event().with("t", "alog")),
            (std::vector<SubscriptionId>{1, 2, 3, 4}));
  EXPECT_EQ(sorted_hits(Event().with("t", "og")),
            (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(sorted_hits(Event().with("t", "")),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(m.match(Event().with("t", 7)).empty());  // non-string value
  m.remove(3);
  EXPECT_EQ(sorted_hits(Event().with("t", "alog")),
            (std::vector<SubscriptionId>{1, 2, 4}));
  EXPECT_EQ(m.suffix_anchored(), 4u);
}

TEST(IndexMatcher, ContainsAnchorWalksPatternsInLengthOrder) {
  IndexMatcher m;
  m.add(1, Filter().and_(contains("t", "")));  // empty pattern: matches all
  m.add(2, Filter().and_(contains("t", "a")));
  m.add(3, Filter().and_(contains("t", "ab")));
  m.add(4, Filter().and_(contains("t", "bb")));
  EXPECT_EQ(m.contains_anchored(), 4u);
  const auto sorted_hits = [&](const Event& e) {
    auto hits = m.match(e);
    std::sort(hits.begin(), hits.end());
    return hits;
  };
  EXPECT_EQ(sorted_hits(Event().with("t", "xaby")),
            (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(sorted_hits(Event().with("t", "bb")),
            (std::vector<SubscriptionId>{1, 4}));
  EXPECT_EQ(sorted_hits(Event().with("t", "")),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(m.match(Event().with("t", 7)).empty());
  m.remove(2);
  EXPECT_EQ(sorted_hits(Event().with("t", "xaby")),
            (std::vector<SubscriptionId>{1, 3}));
  EXPECT_EQ(m.contains_anchored(), 3u);
}

// --- the one-pass contains probe ---------------------------------------

/// Patterns ContainsTable::probe reports for `s`, in firing order.
std::vector<std::string> probed(const ContainsTable<int>& table,
                                const std::string& s) {
  std::vector<std::string> fired;
  table.probe(s, [&](const ContainsTable<int>::Posting& posting) {
    fired.push_back(posting.pattern);
  });
  return fired;
}

TEST(ContainsTable, FiresEachHitOnceInLengthThenPatternOrder) {
  ContainsTable<int> table;
  for (const std::string pattern :
       {"aa", "a", "", "aaa", "ab", "ba", "toolong-for-the-text", "b"}) {
    table.insert(pattern);
  }
  // "aaaa" holds "a", "aa" and "aaa" at several overlapping offsets; each
  // fires once, shortest first, "" ahead of everything.
  EXPECT_EQ(probed(table, "aaaa"),
            (std::vector<std::string>{"", "a", "aa", "aaa"}));
  EXPECT_EQ(probed(table, "abab"),
            (std::vector<std::string>{"", "a", "b", "ab", "ba"}));
  EXPECT_EQ(probed(table, ""), (std::vector<std::string>{""}));
  EXPECT_EQ(probed(table, "b"), (std::vector<std::string>{"", "b"}));
  // A pattern equal to the whole text, and one longer than it.
  table.insert("abab");
  EXPECT_EQ(probed(table, "abab"),
            (std::vector<std::string>{"", "a", "b", "ab", "ba", "abab"}));
  EXPECT_EQ(probed(table, "aba"),
            (std::vector<std::string>{"", "a", "b", "ab", "ba"}));

  // Candidates are confirmed on their first 8 bytes, then on the rest.
  // Patterns of 7, 8 and 9 bytes ending exactly at the text end (the 7-byte
  // one sits where fewer than 8 text bytes are left to load), and two
  // patterns that share an 8-byte head and differ only past it.
  ContainsTable<int> heads;
  for (const std::string pattern :
       {"ghijklm", "fghijklm", "efghijklm", "abcdefgh-tail1",
        "abcdefgh-tail2"}) {
    heads.insert(pattern);
  }
  EXPECT_EQ(probed(heads, "abcdefghijklm"),
            (std::vector<std::string>{"ghijklm", "fghijklm", "efghijklm"}));
  EXPECT_EQ(probed(heads, "ghijklm"), (std::vector<std::string>{"ghijklm"}));
  EXPECT_EQ(probed(heads, "fghijkl"), (std::vector<std::string>{}));
  EXPECT_EQ(probed(heads, "x abcdefgh-tail2"),
            (std::vector<std::string>{"abcdefgh-tail2"}));
  EXPECT_EQ(probed(heads, "abcdefgh-tail1abcdefgh-tail2"),
            (std::vector<std::string>{"abcdefgh-tail1", "abcdefgh-tail2"}));
  EXPECT_TRUE(probed(heads, "abcdefgh-tail").empty());
  EXPECT_TRUE(probed(heads, "abcdefgh-tail3").empty());
}

TEST(ContainsTable, HighBitBytesAndSharedLeadingBigrams) {
  ContainsTable<int> table;
  // Bytes >= 0x80 are negative as (signed) char; they must index the
  // bigram table as 128..255, not wrap below it.
  const std::string cafe = "caf\xc3\xa9";
  const std::string high = "\xff\xfe";
  for (const std::string& pattern :
       {cafe, high, std::string("\xc3"), std::string("caf"),
        std::string("cab"), std::string("cafeteria"), std::string("ca")}) {
    table.insert(pattern);
  }
  EXPECT_EQ(probed(table, "un caf\xc3\xa9 \xff\xfe"),
            (std::vector<std::string>{"\xc3", "ca", "\xff\xfe", "caf",
                                      cafe}));
  EXPECT_EQ(probed(table, "a cab, a cafeteria"),
            (std::vector<std::string>{"ca", "cab", "caf", "cafeteria"}));
  EXPECT_TRUE(probed(table, "\xfe\xff c").empty());
  // Removing the only pattern filed under a first byte (and the last one
  // of a bigram) leaves the neighbours intact.
  table.erase(high);
  table.erase("\xc3");
  EXPECT_EQ(probed(table, "un caf\xc3\xa9 \xff\xfe"),
            (std::vector<std::string>{"ca", "caf", cafe}));
  table.erase("cab");
  EXPECT_EQ(probed(table, "a cab"), (std::vector<std::string>{"ca"}));
  for (const std::string pattern : {"ca", "caf", "cafeteria"}) {
    table.erase(pattern);
  }
  table.erase(cafe);
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(probed(table, "cafe").empty());
}

TEST(ContainsTable, AgreesWithStringFindOnRandomAlphabets) {
  // 2,000 trials: a random table over a tiny alphabet (so patterns share
  // bigrams, overlap, and repeat inside the text), including NUL and
  // high-bit bytes and lengths 0..20 (across the 8-byte pattern head),
  // probed with random texts of length 0..64 and churned by erasing a
  // random pattern between probes. Each trial draws from a window of 1..5
  // letters, so the one- and two-letter trials also hit long patterns.
  util::Rng rng(0xc0417a1);
  const std::string alphabet("ab\x80\xff\0", 5);
  std::size_t letters = alphabet.size();
  std::size_t offset = 0;
  const auto random_string = [&](std::size_t max_len) {
    std::string s(rng.index(max_len + 1), 'a');
    for (char& c : s) {
      c = alphabet[(offset + rng.index(letters)) % alphabet.size()];
    }
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    letters = 1 + rng.index(alphabet.size());
    offset = rng.index(alphabet.size());
    ContainsTable<int> table;
    std::vector<std::string> patterns;
    const std::size_t count = 1 + rng.index(12);
    for (std::size_t k = 0; k < count; ++k) {
      const std::string p = random_string(20);
      if (table.find(p) == nullptr) patterns.push_back(p);
      table.insert(p);
    }
    if (rng.chance(0.5)) {
      const std::size_t victim = rng.index(patterns.size());
      table.erase(patterns[victim]);
      patterns.erase(patterns.begin() +
                     static_cast<std::ptrdiff_t>(victim));
    }
    std::sort(patterns.begin(), patterns.end(),
              [](const std::string& a, const std::string& b) {
                return a.size() != b.size() ? a.size() < b.size() : a < b;
              });
    for (int probe = 0; probe < 3; ++probe) {
      const std::string text = random_string(64);
      std::vector<std::string> expected;
      for (const std::string& p : patterns) {
        if (text.find(p) != std::string::npos) expected.push_back(p);
      }
      ASSERT_EQ(probed(table, text), expected) << "trial " << trial;
    }
  }
}

TEST(Matcher, ContainsProbeAgreesWithBruteForceOnEveryEngine) {
  // The same edge cases, end to end through both engines that use the
  // probe: one filter per pattern, hits compared with brute force.
  const std::vector<std::string> patterns{
      "",    "a",  "aa", "aaa", "ab",  "caf\xc3\xa9", "\xc3",
      "\xff", "ca", "cab", "caf", "a much longer pattern than any text"};
  const std::vector<std::string> texts{
      "",      "a",     "aaaa",    "abab", "un caf\xc3\xa9 \xff",
      "a cab", "\xff\xff", "cafcaf"};
  for (const std::string name : {"anchor-index", "bitset"}) {
    const auto m = make_matcher(name);
    BruteForceMatcher oracle;
    for (std::size_t k = 0; k < patterns.size(); ++k) {
      m->add(k + 1, Filter().and_(contains("t", patterns[k])));
      oracle.add(k + 1, Filter().and_(contains("t", patterns[k])));
    }
    const auto check = [&](const std::string& when) {
      for (const std::string& text : texts) {
        const Event e = Event().with("t", text);
        auto want = oracle.match(e);
        auto got = m->match(e);
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << name << " " << when << " on " << e.to_string();
        std::vector<std::vector<SubscriptionId>> batched;
        m->match_batch(std::vector<Event>{e, e}, batched);
        for (auto& hits : batched) {
          std::sort(hits.begin(), hits.end());
          ASSERT_EQ(hits, want) << name << " batch " << when;
        }
      }
    };
    check("full table");
    // "\xc3" and "\xff" are the only patterns under their first byte.
    for (const SubscriptionId id : {7u, 8u, 10u}) {
      m->remove(id);
      oracle.remove(id);
    }
    check("after removals");
  }
}

TEST(Matcher, EmptyPatternsMatchEveryStringOnEveryEngine) {
  // prefix/suffix/contains with a zero-length pattern match every string
  // value (and no non-string value); the sorted tables must keep the
  // length-0 probe alive through churn — this pins the
  // remove_prefix_length underflow path that used to decrement a missing
  // length entry.
  for (const std::string_view name : kBuiltinEngines) {
    const auto m = make_matcher(std::string(name));
    m->add(1, Filter().and_(prefix("t", "")));
    m->add(2, Filter().and_(suffix("t", "")));
    m->add(3, Filter().and_(contains("t", "")));
    for (const std::string s : {"", "a", "abc"}) {
      auto hits = m->match(Event().with("t", s));
      std::sort(hits.begin(), hits.end());
      ASSERT_EQ(hits, (std::vector<SubscriptionId>{1, 2, 3}))
          << name << " on \"" << s << "\"";
    }
    EXPECT_TRUE(m->match(Event().with("t", 42)).empty()) << name;
    // Removing one empty-pattern filter must not strip the other tables'
    // length-0 probes (each table tracks its own live lengths).
    m->remove(2);
    auto hits = m->match(Event().with("t", "x"));
    std::sort(hits.begin(), hits.end());
    ASSERT_EQ(hits, (std::vector<SubscriptionId>{1, 3})) << name;
    m->remove(1);
    m->remove(3);
    EXPECT_TRUE(m->match(Event().with("t", "x")).empty()) << name;
  }
}

TEST(IndexMatcher, RangeAnchorBoundarySemantics) {
  IndexMatcher m;
  m.add(1, Filter().and_(gt("p", 10)));
  m.add(2, Filter().and_(ge("p", 10)));
  m.add(3, Filter().and_(lt("p", 10)));
  m.add(4, Filter().and_(le("p", 10)));
  EXPECT_EQ(m.range_anchored(), 4u);
  const auto sorted_hits = [&](const Event& e) {
    auto hits = m.match(e);
    std::sort(hits.begin(), hits.end());
    return hits;
  };
  // Exactly on the bound: only the inclusive postings fire — the
  // strict/inclusive split at a compare-equal bound is the partition-point
  // edge the sorted arrays encode.
  EXPECT_EQ(sorted_hits(Event().with("p", 10)),
            (std::vector<SubscriptionId>{2, 4}));
  EXPECT_EQ(sorted_hits(Event().with("p", 10.0)),  // cross-type, same edge
            (std::vector<SubscriptionId>{2, 4}));
  EXPECT_EQ(sorted_hits(Event().with("p", 11)),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(sorted_hits(Event().with("p", 9.5)),
            (std::vector<SubscriptionId>{3, 4}));
  // Non-numeric event values satisfy no numeric range constraint.
  EXPECT_TRUE(m.match(Event().with("p", "10")).empty());
  m.remove(2);
  EXPECT_EQ(sorted_hits(Event().with("p", 10)),
            (std::vector<SubscriptionId>{4}));
  EXPECT_EQ(m.range_anchored(), 3u);
}

TEST(IndexMatcher, RangeProbesStayExactPastDoublePrecision) {
  constexpr std::int64_t kBig = 9007199254740992;  // 2^53
  IndexMatcher m;
  m.add(1, Filter().and_(gt("p", kBig)));
  m.add(2, Filter().and_(le("p", kBig)));
  // 2^53 + 1 is strictly greater than 2^53 even though both cast to the
  // same double — the sorted-bound probe must use the exact compare.
  EXPECT_EQ(m.match(Event().with("p", kBig + 1)),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(m.match(Event().with("p", kBig)),
            (std::vector<SubscriptionId>{2}));
  // The double 2^53 compares equal to the int bound.
  EXPECT_EQ(m.match(Event().with("p", 9007199254740992.0)),
            (std::vector<SubscriptionId>{2}));
}

TEST(IndexMatcher, PrefixAnchorProbesEveryPatternLength) {
  IndexMatcher m;
  m.add(1, Filter().and_(prefix("t", "")));  // empty pattern: matches all
  m.add(2, Filter().and_(prefix("t", "a")));
  m.add(3, Filter().and_(prefix("t", "ab")));
  m.add(4, Filter().and_(prefix("t", "abc")));
  m.add(5, Filter().and_(prefix("t", "b")));
  EXPECT_EQ(m.prefix_anchored(), 5u);
  const auto sorted_hits = [&](const Event& e) {
    auto hits = m.match(e);
    std::sort(hits.begin(), hits.end());
    return hits;
  };
  EXPECT_EQ(sorted_hits(Event().with("t", "abx")),
            (std::vector<SubscriptionId>{1, 2, 3}));
  EXPECT_EQ(sorted_hits(Event().with("t", "abc")),
            (std::vector<SubscriptionId>{1, 2, 3, 4}));
  EXPECT_EQ(sorted_hits(Event().with("t", "")),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(m.match(Event().with("t", 7)).empty());  // non-string value
  m.remove(3);
  EXPECT_EQ(sorted_hits(Event().with("t", "abx")),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(m.prefix_anchored(), 4u);
}

TEST(IndexMatcher, NumericCanonicalizationUnifiesIntAndDouble) {
  // Eq(3) (int) and an event value 3.0 (double) must land in the same
  // hash bucket; canonical_numeric is the shared normalization.
  EXPECT_EQ(canonical_numeric(Value(3)), Value(3.0));
  EXPECT_EQ(canonical_numeric(Value(3.0)), Value(3.0));
  EXPECT_EQ(canonical_numeric(Value("x")), Value("x"));
  EXPECT_EQ(std::hash<Value>{}(canonical_numeric(Value(3))),
            std::hash<Value>{}(canonical_numeric(Value(3.0))));

  IndexMatcher m;
  m.add(1, Filter().and_(eq("p", 3)));
  EXPECT_EQ(m.match(Event().with("p", 3.0)).size(), 1u);
  EXPECT_EQ(m.match(Event().with("p", 3)).size(), 1u);
  EXPECT_TRUE(m.match(Event().with("p", "3")).empty());  // string != number
}

TEST(IndexMatcher, AnchorRebalancesAwayFromGrowingBucket) {
  IndexMatcher m;
  // Both constraints are equality; with empty buckets the first (sorted)
  // attribute wins the anchor.
  m.add(1, Filter().and_(eq("a", 1)).and_(eq("b", 1)));
  EXPECT_EQ(m.anchor_attribute(1), "a");
  // The (a=1) bucket now holds one filter; a new filter with the same
  // constraints anchors on the still-empty (b=1) bucket instead.
  m.add(2, Filter().and_(eq("a", 1)).and_(eq("b", 1)));
  EXPECT_EQ(m.anchor_attribute(2), "b");

  // Removing the first filter empties (a=1); a re-add of that id anchors
  // back onto the smallest bucket.
  m.remove(1);
  m.add(3, Filter().and_(eq("a", 1)).and_(eq("b", 1)));
  EXPECT_EQ(m.anchor_attribute(3), "a");

  // Replace semantics re-run anchor selection too: id 2 re-added while
  // (b=1) holds itself but (a=1) holds id 3 -> the bucket sizes seen at
  // re-add time decide (b's bucket empties when 2 is removed first).
  m.add(2, Filter().and_(eq("a", 1)).and_(eq("b", 1)));
  EXPECT_EQ(m.anchor_attribute(2), "b");
  EXPECT_EQ(m.eq_anchored(), 2u);
}

TEST(IndexMatcher, AnchorsAvoidNonSelectiveAttribute) {
  // All filters share stream="feed"; selective anchoring must spread them
  // across the per-feed buckets rather than piling onto the stream bucket.
  IndexMatcher m;
  for (int i = 0; i < 100; ++i) {
    m.add(static_cast<SubscriptionId>(i + 1),
          Filter()
              .and_(eq("stream", "feed"))
              .and_(eq("feed", "http://s" + std::to_string(i / 2) + "/f")));
  }
  // A probe event should evaluate only the 2 filters of its feed bucket
  // (result size proves correctness; the perf bench proves selectivity).
  const auto hits = m.match(Event()
                                .with("stream", "feed")
                                .with("feed", "http://s7/f"));
  EXPECT_EQ(hits.size(), 2u);
}

TEST(IndexMatcher, ContentFiltersAnchorOnTheirPatternNotTheStreamBucket) {
  // Reef's content subscriptions: stream=feed plus one contains term, and
  // no second eq constraint. Only the first can take the (then empty)
  // stream bucket on the eq-wins tie; every later one finds its own
  // pattern posting smaller than the stream bucket.
  IndexMatcher m;
  BruteForceMatcher oracle;
  for (SubscriptionId id = 1; id <= 60; ++id) {
    const Filter f = Filter()
                         .and_(eq("stream", "feed"))
                         .and_(contains("text",
                                        "term" + std::to_string(id)));
    m.add(id, f);
    oracle.add(id, f);
  }
  EXPECT_EQ(m.contains_anchored(), 59u);
  EXPECT_LE(m.largest_eq_bucket(), 1u);
  for (const std::string text : {"a term7 and term13", "term1", "nothing"}) {
    const Event e = Event().with("stream", "feed").with("text", text);
    auto want = oracle.match(e);
    auto got = m.match(e);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << text;
  }
}

TEST(IndexMatcher, EqAnchorWinsATieWithAPatternPosting) {
  IndexMatcher m;
  // Both postings empty: the eq bucket wins the tie.
  m.add(1, Filter().and_(eq("feed", "u")).and_(contains("text", "x")));
  EXPECT_EQ(m.anchor_attribute(1), "feed");
  // (feed=u) holds 1 and contains(text,"y") is empty: the pattern wins.
  m.add(2, Filter().and_(eq("feed", "u")).and_(contains("text", "y")));
  EXPECT_EQ(m.anchor_attribute(2), "text");
  // (feed=v) holds 0 against the pattern's 1: eq is smaller...
  m.add(3, Filter().and_(eq("feed", "v")).and_(contains("text", "y")));
  EXPECT_EQ(m.anchor_attribute(3), "feed");
  // ...and at 1 vs 1 it wins the tie.
  m.add(4, Filter().and_(eq("feed", "v")).and_(contains("text", "y")));
  EXPECT_EQ(m.anchor_attribute(4), "feed");
  EXPECT_EQ(m.eq_anchored(), 3u);
  EXPECT_EQ(m.contains_anchored(), 1u);
}

TEST(IndexMatcher, RebalanceMovesFiltersOntoTheirPatternPosting) {
  IndexMatcher m;
  BruteForceMatcher oracle;
  const auto add_both = [&](SubscriptionId id, const Filter& f) {
    m.add(id, f);
    oracle.add(id, f);
  };
  // Ballast: 8 pattern-only filters make the contains(text,"t") posting
  // look expensive when the long-lived filters arrive.
  for (SubscriptionId id = 200; id < 208; ++id) {
    add_both(id, Filter().and_(contains("text", "t")));
  }
  // Long-lived filters anchor on (hot=1) while it holds 0..7 < 8.
  for (SubscriptionId id = 1; id <= 8; ++id) {
    add_both(id, Filter().and_(eq("hot", 1)).and_(contains("text", "t")));
    ASSERT_EQ(m.anchor_attribute(id), "hot") << id;
  }
  // (hot=1) then grows with pinned single-eq filters.
  for (SubscriptionId id = 100; id < 140; ++id) {
    add_both(id, Filter().and_(eq("hot", 1)));
  }
  EXPECT_EQ(m.largest_eq_bucket(), 48u);
  EXPECT_EQ(m.rebalance(/*max_bucket=*/8), 8u);
  for (SubscriptionId id = 1; id <= 8; ++id) {
    EXPECT_EQ(m.anchor_attribute(id), "text") << id;
  }
  EXPECT_EQ(m.largest_eq_bucket(), 40u);
  EXPECT_EQ(m.contains_anchored(), 16u);
  EXPECT_EQ(m.rebalance(/*max_bucket=*/8), 0u);
  for (const Event& probe :
       {Event().with("hot", 1).with("text", "at"), Event().with("hot", 1),
        Event().with("text", "t")}) {
    auto want = oracle.match(probe);
    auto got = m.match(probe);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << probe.to_string();
  }
}

// --- make_matcher ------------------------------------------------------------

TEST(MakeMatcher, BuiltInEnginesByName) {
  for (const std::string_view name : kBuiltinEngines) {
    const auto matcher = make_matcher(name);
    ASSERT_NE(matcher, nullptr);
    EXPECT_EQ(matcher->name(), name);
  }
  EXPECT_THROW(make_matcher("definitely-not-an-engine"),
               std::invalid_argument);
}

TEST(MakeMatcher, RejectsShardedNames) {
  // Sharding is a count (RoutingTable::Config::shard_count), never part of
  // an engine name: neither a wrapper prefix nor a ShardedMatcher's
  // display label names an engine.
  const std::string wrapper = "sharded";
  for (const std::string_view inner : kBuiltinEngines) {
    EXPECT_THROW(make_matcher(wrapper + ":" + std::string(inner)),
                 std::invalid_argument)
        << inner;
    const ShardedMatcher sharded(ShardedMatcher::Config{
        .shard_count = 4, .inner_engine = std::string(inner)});
    EXPECT_THROW(make_matcher(sharded.name()), std::invalid_argument)
        << sharded.name();
  }
}

// --- Equivalence property: every engine == brute force ----------------------

class MatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

Filter random_filter(util::Rng& rng) {
  static const std::vector<std::string> attrs{"a", "b", "c", "d"};
  static const std::vector<std::string> strings{"x", "y", "xy", "z"};
  std::vector<Constraint> cs;
  const std::size_t n = 1 + rng.index(3);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& attr = attrs[rng.index(attrs.size())];
    switch (rng.index(9)) {
      case 0:
        cs.push_back(eq(attr, static_cast<std::int64_t>(rng.index(5))));
        break;
      case 1:
        cs.push_back(eq(attr, strings[rng.index(strings.size())]));
        break;
      case 2:
        cs.push_back(lt(attr, static_cast<std::int64_t>(rng.index(5))));
        break;
      case 3:
        cs.push_back(ge(attr, static_cast<double>(rng.index(5))));
        break;
      case 4:
        cs.push_back(prefix(attr, strings[rng.index(strings.size())]));
        break;
      case 5:
        cs.push_back(suffix(attr, strings[rng.index(strings.size())]));
        break;
      case 6:
        cs.push_back(contains(attr, strings[rng.index(strings.size())]));
        break;
      case 7: {
        std::vector<Value> members;
        const std::size_t count = rng.index(4);  // 0..3: empty sets too
        for (std::size_t j = 0; j < count; ++j) {
          if (rng.chance(0.5)) {
            members.emplace_back(static_cast<std::int64_t>(rng.index(5)));
          } else {
            members.emplace_back(strings[rng.index(strings.size())]);
          }
        }
        cs.push_back(in_(attr, std::move(members)));
        break;
      }
      default:
        cs.push_back(exists(attr));
        break;
    }
  }
  return Filter(std::move(cs));
}

Event random_event(util::Rng& rng) {
  static const std::vector<std::string> attrs{"a", "b", "c", "d"};
  static const std::vector<std::string> strings{"x", "y", "xy", "z"};
  Event e;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& attr = attrs[rng.index(attrs.size())];
    if (rng.chance(0.5)) {
      if (rng.chance(0.5)) {
        e.with(attr, static_cast<std::int64_t>(rng.index(5)));
      } else {
        e.with(attr, static_cast<double>(rng.index(5)));
      }
    } else {
      e.with(attr, strings[rng.index(strings.size())]);
    }
  }
  return e;
}

TEST_P(MatcherEquivalence, AllEnginesAgreeWithBruteForceUnderChurn) {
  util::Rng rng(GetParam());
  BruteForceMatcher brute;
  std::vector<std::unique_ptr<Matcher>> engines;
  for (const EngineVariant& variant : engine_variants()) {
    engines.push_back(variant.make());
  }
  std::vector<SubscriptionId> live;
  SubscriptionId next = 1;

  for (int round = 0; round < 300; ++round) {
    // Mutate: add or remove a filter.
    if (live.empty() || rng.chance(0.7)) {
      const Filter f = random_filter(rng);
      brute.add(next, f);
      for (auto& engine : engines) engine->add(next, f);
      live.push_back(next);
      ++next;
    } else {
      const std::size_t idx = rng.index(live.size());
      brute.remove(live[idx]);
      for (auto& engine : engines) engine->remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Probe with several random events.
    for (auto& engine : engines) {
      ASSERT_EQ(brute.size(), engine->size()) << engine->name();
      for (int probe = 0; probe < 5; ++probe) {
        const Event e = random_event(rng);
        auto expected = brute.match(e);
        auto actual = engine->match(e);
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        ASSERT_EQ(expected, actual)
            << engine->name() << " on event " << e.to_string();
      }
    }
  }
}

TEST_P(MatcherEquivalence, MatchBatchEqualsPerEventMatch) {
  util::Rng rng(GetParam() ^ 0xba7c);
  std::vector<Filter> filters;
  for (int i = 0; i < 120; ++i) filters.push_back(random_filter(rng));
  for (const EngineVariant& variant : engine_variants()) {
    const auto engine = variant.make();
    const std::string name = variant.label();
    for (std::size_t i = 0; i < filters.size(); ++i) {
      engine->add(i + 1, filters[i]);
    }
    for (const std::size_t batch_size : {1u, 2u, 8u, 33u}) {
      std::vector<Event> events;
      for (std::size_t i = 0; i < batch_size; ++i) {
        events.push_back(random_event(rng));
      }
      std::vector<std::vector<SubscriptionId>> batched;
      engine->match_batch(events, batched);
      ASSERT_EQ(batched.size(), events.size()) << name;
      for (std::size_t i = 0; i < events.size(); ++i) {
        auto expected = engine->match(events[i]);
        auto actual = batched[i];
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        ASSERT_EQ(actual, expected)
            << name << " batch " << batch_size << " event "
            << events[i].to_string();
      }
    }
  }
}

/// Sharded engines with real worker threads agree with their unsharded
/// inner engine and the brute-force oracle under churn — match sets *and*
/// per-batch hit order are deterministic (identical across worker counts)
/// because the sharded merge is by shard index, never thread schedule.
TEST_P(MatcherEquivalence, ShardedAgreesWithUnshardedAcrossWorkerCounts) {
  util::Rng rng(GetParam() ^ 0x51a8d);
  for (const std::string inner : {"anchor-index", "bitset"}) {
    BruteForceMatcher oracle;
    const auto unsharded = make_matcher(inner);
    std::vector<std::unique_ptr<ShardedMatcher>> sharded;
    for (const std::size_t workers : {0u, 1u, 4u}) {
      sharded.push_back(std::make_unique<ShardedMatcher>(
          ShardedMatcher::Config{.shard_count = 4,
                                 .worker_threads = workers,
                                 .inner_engine = inner}));
    }
    std::vector<SubscriptionId> live;
    SubscriptionId next = 1;
    for (int round = 0; round < 60; ++round) {
      for (int step = 0; step < 5; ++step) {
        if (live.empty() || rng.chance(0.7)) {
          const Filter f = random_filter(rng);
          oracle.add(next, f);
          unsharded->add(next, f);
          for (auto& engine : sharded) engine->add(next, f);
          live.push_back(next++);
        } else {
          const std::size_t idx = rng.index(live.size());
          oracle.remove(live[idx]);
          unsharded->remove(live[idx]);
          for (auto& engine : sharded) engine->remove(live[idx]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
      std::vector<Event> events;
      for (int i = 0; i < 16; ++i) events.push_back(random_event(rng));
      std::vector<std::vector<SubscriptionId>> reference;
      sharded.front()->match_batch(events, reference);
      for (std::size_t w = 1; w < sharded.size(); ++w) {
        std::vector<std::vector<SubscriptionId>> batched;
        sharded[w]->match_batch(events, batched);
        ASSERT_EQ(batched, reference)
            << inner << " with " << sharded[w]->worker_threads()
            << " workers diverges from the 0-worker merge order";
      }
      for (std::size_t i = 0; i < events.size(); ++i) {
        auto expected = oracle.match(events[i]);
        auto from_unsharded = unsharded->match(events[i]);
        auto from_sharded = reference[i];
        std::sort(expected.begin(), expected.end());
        std::sort(from_unsharded.begin(), from_unsharded.end());
        std::sort(from_sharded.begin(), from_sharded.end());
        ASSERT_EQ(from_sharded, expected)
            << sharded.front()->name() << " on " << events[i].to_string();
        ASSERT_EQ(from_unsharded, expected)
            << inner << " on " << events[i].to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- ShardedMatcher unit behavior -------------------------------------------

TEST(ShardedMatcher, PlacementAndSpillBookkeeping) {
  ShardedMatcher m(
      ShardedMatcher::Config{.shard_count = 4, .inner_engine = "anchor-index"});
  EXPECT_EQ(m.name(), "anchor-index/4");
  EXPECT_EQ(m.shard_count(), 4u);

  m.add(1, Filter());  // anchorless -> spill
  m.add(2, stock_filter("ACME", 10.0));
  m.add(3, stock_filter("ACME", 20.0));  // same anchor attr -> same shard
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.spill_size(), 1u);
  std::size_t across_shards = 0;
  for (std::size_t s = 0; s < m.shard_count(); ++s) {
    across_shards += m.shard_size(s);
  }
  EXPECT_EQ(across_shards, 2u);

  // Universal filter matches everything; anchored ones only their events.
  auto hits = m.match(Event().with("sym", "ACME").with("price", 15.0));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(m.match(Event()).size(), 1u);

  // Replace semantics move a filter between shards (universal -> anchored).
  m.add(1, stock_filter("XYZ", 1.0));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.spill_size(), 0u);
  m.remove(1);
  m.remove(2);
  m.remove(3);
  EXPECT_EQ(m.size(), 0u);
  m.remove(99);  // unknown id: no-op
}

TEST(ShardedMatcher, RejectsZeroShardsAndUnknownInnerEngines) {
  EXPECT_THROW(ShardedMatcher(ShardedMatcher::Config{.shard_count = 0,
                                          .inner_engine = "anchor-index"}),
               std::invalid_argument);
  EXPECT_THROW(ShardedMatcher(ShardedMatcher::Config{.shard_count = 4,
                                          .inner_engine = "no-such"}),
               std::invalid_argument);
}

// --- anchor rebalancing under adversarial churn -----------------------------

TEST(IndexMatcher, RebalanceMovesLongLivedFiltersOffGrownBuckets) {
  IndexMatcher m;
  BruteForceMatcher oracle;
  const auto add_both = [&](SubscriptionId id, const Filter& f) {
    m.add(id, f);
    oracle.add(id, f);
  };
  // Ballast: 8 filters per (user=i) bucket, so those buckets look
  // expensive when the long-lived filters arrive.
  SubscriptionId ballast = 200;
  for (std::int64_t user = 1; user <= 8; ++user) {
    for (int n = 0; n < 8; ++n) {
      add_both(ballast++, Filter().and_(eq("user", user)).and_(
                              ge("score", static_cast<std::int64_t>(n))));
    }
  }
  // Long-lived filters anchor on (hot=1): at add time that bucket (size
  // 0..7) is strictly smaller than their (user=i) alternative (size 8).
  for (SubscriptionId id = 1; id <= 8; ++id) {
    add_both(id, Filter()
                     .and_(eq("hot", 1))
                     .and_(eq("user", static_cast<std::int64_t>(id))));
    ASSERT_EQ(m.anchor_attribute(id), "hot") << id;
  }
  // Adversarial churn: (hot=1) then grows with single-constraint filters
  // that have nowhere else to anchor; the long-lived filters are stuck on
  // what has become the hottest bucket in the index.
  for (SubscriptionId id = 100; id < 140; ++id) {
    add_both(id, Filter().and_(eq("hot", 1)));
  }
  EXPECT_EQ(m.largest_eq_bucket(), 48u);

  // Long-lived filters still match correctly from the hot bucket.
  const Event event = Event().with("hot", 1).with("user", 3);
  auto expected = oracle.match(event);
  auto actual = m.match(event);
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  ASSERT_EQ(actual, expected);

  // A rebalance pass moves every filter with an alternative anchor out.
  const std::size_t moved = m.rebalance(/*max_bucket=*/8);
  EXPECT_EQ(moved, 8u);
  for (SubscriptionId id = 1; id <= 8; ++id) {
    EXPECT_EQ(m.anchor_attribute(id), "user") << id;
  }
  // Documented residual skew: the 40 single-constraint filters are pinned
  // to (hot=1) — no rebalance can shrink that bucket below their count.
  EXPECT_EQ(m.largest_eq_bucket(), 40u);
  // A second pass finds only pinned filters and moves nothing.
  EXPECT_EQ(m.rebalance(/*max_bucket=*/8), 0u);

  // Matching is unchanged by re-anchoring.
  for (const Event& probe :
       {event, Event().with("hot", 1),
        Event().with("user", 5).with("score", 3)}) {
    auto want = oracle.match(probe);
    auto got = m.match(probe);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << probe.to_string();
  }
}

// --- the Matcher::maintain hook ----------------------------------------------

TEST(Matcher, MaintainDefaultsToNoOpOnEnginesWithoutAmortizedState) {
  BruteForceMatcher brute;
  for (SubscriptionId id = 1; id <= 10; ++id) {
    brute.add(id, Filter().and_(eq("hot", 1)));
  }
  EXPECT_EQ(brute.maintain(2), 0u);
}

TEST(IndexMatcher, MaintainIsRebalance) {
  // Same skew shape as the rebalance test, driven through the hook: 8
  // ballast filters per (user=i) bucket, two-anchor filters landing on
  // (hot=1) while it is small, then (hot=1) grows past them.
  IndexMatcher m;
  SubscriptionId ballast = 200;
  for (std::int64_t user = 1; user <= 4; ++user) {
    for (int n = 0; n < 8; ++n) {
      m.add(ballast++, Filter().and_(eq("user", user)).and_(
                           ge("score", static_cast<std::int64_t>(n))));
    }
  }
  for (SubscriptionId id = 1; id <= 4; ++id) {
    m.add(id, Filter()
                  .and_(eq("hot", 1))
                  .and_(eq("user", static_cast<std::int64_t>(id))));
  }
  for (SubscriptionId id = 100; id < 130; ++id) {
    m.add(id, Filter().and_(eq("hot", 1)));
  }
  // Balanced threshold: nothing above max_bucket => maintain is free.
  EXPECT_EQ(m.maintain(64), 0u);
  // Tight threshold: the hook moves exactly the re-anchorable filters.
  EXPECT_EQ(m.maintain(8), 4u);
  for (SubscriptionId id = 1; id <= 4; ++id) {
    EXPECT_EQ(m.anchor_attribute(id), "user") << id;
  }
}

TEST(ShardedMatcher, MaintainFansOutToTheShards) {
  // Two independent skew groups. Each group leads with exists("a<g>") —
  // the canonically-first constraint — so the whole group shards together
  // by that attribute, and the adversarial structure (ballast inflating
  // the (u<g>=id) buckets, victims stranded on (h<g>=1) as growers pile
  // in) plays out inside one inner IndexMatcher, exactly as in the
  // unsharded rebalance test. The sharded hook must reach both groups'
  // shards and leave matching untouched.
  ShardedMatcher m(
      ShardedMatcher::Config{.shard_count = 4, .inner_engine = "anchor-index"});
  BruteForceMatcher oracle;
  const auto add_both = [&](SubscriptionId id, const Filter& f) {
    m.add(id, f);
    oracle.add(id, f);
  };
  SubscriptionId next = 1;
  std::vector<SubscriptionId> victims;
  for (const int g : {0, 1}) {
    const std::string suffix = std::to_string(g);
    const std::string a = "a" + suffix;
    const std::string h = "h" + suffix;
    const std::string u = "u" + suffix;
    const std::string z = "z" + suffix;
    // Ballast: 8 filters anchored in each (u<g>=id) bucket.
    for (std::int64_t user = 1; user <= 4; ++user) {
      for (std::int64_t n = 0; n < 8; ++n) {
        add_both(next++,
                 Filter().and_(exists(a)).and_(eq(u, user)).and_(ge(z, n)));
      }
    }
    // Victims anchor on (h<g>=1) while it is smaller than their (u<g>=id)
    // alternative (size 8)...
    for (std::int64_t user = 1; user <= 4; ++user) {
      victims.push_back(next);
      add_both(next++,
               Filter().and_(exists(a)).and_(eq(h, 1)).and_(eq(u, user)));
    }
    // ...then (h<g>=1) grows past any threshold with pinned single-eq
    // filters.
    for (int i = 0; i < 20; ++i) {
      add_both(next++, Filter().and_(exists(a)).and_(eq(h, 1)));
    }
  }
  // The hook moves the 4 victims of each group off their grown buckets.
  EXPECT_EQ(m.maintain(8), 8u);
  // A second pass finds only pinned filters everywhere.
  EXPECT_EQ(m.maintain(8), 0u);
  for (const Event& probe :
       {Event().with("a0", 1).with("h0", 1).with("u0", 2),
        Event().with("a1", 1).with("h1", 1).with("u1", 3),
        Event().with("a0", 1).with("u0", 1).with("z0", 5), Event()}) {
    auto want = oracle.match(probe);
    auto got = m.match(probe);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << probe.to_string();
  }
}

}  // namespace
}  // namespace reef::pubsub
