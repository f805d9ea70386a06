#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/matcher.h"
#include "pubsub/range_index.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

Filter stock_filter(const std::string& sym, double min_price) {
  return Filter().and_(eq("sym", sym)).and_(ge("price", min_price));
}

std::vector<SubscriptionId> sorted_hits(const Matcher& m, const Event& e) {
  auto hits = m.match(e);
  std::sort(hits.begin(), hits.end());
  return hits;
}

/// Runs `body` on a fresh instance of every built-in engine, so the
/// matching-semantics tests below hold each one to the same answers.
template <typename Body>
void for_each_engine(Body body) {
  for (const std::string_view name : kBuiltinEngines) {
    SCOPED_TRACE(name);
    const auto m = make_matcher(name);
    body(*m);
  }
}

TEST(EngineSemantics, BasicMatch) {
  for_each_engine([](Matcher& m) {
    m.add(1, stock_filter("ACME", 10.0));
    m.add(2, stock_filter("ACME", 20.0));
    m.add(3, stock_filter("XYZ", 5.0));
    EXPECT_EQ(sorted_hits(m, Event().with("sym", "ACME").with("price", 15.0)),
              (std::vector<SubscriptionId>{1}));
    EXPECT_EQ(sorted_hits(m, Event().with("sym", "ACME").with("price", 25.0)),
              (std::vector<SubscriptionId>{1, 2}));
    EXPECT_TRUE(
        m.match(Event().with("sym", "NONE").with("price", 99.0)).empty());
  });
}

TEST(EngineSemantics, EmptyFilterMatchesEverything) {
  for_each_engine([](Matcher& m) {
    m.add(7, Filter());
    EXPECT_EQ(m.match(Event()).size(), 1u);
    EXPECT_EQ(m.match(Event().with("x", 1)).size(), 1u);
  });
}

TEST(EngineSemantics, RemoveStopsMatching) {
  for_each_engine([](Matcher& m) {
    m.add(1, stock_filter("A", 1.0));
    m.remove(1);
    EXPECT_TRUE(m.match(Event().with("sym", "A").with("price", 5.0)).empty());
    EXPECT_EQ(m.size(), 0u);
    m.remove(99);  // unknown id: no-op
  });
}

TEST(EngineSemantics, ReplaceSemantics) {
  for_each_engine([](Matcher& m) {
    m.add(1, stock_filter("A", 1.0));
    m.add(1, stock_filter("B", 1.0));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.match(Event().with("sym", "A").with("price", 5.0)).empty());
    EXPECT_EQ(m.match(Event().with("sym", "B").with("price", 5.0)).size(), 1u);
  });
}

TEST(EngineSemantics, CrossTypeNumericEqualityViaHashPath) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(eq("p", 3)));                    // int constraint
    EXPECT_EQ(m.match(Event().with("p", 3.0)).size(), 1u);  // double event
    m.add(2, Filter().and_(eq("q", 2.0)));                  // double constraint
    EXPECT_EQ(m.match(Event().with("q", 2)).size(), 1u);    // int event
  });
}

TEST(EngineSemantics, MultipleConstraintsSameAttribute) {
  for_each_engine([](Matcher& m) {
    // range (5, 10): two constraints on one attribute
    m.add(1, Filter().and_(gt("p", 5)).and_(lt("p", 10)));
    EXPECT_EQ(m.match(Event().with("p", 7)).size(), 1u);
    EXPECT_TRUE(m.match(Event().with("p", 4)).empty());
    EXPECT_TRUE(m.match(Event().with("p", 11)).empty());
  });
}

TEST(EngineSemantics, InSetMatchesEachMemberOnce) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(in_("sym", {Value("ACME"), Value("XYZ")})));
    m.add(2, Filter().and_(in_("p", {Value(1), Value(2.0)})));
    EXPECT_EQ(m.match(Event().with("sym", "ACME")).size(), 1u);
    EXPECT_EQ(m.match(Event().with("sym", "XYZ")).size(), 1u);
    EXPECT_TRUE(m.match(Event().with("sym", "OTHER")).empty());
    // Cross-type numeric members are equal to either event
    // representation, and a value equal to one member hits exactly once.
    EXPECT_EQ(m.match(Event().with("p", 1.0)),
              (std::vector<SubscriptionId>{2}));
    EXPECT_EQ(m.match(Event().with("p", 2)), (std::vector<SubscriptionId>{2}));
    m.remove(1);
    EXPECT_TRUE(m.match(Event().with("sym", "ACME")).empty());
  });
}

TEST(EngineSemantics, SuffixProbesEveryPatternLength) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(suffix("t", "")));  // empty pattern: matches all
    m.add(2, Filter().and_(suffix("t", "g")));
    m.add(3, Filter().and_(suffix("t", "og")));
    m.add(4, Filter().and_(suffix("t", "log")));
    m.add(5, Filter().and_(suffix("t", "x")));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "alog")),
              (std::vector<SubscriptionId>{1, 2, 3, 4}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "og")),
              (std::vector<SubscriptionId>{1, 2, 3}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "")),
              (std::vector<SubscriptionId>{1}));
    EXPECT_TRUE(m.match(Event().with("t", 7)).empty());  // non-string value
    m.remove(3);
    EXPECT_EQ(sorted_hits(m, Event().with("t", "alog")),
              (std::vector<SubscriptionId>{1, 2, 4}));
  });
}

TEST(EngineSemantics, ContainsProbesEveryPatternLength) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(contains("t", "")));  // empty pattern: matches all
    m.add(2, Filter().and_(contains("t", "a")));
    m.add(3, Filter().and_(contains("t", "ab")));
    m.add(4, Filter().and_(contains("t", "bb")));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "xaby")),
              (std::vector<SubscriptionId>{1, 2, 3}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "bb")),
              (std::vector<SubscriptionId>{1, 4}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "")),
              (std::vector<SubscriptionId>{1}));
    EXPECT_TRUE(m.match(Event().with("t", 7)).empty());
    m.remove(2);
    EXPECT_EQ(sorted_hits(m, Event().with("t", "xaby")),
              (std::vector<SubscriptionId>{1, 3}));
  });
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
  // The same edge cases, end to end through every engine: one filter per
  // pattern, hits compared with brute force.
  const std::vector<std::string> patterns{
      "",    "a",  "aa", "aaa", "ab",  "caf\xc3\xa9", "\xc3",
      "\xff", "ca", "cab", "caf", "a much longer pattern than any text"};
  const std::vector<std::string> texts{
      "",      "a",     "aaaa",    "abab", "un caf\xc3\xa9 \xff",
      "a cab", "\xff\xff", "cafcaf"};
  for (const std::string_view name : kBuiltinEngines) {
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

TEST(EngineSemantics, RangeBoundarySemantics) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(gt("p", 10)));
    m.add(2, Filter().and_(ge("p", 10)));
    m.add(3, Filter().and_(lt("p", 10)));
    m.add(4, Filter().and_(le("p", 10)));
    // Exactly on the bound: only the inclusive constraints fire — the
    // strict/inclusive split at a compare-equal bound is the
    // partition-point edge the sorted bound arrays encode.
    EXPECT_EQ(sorted_hits(m, Event().with("p", 10)),
              (std::vector<SubscriptionId>{2, 4}));
    EXPECT_EQ(sorted_hits(m, Event().with("p", 10.0)),  // cross-type, same edge
              (std::vector<SubscriptionId>{2, 4}));
    EXPECT_EQ(sorted_hits(m, Event().with("p", 11)),
              (std::vector<SubscriptionId>{1, 2}));
    EXPECT_EQ(sorted_hits(m, Event().with("p", 9.5)),
              (std::vector<SubscriptionId>{3, 4}));
    // Non-numeric event values satisfy no numeric range constraint.
    EXPECT_TRUE(m.match(Event().with("p", "10")).empty());
    m.remove(2);
    EXPECT_EQ(sorted_hits(m, Event().with("p", 10)),
              (std::vector<SubscriptionId>{4}));
  });
}

TEST(EngineSemantics, RangeProbesStayExactPastDoublePrecision) {
  constexpr std::int64_t kBig = 9007199254740992;  // 2^53
  for_each_engine([](Matcher& m) {
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
  });
}

TEST(EngineSemantics, PrefixProbesEveryPatternLength) {
  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(prefix("t", "")));  // empty pattern: matches all
    m.add(2, Filter().and_(prefix("t", "a")));
    m.add(3, Filter().and_(prefix("t", "ab")));
    m.add(4, Filter().and_(prefix("t", "abc")));
    m.add(5, Filter().and_(prefix("t", "b")));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "abx")),
              (std::vector<SubscriptionId>{1, 2, 3}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "abc")),
              (std::vector<SubscriptionId>{1, 2, 3, 4}));
    EXPECT_EQ(sorted_hits(m, Event().with("t", "")),
              (std::vector<SubscriptionId>{1}));
    EXPECT_TRUE(m.match(Event().with("t", 7)).empty());  // non-string value
    m.remove(3);
    EXPECT_EQ(sorted_hits(m, Event().with("t", "abx")),
              (std::vector<SubscriptionId>{1, 2}));
  });
}

TEST(EngineSemantics, NumericCanonicalizationUnifiesIntAndDouble) {
  // Eq(3) (int) and an event value 3.0 (double) must land on the same
  // index entry; canonical_numeric is the shared normalization.
  EXPECT_EQ(canonical_numeric(Value(3)), Value(3.0));
  EXPECT_EQ(canonical_numeric(Value(3.0)), Value(3.0));
  EXPECT_EQ(canonical_numeric(Value("x")), Value("x"));
  EXPECT_EQ(std::hash<Value>{}(canonical_numeric(Value(3))),
            std::hash<Value>{}(canonical_numeric(Value(3.0))));

  for_each_engine([](Matcher& m) {
    m.add(1, Filter().and_(eq("p", 3)));
    EXPECT_EQ(m.match(Event().with("p", 3.0)).size(), 1u);
    EXPECT_EQ(m.match(Event().with("p", 3)).size(), 1u);
    EXPECT_TRUE(m.match(Event().with("p", "3")).empty());  // string != number
  });
}

TEST(EngineSemantics, SharedStreamConstraintDoesNotWidenFeedMatches) {
  // All filters share stream="feed"; an event hits exactly the 2 filters
  // of its own feed, however many filters carry the shared constraint.
  for_each_engine([](Matcher& m) {
    for (int i = 0; i < 100; ++i) {
      m.add(static_cast<SubscriptionId>(i + 1),
            Filter()
                .and_(eq("stream", "feed"))
                .and_(eq("feed", "http://s" + std::to_string(i / 2) + "/f")));
    }
    EXPECT_EQ(sorted_hits(m, Event()
                                 .with("stream", "feed")
                                 .with("feed", "http://s7/f")),
              (std::vector<SubscriptionId>{15, 16}));
  });
}

TEST(EngineSemantics, ContentFiltersAgreeWithBruteForce) {
  // Reef's content subscriptions: stream=feed plus one contains term.
  for_each_engine([](Matcher& m) {
    BruteForceMatcher oracle;
    for (SubscriptionId id = 1; id <= 60; ++id) {
      const Filter f = Filter()
                           .and_(eq("stream", "feed"))
                           .and_(contains("text", "term" + std::to_string(id)));
      m.add(id, f);
      oracle.add(id, f);
    }
    for (const std::string text : {"a term7 and term13", "term1", "nothing"}) {
      const Event e = Event().with("stream", "feed").with("text", text);
      ASSERT_EQ(sorted_hits(m, e), sorted_hits(oracle, e)) << text;
    }
  });
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
  // A deleted engine's name is rejected like any other unknown name.
  EXPECT_THROW(make_matcher("anchor-index"), std::invalid_argument);
}

TEST(MakeMatcher, RejectsShardedNames) {
  // Parallelism is a routing-table count (worker_threads), never part of
  // an engine name: neither a wrapper prefix nor a shard suffix names an
  // engine.
  for (const std::string_view engine : kBuiltinEngines) {
    const std::string inner(engine);
    EXPECT_THROW(make_matcher("sharded:" + inner), std::invalid_argument)
        << inner;
    EXPECT_THROW(make_matcher(inner + "/4"), std::invalid_argument) << inner;
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
  for (const std::string_view name : kBuiltinEngines) {
    engines.push_back(make_matcher(name));
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
  std::vector<std::vector<Event>> batches;
  for (const std::size_t batch_size : {1u, 2u, 8u, 33u}) {
    std::vector<Event> events;
    for (std::size_t i = 0; i < batch_size; ++i) {
      events.push_back(random_event(rng));
    }
    batches.push_back(std::move(events));
  }
  // One more batch of the shapes an earlier batch path grouped specially,
  // pinned on the one per-event path: an attribute interned late, far past
  // the rest (grouping fell back to a sort on a sparse id range),
  // int/double-equal values across events, several handles to one event
  // block, and attribute-free events mid-batch.
  for (int i = 0; i < 200; ++i) {
    AttrTable::instance().intern("batch_pad_" + std::to_string(i));
  }
  const std::string stray = "batch_stray";
  ASSERT_GE(AttrTable::instance().intern(stray), 200u);
  filters.push_back(Filter().and_(eq(stray, 1)));
  filters.push_back(Filter().and_(exists(stray)).and_(eq("a", 3)));
  filters.push_back(Filter().and_(eq("a", 3.0)));
  filters.push_back(Filter().and_(ge("a", 3)).and_(eq("b", "xy")));
  const Event shared = Event().with("a", 3).with("b", "xy");
  batches.push_back({Event().with("a", 3), Event(), Event().with("a", 3.0),
                     shared, Event().with(stray, 1).with("a", 3.0), Event(),
                     shared, Event().with(stray, 1.0).with("a", 3), shared,
                     Event().with(stray, 2)});
  BruteForceMatcher oracle;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    oracle.add(i + 1, filters[i]);
  }
  for (const std::string_view engine_name : kBuiltinEngines) {
    const auto engine = make_matcher(engine_name);
    const std::string name(engine_name);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      engine->add(i + 1, filters[i]);
    }
    for (const std::vector<Event>& events : batches) {
      std::vector<std::vector<SubscriptionId>> batched;
      engine->match_batch(events, batched);
      ASSERT_EQ(batched.size(), events.size()) << name;
      for (std::size_t i = 0; i < events.size(); ++i) {
        auto expected = oracle.match(events[i]);
        auto single = engine->match(events[i]);
        auto actual = batched[i];
        std::sort(expected.begin(), expected.end());
        std::sort(single.begin(), single.end());
        std::sort(actual.begin(), actual.end());
        ASSERT_EQ(actual, expected)
            << name << " batch " << events.size() << " event "
            << events[i].to_string();
        ASSERT_EQ(single, expected)
            << name << " event " << events[i].to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace reef::pubsub
