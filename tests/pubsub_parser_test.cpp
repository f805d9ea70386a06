#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "pubsub/filter_parser.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

Filter parse(std::string_view text) { return parse_filter_or_throw(text); }

TEST(FilterParser, SingleEqualityString) {
  const Filter f = parse("stream = \"feed\"");
  EXPECT_TRUE(f.matches(Event().with("stream", "feed")));
  EXPECT_FALSE(f.matches(Event().with("stream", "video")));
}

TEST(FilterParser, Conjunction) {
  const Filter f = parse("symbol = \"ACME\" && price >= 10.5");
  EXPECT_TRUE(f.matches(Event().with("symbol", "ACME").with("price", 11.0)));
  EXPECT_FALSE(f.matches(Event().with("symbol", "ACME").with("price", 10.0)));
  EXPECT_EQ(f.size(), 2u);
}

TEST(FilterParser, AllOperators) {
  EXPECT_TRUE(parse("a != 3").matches(Event().with("a", 4)));
  EXPECT_TRUE(parse("a < 3").matches(Event().with("a", 2)));
  EXPECT_TRUE(parse("a <= 3").matches(Event().with("a", 3)));
  EXPECT_TRUE(parse("a > 3").matches(Event().with("a", 4)));
  EXPECT_TRUE(parse("a >= 3").matches(Event().with("a", 3)));
  EXPECT_TRUE(parse("u =^ \"http://\"").matches(
      Event().with("u", "http://x.org/")));
  EXPECT_TRUE(parse("u =$ \".rss\"").matches(Event().with("u", "f.rss")));
  EXPECT_TRUE(
      parse("t =* \"storm\"").matches(Event().with("t", "big storm now")));
}

TEST(FilterParser, HasAndAnyForms) {
  const Filter has = parse("has link");
  EXPECT_TRUE(has.matches(Event().with("link", "x")));
  EXPECT_FALSE(has.matches(Event().with("other", "x")));
  const Filter any = parse("link any");
  EXPECT_EQ(has, any);
  // `has` is the keyword only before a word other than `any` or `in`.
  EXPECT_EQ(parse("has any"), Filter().and_(exists("has")));
  EXPECT_EQ(parse("any any"), Filter().and_(exists("any")));
  EXPECT_EQ(parse("has in {1}"), Filter().and_(eq("has", 1)));
}

TEST(FilterParser, Booleans) {
  EXPECT_TRUE(parse("flag = true").matches(Event().with("flag", true)));
  EXPECT_FALSE(parse("flag = true").matches(Event().with("flag", false)));
  EXPECT_TRUE(parse("flag != false").matches(Event().with("flag", true)));
}

TEST(FilterParser, NumbersIntFloatNegativeExponent) {
  EXPECT_TRUE(parse("a = -5").matches(Event().with("a", -5)));
  EXPECT_TRUE(parse("a = 2.5").matches(Event().with("a", 2.5)));
  EXPECT_TRUE(parse("a < 1e3").matches(Event().with("a", 999)));
  EXPECT_TRUE(parse("a > -1.5e-2").matches(Event().with("a", 0)));
  EXPECT_EQ(parse("price > +5"), parse("price > 5"));
  EXPECT_EQ(parse("price > +5.5"), parse("price > 5.5"));
}

TEST(FilterParser, StringEscapes) {
  const Filter f = parse(R"(t = "say \"hi\"")");
  EXPECT_TRUE(f.matches(Event().with("t", "say \"hi\"")));
  const Filter b = parse(R"(t = "a\\b")");
  EXPECT_TRUE(b.matches(Event().with("t", "a\\b")));
}

TEST(FilterParser, InSetForms) {
  const Filter f = parse("sym in {\"ACME\", \"XYZ\"}");
  EXPECT_TRUE(f.matches(Event().with("sym", "ACME")));
  EXPECT_TRUE(f.matches(Event().with("sym", "XYZ")));
  EXPECT_FALSE(f.matches(Event().with("sym", "OTHER")));
  // Mixed member types; int/double members unify by numeric value.
  const Filter mixed = parse("p in {1, 2.5, \"x\", true}");
  EXPECT_TRUE(mixed.matches(Event().with("p", 1.0)));
  EXPECT_TRUE(mixed.matches(Event().with("p", 2.5)));
  EXPECT_TRUE(mixed.matches(Event().with("p", "x")));
  EXPECT_TRUE(mixed.matches(Event().with("p", true)));
  EXPECT_FALSE(mixed.matches(Event().with("p", 2)));
  // An empty set parses and matches nothing.
  const Filter empty = parse("sym in {}");
  EXPECT_FALSE(empty.matches(Event().with("sym", "ACME")));
  // A singleton canonicalizes to plain equality.
  EXPECT_EQ(parse("sym in {\"A\"}"), parse("sym = \"A\""));
  // Member order and duplicates don't affect identity.
  EXPECT_EQ(parse("s in {\"b\", \"a\", \"b\"}"), parse("s in {\"a\", \"b\"}"));
  // Whitespace-insensitive, and composable in conjunctions.
  EXPECT_EQ(parse("s in{\"a\",\"b\"}&&p<3"),
            parse("  s in { \"a\" , \"b\" }  &&  p < 3 "));
}

TEST(FilterParser, InSetErrors) {
  const auto expect_error = [](std::string_view text) {
    const ParseResult result = parse_filter(text);
    EXPECT_TRUE(std::holds_alternative<ParseError>(result)) << text;
  };
  expect_error("a in");            // missing set
  expect_error("a in 5");          // not a braced set
  expect_error("a in {");          // unclosed set
  expect_error("a in {1");         // unclosed set after member
  expect_error("a in {1,");        // dangling separator
  expect_error("a in {1,}");       // dangling separator before brace
  expect_error("a in {1 2}");      // missing separator
  expect_error("a in {bare}");     // unquoted string member
}

TEST(FilterParser, NullValueRoundTrips) {
  // A null value is constructible programmatically (e.g. a singleton
  // in-set collapsing onto an unsatisfiable equality); its rendering must
  // reparse to the same constraint.
  const Filter f = Filter().and_(eq("a", Value()));
  EXPECT_EQ(f.to_string(), "[a = null]");
  EXPECT_EQ(parse(f.to_string()), f);
}

TEST(FilterParser, DottedAttributeNames) {
  EXPECT_TRUE(parse("meta.source = \"cnn\"")
                  .matches(Event().with("meta.source", "cnn")));
}

TEST(FilterParser, WhitespaceInsensitive) {
  EXPECT_EQ(parse("a=1&&b=2"), parse("  a = 1   &&   b = 2  "));
}

TEST(FilterParser, EmptyFilterForm) {
  const Filter f = parse("[*]");
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.matches(Event()));
}

TEST(FilterParser, Errors) {
  const auto expect_error = [](std::string_view text) {
    const ParseResult result = parse_filter(text);
    EXPECT_TRUE(std::holds_alternative<ParseError>(result)) << text;
  };
  expect_error("");
  expect_error("= 5");
  expect_error("a 5");           // missing operator
  expect_error("a = ");          // missing value
  expect_error("a = bare");      // unquoted string
  expect_error("a = +");         // sign without digits
  expect_error("a = +-5");       // two signs
  expect_error("a = -true");     // signed word
  expect_error("a = \"open");    // unterminated string
  expect_error("a ! 5");         // bad operator
  expect_error("a = 5 &&");      // dangling conjunction
  expect_error("a = 5 extra");   // trailing input
  expect_error("has ");          // missing attribute
  expect_error("[a = 5");        // unclosed bracket
}

TEST(FilterParser, ErrorPositionsPointAtOffendingToken) {
  const ParseResult result = parse_filter("a = 5 && b ? 3");
  const auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_GE(err->position, 11u);
}

TEST(FilterParser, RoundTripThroughToString) {
  // Filters of every operator survive to_string -> parse -> equality.
  const std::vector<Filter> cases = {
      Filter(),
      Filter().and_(eq("a", 1)),
      Filter().and_(eq("s", "x")).and_(ne("s", "y")),
      Filter()
          .and_(ge("price", 10.5))
          .and_(lt("price", 99))
          .and_(prefix("u", "http://"))
          .and_(suffix("u", ".rss"))
          .and_(contains("t", "storm"))
          .and_(exists("link")),
      Filter().and_(eq("flag", true)).and_(ne("other", false)),
      Filter()
          .and_(in_("sym", {Value("ACME"), Value("XYZ")}))
          .and_(in_("p", {Value(1), Value(2.5), Value(true)}))
          .and_(in_("empty", {})),
      Filter().and_(lt("price", std::numeric_limits<double>::infinity())),
      Filter().and_(gt("price", -std::numeric_limits<double>::infinity())),
      // An attribute named like the `has` keyword, in every word form.
      Filter().and_(exists("has")),
      Filter().and_(eq("has", 1)),
      Filter().and_(in_("has", {Value("a"), Value(2)})),
      Filter().and_(exists("any")).and_(exists("in")),
  };
  for (const Filter& original : cases) {
    const Filter reparsed = parse(original.to_string());
    EXPECT_EQ(original, reparsed) << original.to_string();
  }
  // NaN != NaN, so a NaN bound never compares equal; compare keys.
  const Filter is_nan =
      Filter().and_(eq("price", std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(is_nan.to_string(), "[price = nan]");
  EXPECT_EQ(parse(is_nan.to_string()).key(), is_nan.key());
}

TEST(FilterParser, RoundTripEscapeHeavyStrings) {
  // Property: parse(f.to_string()) == f for filters over strings drawn
  // from an alphabet stacked with quotes, backslashes, braces, commas,
  // and spaces — every character the emitter or lexer could mishandle —
  // including empty patterns, across every string-valued operator.
  util::Rng rng(0xe5cabe);
  const std::string alphabet = "\"\\{},  ax";
  const auto fuzz_string = [&]() {
    std::string s;
    const std::size_t len = rng.index(9);  // 0..8: empty strings too
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.index(alphabet.size())]);
    }
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Constraint> cs;
    const std::size_t n = 1 + rng.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string attr(1, static_cast<char>('a' + rng.index(3)));
      switch (rng.index(7)) {
        case 0:
          cs.push_back(eq(attr, fuzz_string()));
          break;
        case 1:
          cs.push_back(ne(attr, fuzz_string()));
          break;
        case 2:
          cs.push_back(prefix(attr, fuzz_string()));
          break;
        case 3:
          cs.push_back(suffix(attr, fuzz_string()));
          break;
        case 4:
          cs.push_back(contains(attr, fuzz_string()));
          break;
        default: {
          std::vector<Value> members;
          const std::size_t count = rng.index(4);
          for (std::size_t j = 0; j < count; ++j) {
            members.emplace_back(fuzz_string());
          }
          cs.push_back(in_(attr, std::move(members)));
          break;
        }
      }
    }
    const Filter original(std::move(cs));
    const Filter reparsed = parse(original.to_string());
    EXPECT_EQ(original, reparsed) << original.to_string();
  }
}

TEST(FilterParser, RoundTripRandomFilters) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Constraint> cs;
    const std::size_t n = 1 + rng.index(4);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string attr(1, static_cast<char>('a' + rng.index(4)));
      switch (rng.index(5)) {
        case 0:
          cs.push_back(eq(attr, static_cast<std::int64_t>(rng.index(100))));
          break;
        case 1:
          cs.push_back(
              ge(attr, static_cast<double>(rng.index(100)) + 0.25));
          break;
        case 2:
          cs.push_back(contains(attr, "t" + std::to_string(rng.index(10))));
          break;
        case 3:
          cs.push_back(exists(attr));
          break;
        default:
          cs.push_back(ne(attr, rng.chance(0.5)));
          break;
      }
    }
    const Filter original(std::move(cs));
    EXPECT_EQ(original, parse(original.to_string()))
        << original.to_string();
  }
}

TEST(FilterParser, RoundTripRandomValuesAtNumericExtremes) {
  // Property: parse(f.to_string()) == f for filters whose values are
  // drawn from the nasty corners of both numeric types — subnormals,
  // huge magnitudes, negative zero, non-terminating fractions, and ints
  // past 2^53. Equality here is *typed*: a >2^53 int must come back as
  // that exact int, not its nearest double (the old %.6f renderer failed
  // this for any double smaller than 5e-7).
  util::Rng rng(987654321);
  constexpr std::int64_t kBig = 9007199254740992;  // 2^53
  const auto fuzz_value = [&rng]() -> Value {
    switch (rng.index(8)) {
      case 0:
        return Value(5e-324);  // min subnormal
      case 1:
        return Value(std::numeric_limits<double>::max());
      case 2:
        return Value(-0.0);
      case 3:
        return Value(1.0 / (1.0 + static_cast<double>(rng.index(9))));
      case 4:
        return Value(rng.uniform(-1e18, 1e18));
      case 5:
        return Value(kBig - 2 + static_cast<std::int64_t>(rng.index(5)));
      case 6:
        return Value(std::numeric_limits<std::int64_t>::min() +
                     static_cast<std::int64_t>(rng.index(3)));
      default:
        return Value(std::numeric_limits<std::int64_t>::max() -
                     static_cast<std::int64_t>(rng.index(3)));
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Constraint> cs;
    const std::size_t n = 1 + rng.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string attr(1, static_cast<char>('a' + rng.index(3)));
      switch (rng.index(4)) {
        case 0:
          cs.push_back(eq(attr, fuzz_value()));
          break;
        case 1:
          cs.push_back(ne(attr, fuzz_value()));
          break;
        case 2:
          cs.push_back(ge(attr, fuzz_value()));
          break;
        default:
          cs.push_back(lt(attr, fuzz_value()));
          break;
      }
    }
    const Filter original(std::move(cs));
    const Filter reparsed = parse(original.to_string());
    EXPECT_EQ(original, reparsed) << original.to_string();
  }
}

}  // namespace
}  // namespace reef::pubsub
