// Regression suite for the two Value-layer correctness bugs fixed alongside
// the range/prefix indexing work, pinned at the exact boundaries where they
// bit:
//
//   1. compare/equals/hash routed int64 through double, so 2^53 and
//      2^53 + 1 (which differ) compared equal — and every ordered index
//      built on Value::compare would have inherited the collapse.
//   2. to_string rendered doubles with %.6f, so 1.5e-7 printed "0.000000"
//      and 0.1234567 printed "0.123457", breaking the parser's documented
//      round-trip guarantee (filter_parser.h).
//
// The engine sweep at the bottom pins the downstream consequence: eq-bucket
// identity keys (canonical_numeric) must keep >2^53 ints distinct from
// their rounded double neighbors in every engine — bitset
// trusts bucket identity without re-evaluating the constraint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "pubsub/engines.h"
#include "pubsub/filter_parser.h"
#include "pubsub/matcher.h"

namespace reef::pubsub {
namespace {

constexpr std::int64_t kTwoPow53 = 9007199254740992;  // exactly a double
constexpr double kTwoPow53d = 9007199254740992.0;

TEST(Value, IntCompareIsExactPastDoublePrecision) {
  // 2^53 + 1 rounds to 2^53 as a double; the old double-routed compare
  // called these equal.
  EXPECT_EQ(Value::compare(Value(kTwoPow53 + 1), Value(kTwoPow53)),
            std::strong_ordering::greater);
  EXPECT_EQ(Value::compare(Value(kTwoPow53), Value(kTwoPow53 + 1)),
            std::strong_ordering::less);
  EXPECT_FALSE(Value(kTwoPow53 + 1).equals(Value(kTwoPow53)));
  EXPECT_TRUE(Value(kTwoPow53 + 1).equals(Value(kTwoPow53 + 1)));
  // Same at the negative boundary.
  EXPECT_EQ(Value::compare(Value(-kTwoPow53 - 1), Value(-kTwoPow53)),
            std::strong_ordering::less);
}

TEST(Value, IntDoubleCompareIsExactPastDoublePrecision) {
  // The double 2^53 equals the int 2^53 but is strictly below 2^53 + 1.
  EXPECT_EQ(Value::compare(Value(kTwoPow53), Value(kTwoPow53d)),
            std::strong_ordering::equal);
  EXPECT_EQ(Value::compare(Value(kTwoPow53 + 1), Value(kTwoPow53d)),
            std::strong_ordering::greater);
  EXPECT_EQ(Value::compare(Value(kTwoPow53d), Value(kTwoPow53 + 1)),
            std::strong_ordering::less);
  // Fractional parts order correctly against huge ints.
  EXPECT_EQ(Value::compare(Value(5), Value(5.5)),
            std::strong_ordering::less);
  EXPECT_EQ(Value::compare(Value(-5), Value(-5.5)),
            std::strong_ordering::greater);
}

TEST(Value, IntDoubleCompareAtInt64Extremes) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr double kTwoPow63d = 9223372036854775808.0;
  // INT64_MAX < 2^63 (the double INT64_MAX rounds up to); INT64_MIN is
  // exactly representable. Neither comparison may overflow or invoke UB —
  // the UBSan CI job rides on this.
  EXPECT_EQ(Value::compare(Value(kMax), Value(kTwoPow63d)),
            std::strong_ordering::less);
  EXPECT_EQ(Value::compare(Value(kMax), Value(1e300)),
            std::strong_ordering::less);
  EXPECT_EQ(Value::compare(Value(kMin), Value(-kTwoPow63d)),
            std::strong_ordering::equal);
  EXPECT_EQ(Value::compare(Value(kMin), Value(-1e300)),
            std::strong_ordering::greater);
  EXPECT_EQ(Value::compare(Value(kMax),
                           Value(-std::numeric_limits<double>::infinity())),
            std::strong_ordering::greater);
  EXPECT_EQ(Value::compare(Value(kMin),
                           Value(std::numeric_limits<double>::infinity())),
            std::strong_ordering::less);
  EXPECT_FALSE(Value::compare(Value(kMax),
                              Value(std::nan("")))
                   .has_value());
}

TEST(Value, ExactDoubleOfInt) {
  EXPECT_EQ(Value::exact_double_of_int(3), 3.0);
  EXPECT_EQ(Value::exact_double_of_int(kTwoPow53), kTwoPow53d);
  EXPECT_FALSE(Value::exact_double_of_int(kTwoPow53 + 1).has_value());
  EXPECT_FALSE(
      Value::exact_double_of_int(std::numeric_limits<std::int64_t>::max())
          .has_value());
  EXPECT_TRUE(
      Value::exact_double_of_int(std::numeric_limits<std::int64_t>::min())
          .has_value());
}

TEST(Value, HashStaysConsistentWithExactEquality) {
  // 3 == 3.0 must keep hashing equal (cross-type eq buckets)...
  EXPECT_EQ(Value(3).hash(), Value(3.0).hash());
  EXPECT_EQ(Value(kTwoPow53).hash(), Value(kTwoPow53d).hash());
  // ...while 2^53 + 1 != 2^53 must stop hashing onto the same bucket (the
  // old double-routed hash collided them; with the exact compare that was
  // a correctness bug, not just a collision).
  EXPECT_NE(Value(kTwoPow53 + 1).hash(), Value(kTwoPow53).hash());
  EXPECT_NE(Value(kTwoPow53 + 1).hash(), Value(kTwoPow53d).hash());
}

TEST(Value, CanonicalNumericKeepsInexactIntsDistinct) {
  // Exactly-representable ints still fold onto their double image...
  EXPECT_EQ(canonical_numeric(Value(3)), Value(3.0));
  EXPECT_EQ(canonical_numeric(Value(kTwoPow53)), Value(kTwoPow53d));
  // ...but past 2^53 the int keeps its own bucket identity.
  EXPECT_EQ(canonical_numeric(Value(kTwoPow53 + 1)), Value(kTwoPow53 + 1));
}

TEST(Value, EqBucketIdentityIsExactInEveryEngine) {
  for (const std::string_view engine : kBuiltinEngines) {
    const auto m = make_matcher(engine);
    const std::string name(engine);
    m->add(1, Filter().and_(eq("p", kTwoPow53 + 1)));
    m->add(2, Filter().and_(eq("p", kTwoPow53)));
    EXPECT_EQ(m->match(Event().with("p", kTwoPow53 + 1)),
              (std::vector<SubscriptionId>{1}))
        << name;
    EXPECT_EQ(m->match(Event().with("p", kTwoPow53)),
              (std::vector<SubscriptionId>{2}))
        << name;
    // The double 2^53 equals the int 2^53 — and only it.
    EXPECT_EQ(m->match(Event().with("p", kTwoPow53d)),
              (std::vector<SubscriptionId>{2}))
        << name;
  }
}

TEST(Value, RangeSemanticsAreExactInEveryEngine) {
  for (const std::string_view engine : kBuiltinEngines) {
    const auto m = make_matcher(engine);
    const std::string name(engine);
    m->add(1, Filter().and_(gt("p", kTwoPow53)));
    EXPECT_EQ(m->match(Event().with("p", kTwoPow53 + 1)),
              (std::vector<SubscriptionId>{1}))
        << name;
    EXPECT_TRUE(m->match(Event().with("p", kTwoPow53)).empty()) << name;
    EXPECT_TRUE(m->match(Event().with("p", kTwoPow53d)).empty()) << name;
  }
}

TEST(Value, DoubleToStringRoundTrips) {
  // The two values from the bug report: %.6f rendered them "0.000000" and
  // "0.123457".
  EXPECT_EQ(Value(1.5e-7).to_string(), "1.5e-07");
  EXPECT_EQ(Value(0.1234567).to_string(), "0.1234567");
  // Integral doubles keep a float marker so they re-parse as doubles, not
  // ints (the parser's round-trip guarantee is *typed*).
  EXPECT_EQ(Value(3.0).to_string(), "3.0");
  EXPECT_EQ(Value(-2.0).to_string(), "-2.0");
  EXPECT_EQ(Value(12.5).to_string(), "12.5");
  EXPECT_EQ(Value(1e100).to_string(), "1e+100");
}

TEST(Value, DoubleToStringRoundTripsThroughTheParser) {
  for (const double v :
       {1.5e-7, 0.1234567, 3.0, -0.0, 5e-324 /* min subnormal */,
        std::numeric_limits<double>::max(), 1.0 / 3.0, 12.5}) {
    const Filter f = Filter().and_(eq("p", Value(v)));
    const Filter reparsed = parse_filter_or_throw(f.to_string());
    EXPECT_EQ(reparsed, f) << f.to_string();
  }
  // >2^53 ints round-trip as ints, not doubles.
  const Filter f = Filter().and_(eq("p", Value(kTwoPow53 + 1)));
  EXPECT_EQ(parse_filter_or_throw(f.to_string()), f) << f.to_string();
}

}  // namespace
}  // namespace reef::pubsub
