// AttrTable (interned attribute names) and the interned-Event invariants.
//
// Three contracts live here:
//   1. AttrTable concurrency: lookup()/name() are lock-free and safe while
//      other threads intern() — the racing test below runs under the TSan
//      CI job, which is the real assertion.
//   2. Event canonicalization: interning and the flat sorted-by-AttrId
//      storage must not change a single observable byte — to_string,
//      wire_size, and equality are pinned against golden values computed
//      from the original std::map<std::string, Value> representation.
//   3. Event value semantics: copies share one attribute block, and a
//      write through any handle (copy-on-write) leaves every other handle
//      and its cached wire size as it was.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pubsub/attr_table.h"
#include "pubsub/engines.h"
#include "pubsub/event.h"
#include "pubsub/matcher.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

TEST(AttrTable, InternIsIdempotentAndLookupAgrees) {
  AttrTable& table = AttrTable::instance();
  const AttrId a = table.intern("attr_table_test_alpha");
  const AttrId b = table.intern("attr_table_test_beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("attr_table_test_alpha"), a);
  EXPECT_EQ(table.lookup("attr_table_test_alpha"), a);
  EXPECT_EQ(table.name(a), "attr_table_test_alpha");
  EXPECT_EQ(table.name(b), "attr_table_test_beta");
  EXPECT_EQ(table.lookup("attr_table_test_never_interned"), kNoAttrId);
}

TEST(AttrTable, IdsAreDenseAndStable) {
  AttrTable& table = AttrTable::instance();
  const std::size_t before = table.size();
  const AttrId fresh = table.intern("attr_table_test_dense_probe");
  if (static_cast<std::size_t>(fresh) < before) {
    // Re-interned from an earlier test run in this process; fine.
    EXPECT_EQ(table.size(), before);
  } else {
    EXPECT_EQ(static_cast<std::size_t>(fresh), before);
    EXPECT_EQ(table.size(), before + 1);
  }
}

/// The TSan-facing race: writers intern overlapping and distinct name
/// sets (forcing both hash-index growth and chunk allocation) while
/// readers hammer lookup()/name() on everything interned so far. Run by
/// the tsan CI job; without sanitizers it still checks id agreement.
TEST(AttrTable, ConcurrentInternAndLookupAgree) {
  AttrTable& table = AttrTable::instance();
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kNamesPerWriter = 600;  // enough to grow the index

  const auto name_of = [](int writer, int i) {
    // Half the namespace is shared across writers (contended interning of
    // the same name must converge on one id), half is private.
    if (i % 2 == 0) return "attr_race_shared_" + std::to_string(i);
    return "attr_race_w" + std::to_string(writer) + "_" + std::to_string(i);
  };

  std::vector<std::vector<AttrId>> ids(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ids[w].reserve(kNamesPerWriter);
      for (int i = 0; i < kNamesPerWriter; ++i) {
        const AttrId id = table.intern(name_of(w, i));
        ids[w].push_back(id);
        // Immediately readable on the interning thread.
        ASSERT_EQ(table.lookup(name_of(w, i)), id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        // lookup() of any name is always either kNoAttrId (not yet
        // interned) or an id whose name() round-trips.
        for (int i = 0; i < kNamesPerWriter; i += 7) {
          const std::string probe = "attr_race_shared_" + std::to_string(i);
          const AttrId id = table.lookup(probe);
          if (id != kNoAttrId) {
            ASSERT_EQ(table.name(id), probe);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // All writers agree on the shared names' ids.
  for (int i = 0; i < kNamesPerWriter; i += 2) {
    const AttrId expected = ids[0][i];
    for (int w = 1; w < kWriters; ++w) {
      ASSERT_EQ(ids[w][i], expected) << "writer " << w << " name " << i;
    }
  }
  // Every interned name survives with a distinct id.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kNamesPerWriter; ++i) {
      ASSERT_EQ(table.name(ids[w][i]), name_of(w, i));
    }
  }
}

// --- Event canonicalization regression ---------------------------------------

/// Golden values computed from the pre-interning representation
/// (std::map<std::string, Value>): name-ordered text, per-attribute
/// 2 + name.size() + value.wire_size() bytes over a 16-byte envelope.
TEST(EventCanonicalization, ToStringMatchesPreInterningGolden) {
  EXPECT_EQ(Event().to_string(), "{}");
  EXPECT_EQ(Event().with("symbol", "ACME").with("price", 12.5).to_string(),
            "{price=12.5, symbol=\"ACME\"}");
  // Name order, not insertion or interning order: "zzz" is interned
  // before "aaa" here, yet prints last.
  EXPECT_EQ(Event()
                .with("zzz_canon_test", 1)
                .with("aaa_canon_test", 2)
                .to_string(),
            "{aaa_canon_test=2, zzz_canon_test=1}");
  EXPECT_EQ(Event()
                .with("flag", true)
                .with("count", static_cast<std::int64_t>(42))
                .with("note", "hi")
                .to_string(),
            "{count=42, flag=true, note=\"hi\"}");
}

TEST(EventCanonicalization, WireSizeMatchesPreInterningGolden) {
  EXPECT_EQ(Event().wire_size(), 16u);
  // {price=12.5, symbol="ACME"}:
  //   16 + (2 + 5 + 8) + (2 + 6 + 4 + 4) = 47
  EXPECT_EQ(Event().with("symbol", "ACME").with("price", 12.5).wire_size(),
            47u);
  // {seq=7}: 16 + (2 + 3 + 8) = 29
  EXPECT_EQ(Event().with("seq", static_cast<std::int64_t>(7)).wire_size(),
            29u);
}

TEST(EventCanonicalization, EqualityAndOverwriteSemantics) {
  const Event a = Event().with("x", 1).with("y", "v");
  const Event b = Event().with("y", "v").with("x", 1);  // insertion order
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == Event().with("x", 1));
  // insert_or_assign: the last write wins, no duplicate attribute.
  const Event c = Event().with("x", 1).with("x", 2);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c, Event().with("x", 2));
  // Strict container equality distinguishes int from double (as the
  // original map did via the variant), even though matching treats them
  // as equal values.
  EXPECT_FALSE(Event().with("x", 3) == Event().with("x", 3.0));
}

TEST(EventCanonicalization, FindByNameAndById) {
  const Event e = Event().with("stream", "feed").with("seq", 9);
  ASSERT_NE(e.find("stream"), nullptr);
  EXPECT_EQ(e.find("stream")->as_string(), "feed");
  EXPECT_EQ(e.find("absent-name-xyzzy"), nullptr);
  const AttrId seq_id = AttrTable::instance().lookup("seq");
  ASSERT_NE(seq_id, kNoAttrId);
  ASSERT_NE(e.find(seq_id), nullptr);
  EXPECT_EQ(e.find(seq_id)->as_int(), 9);
}

// --- Event value semantics over the shared attribute block -------------------

/// Copies share one block (event.h); with() on a copy must clone it first,
/// so nothing observable about the original moves.
TEST(EventValueSemantics, MutatingACopyLeavesTheOriginalUnchanged) {
  const Event original =
      Event().with("symbol", "ACME").with("price", 12.5).with("note", "hi");
  const std::string text = original.to_string();
  const std::size_t wire = original.wire_size();
  const auto attrs = original.attrs();
  const Event snapshot = Event().with("note", "hi").with("symbol", "ACME")
                             .with("price", 12.5);
  ASSERT_EQ(original, snapshot);

  Event added = original;
  EXPECT_EQ(&added.attrs(), &original.attrs());  // shared until written
  added.with("value_semantics_extra", 7);
  Event overwritten = original;
  overwritten.with("note", "a much longer note than before");
  Event bool_for_string = original;
  bool_for_string.with("symbol", true);

  for (const Event* copy : {&added, &overwritten, &bool_for_string}) {
    EXPECT_NE(&copy->attrs(), &original.attrs());
    EXPECT_FALSE(*copy == original) << copy->to_string();
  }
  EXPECT_EQ(added.size(), original.size() + 1);
  EXPECT_EQ(overwritten.size(), original.size());
  EXPECT_EQ(overwritten.wire_size(), wire + 30 - 2);
  EXPECT_EQ(bool_for_string.wire_size(), wire - (4 + 4) + 1);
  EXPECT_EQ(original.attrs(), attrs);
  EXPECT_EQ(original.to_string(), text);
  EXPECT_EQ(original.wire_size(), wire);
  EXPECT_EQ(original, snapshot);
}

TEST(EventValueSemantics, MovedFromEventReadsAsEmpty) {
  Event source = Event().with("stream", "feed").with("seq", 3);
  const Event target = std::move(source);
  EXPECT_EQ(target.size(), 2u);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the test.
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.attrs().empty());
  EXPECT_EQ(source.find("stream"), nullptr);
  EXPECT_EQ(source.to_string(), "{}");
  EXPECT_EQ(source.wire_size(), Event().wire_size());
  EXPECT_EQ(source, Event());
  // A moved-from event is reusable.
  source.with("stream", "video");
  EXPECT_EQ(source.to_string(), "{stream=\"video\"}");
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(target.find("stream")->as_string(), "feed");
}

/// The wire size is cached and updated incrementally by every with(); it
/// must equal the golden formula 16 + sum(2 + name + value.wire_size())
/// recomputed from scratch, on every event of a pool grown by random
/// copies and by random builds and overwrites of any member (writes to a
/// member that shares its block with others go through the clone).
TEST(EventValueSemantics, CachedWireSizeMatchesGoldenFormula) {
  const auto golden = [](const Event& event) {
    std::size_t bytes = 16;
    for (const auto& [id, value] : event.attrs()) {
      bytes += 2 + AttrTable::instance().name(id).size() + value.wire_size();
    }
    return bytes;
  };
  const std::vector<std::string> names{"wire_a", "wire_bb", "wire_ccc",
                                       "wire_dddd", "text"};
  util::Rng rng(0x3e7ca5e);
  const auto random_value = [&rng]() -> Value {
    switch (rng.index(5)) {
      case 0: return Value();
      case 1: return rng.chance(0.5);
      case 2: return static_cast<std::int64_t>(rng.index(1000));
      case 3: return rng.uniform(0.0, 1.0);
      default: return std::string(rng.index(40), 'x');
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Event> pool(1);
    const std::size_t steps = 1 + rng.index(32);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t pick = rng.index(pool.size());
      if (rng.chance(0.3)) {
        Event copy = pool[pick];
        pool.push_back(std::move(copy));
        continue;
      }
      pool[pick].with(names[rng.index(names.size())], random_value());
    }
    for (const Event& event : pool) {
      EXPECT_EQ(event.wire_size(), golden(event))
          << "trial " << trial << " " << event.to_string();
    }
  }
}

// --- contiguous sub-spans ---------------------------------------------------

/// A contiguous sub-span must produce, per engine, exactly the hit lists
/// the full batch produces at those positions, without copying an Event —
/// the invariant the routing table's worker split rests on.
TEST(BatchSubSpan, MatchesFullBatchPositionsForEveryEngine) {
  std::vector<Event> events;
  events.push_back(Event().with("stream", "feed").with("feed", 1));
  events.push_back(Event());  // attribute-free
  events.push_back(Event().with("stream", "feed").with("feed", 2));
  events.push_back(Event().with("price", 30.0));
  events.push_back(Event().with("stream", "feed").with("feed", 1)
                       .with("price", 5.0));

  std::vector<Filter> filters;
  filters.push_back(Filter().and_(eq("stream", "feed")).and_(eq("feed", 1)));
  filters.push_back(Filter().and_(ge("price", 10.0)));
  filters.push_back(Filter());  // universal
  filters.push_back(Filter().and_(exists("feed")));

  for (const std::string_view name : kBuiltinEngines) {
    const auto engine = make_matcher(name);
    const std::string engine_name(name);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      engine->add(i + 1, filters[i]);
    }
    std::vector<std::vector<SubscriptionId>> full;
    engine->match_batch(events, full);
    ASSERT_EQ(full.size(), events.size()) << engine_name;

    for (std::size_t begin = 0; begin < events.size(); ++begin) {
      for (std::size_t end = begin; end <= events.size(); ++end) {
        const std::uint64_t copies_before = Event::copy_count();
        std::vector<std::vector<SubscriptionId>> sub;
        engine->match_batch(
            std::span<const Event>(events).subspan(begin, end - begin), sub);
        EXPECT_EQ(Event::copy_count(), copies_before)
            << engine_name << " copied events matching a sub-span";
        ASSERT_EQ(sub.size(), end - begin) << engine_name;
        for (std::size_t j = 0; j < sub.size(); ++j) {
          EXPECT_EQ(sub[j], full[begin + j])
              << engine_name << " span [" << begin << ", " << end
              << ") position " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace reef::pubsub
