// Cross-engine differential fuzz harness.
//
// A seeded generator produces adversarial filter/event/churn *schedules*
// and replays each one through every matching-engine configuration —
// built-in engines crossed with {shard 1/4} x {workers 0/4} — asserting
// byte-identical behavior against the brute-force oracle at five levels:
//
//   1. Matcher level: match sets (per event, sorted) after every publish
//      op, from both match_batch and match.
//   2. Broker/sim level: full overlay runs where every configuration must
//      reproduce the oracle's delivery trace and sim::Network traffic
//      counters byte for byte.
//   3. Flush-budget level: the broker's adaptive flush policy
//      (Broker::Config::flush_max_{events,bytes,delay_ticks}) crossed
//      with engines, asserting delivery sets and every traffic counter
//      against the per-tick oracle, and exact trace equality for every
//      zero-delay budget configuration.
//   4. Fault level: a seeded crash/partition/loss schedule is interleaved
//      with the op schedule (reliable control + heartbeats on), every
//      fault heals before a quiesce point, and from there the run must be
//      indistinguishable from a never-faulted oracle: per-broker routing
//      fingerprints identical at the quiesce point (zero lost
//      control-plane ops), post-heal delivery sets identical, no stuck
//      quarantines — across engines x shards x workers x flush budgets.
//   5. Scored level: every subscription carries a deterministic
//      ScoringSpec cycling the {constant, bm25} x {top_k 0/1/4} x
//      {min_score 0/0.5} grid; a *software* scored oracle (brute-force
//      matching + score_event + an independent top-k implementation)
//      predicts the exact scored delivery lines and the broker suppression
//      counters, and every engine x shards x workers x flush-budget
//      configuration must reproduce them byte for byte. A separate
//      neutral-property run pins scoring_enabled=true with all-neutral
//      specs to the scoring-disabled trace, byte for byte.
//
// ## Schedule format (add your engine to the oracle matrix)
//
// A Schedule is an ordered list of FuzzOp, each one of:
//   kSubscribe   {slot, filter} — register `filter` for subscriber `slot`.
//                Replay assigns SubscriptionIds sequentially and pushes
//                them on the slot's stack.
//   kUnsubscribe {slot}         — retract the slot's most recent live
//                subscription (no-op if the slot has none; the no-op is
//                part of the schedule semantics, so every engine sees the
//                same state).
//   kPublish    {slot, events}  — match (matcher level) or publish_batch
//                (sim level) the event bundle.
//
// The generator stresses the known engine failure modes: hot-attribute
// skew (many filters sharing one equality attribute, so a few shared eq
// entries carry a large share of the slots), anchorless/universal filters
// (empty conjunction — spill-shard placement, covers everything in the
// forwarding reduction),
// attribute-free events (match only universal filters; must still meet
// them in the sharded layer's spill shard), covering chains
// (nested price ranges, so the covering reduction churns as they come and
// go), range-heavy filters (int and double bounds colliding at the same
// magnitudes, so the sorted-bounds indexes are probed exactly on their
// strict/inclusive edges), prefix/suffix/contains pattern tables at many
// lengths (including the empty pattern and escape-laden patterns), the
// Reef content shape (one eq value shared by every filter of the shape,
// plus patterns over long multi-term texts with shared bigrams and
// high-bit bytes),
// set-membership filters over a small overlapping symbol universe with
// mixed-type members and the occasional empty set, and 2^53-boundary
// values where int/double comparison must stay exact.
// Every level iterates kBuiltinEngines (engines.h) — the matcher level
// both bare and through the shard/worker cross product — so an engine
// added to that list inherits the whole oracle matrix with no edit here.
//
// ctest runs 3 fixed seeds (fast tier-1); CI's fuzz job sets
// REEF_FUZZ_SEED_COUNT=25 for the nightly-strength sweep. Seeds are
// derived deterministically, so any failure reproduces locally with the
// same count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine_variants.h"
#include "pubsub/client.h"
#include "pubsub/engines.h"
#include "pubsub/overlay.h"
#include "pubsub/sharded_matcher.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

constexpr std::size_t kSlots = 5;

// --- schedule generation -----------------------------------------------------

struct FuzzOp {
  enum class Kind { kSubscribe, kUnsubscribe, kPublish };
  Kind kind = Kind::kSubscribe;
  std::size_t slot = 0;
  Filter filter;              // kSubscribe
  std::vector<Event> events;  // kPublish
};

struct Schedule {
  std::vector<FuzzOp> ops;
};

/// Reef content shape (see cases 12-13 of fuzz_filter): terms of the long
/// multi-term texts, and the patterns filters take from them. Terms share
/// leading bigrams ("te", "ca") and carry high-bit bytes; patterns add the
/// empty one, single bytes, phrases across a word boundary, and one longer
/// than any text.
constexpr const char* kBodyTerms[] = {"term", "terms", "team", "tea",
                                      "ate",  "eat",   "cafe", "caf\xc3\xa9",
                                      "a",    "ab",    "bc",   "\xff\xfe"};
const std::vector<std::string>& body_patterns() {
  static const std::vector<std::string> patterns = [] {
    std::vector<std::string> p(std::begin(kBodyTerms), std::end(kBodyTerms));
    for (const std::string extra :
         {"", "t", "\xc3", "m te", "tea term", "s ate", "e\xc3"}) {
      p.push_back(extra);
    }
    p.push_back(std::string(400, 'a'));
    return p;
  }();
  return patterns;
}

/// A 10-40 term text over kBodyTerms: every pattern repeats and overlaps
/// somewhere across the population of such texts.
std::string body_text(util::Rng& rng) {
  std::string text;
  const std::size_t terms = 10 + rng.index(31);
  for (std::size_t t = 0; t < terms; ++t) {
    if (t != 0) text += ' ';
    text += kBodyTerms[rng.index(std::size(kBodyTerms))];
  }
  return text;
}

Filter fuzz_filter(util::Rng& rng) {
  switch (rng.index(15)) {
    case 0:
      // Anchorless universal subscription: spill-shard placement, and the
      // covering reduction collapses everything else beneath it.
      return Filter();
    case 1:
    case 2: {
      // Hot-attribute skew: a large share of filters carries the same
      // equality attribute with only two values, so those two shared eq
      // entries hold a large share of the slots.
      Filter f =
          Filter().and_(eq("hot", static_cast<std::int64_t>(rng.index(2))));
      if (rng.chance(0.5)) {
        f.and_(eq("user", static_cast<std::int64_t>(rng.index(40))));
      }
      if (rng.chance(0.3)) {
        f.and_(ge("score", static_cast<std::int64_t>(rng.index(8))));
      }
      return f;
    }
    case 3: {
      // Covering chains: nested price ranges, so subscribe/unsubscribe
      // churn keeps flipping which filter is the maximal element.
      const double lo = 10.0 * static_cast<double>(rng.index(4));
      Filter f = Filter().and_(ge("price", lo));
      if (rng.chance(0.6)) {
        f.and_(lt("price", lo + 10.0 * static_cast<double>(1 + rng.index(3))));
      }
      return f;
    }
    case 4:
      return Filter()
          .and_(eq("stream", "feed"))
          .and_(eq("feed", static_cast<std::int64_t>(rng.index(6))));
    case 5:
      switch (rng.index(3)) {
        case 0:
          return Filter().and_(prefix("text", rng.chance(0.5) ? "a" : "ab"));
        case 1:
          return Filter().and_(contains("text", "bc"));
        default:
          return Filter().and_(suffix("text", "c"));
      }
    case 6:
      return Filter().and_(
          exists(rng.chance(0.5) ? "price" : "hot"));
    case 7: {
      // Range-heavy: eq-free filters that index in the sorted bound
      // arrays, with int and double bounds interleaved at the same small
      // magnitudes so strict/inclusive edges collide across types — plus
      // an occasional string bound that must stay on the residual
      // predicate path.
      const auto bound = [&rng]() -> Value {
        const auto b = static_cast<std::int64_t>(rng.index(6));
        return rng.chance(0.5) ? Value(b) : Value(static_cast<double>(b));
      };
      Filter f;
      switch (rng.index(5)) {
        case 0:
          f.and_(gt("level", bound()));
          break;
        case 1:
          f.and_(ge("level", bound()));
          break;
        case 2:
          f.and_(lt("level", bound()));
          break;
        case 3:
          f.and_(le("level", bound()));
          break;
        default:
          f.and_(gt("text", "m"));  // string bound: residual list
          break;
      }
      if (rng.chance(0.4)) f.and_(le("level", bound()));
      return f;
    }
    case 8: {
      // Prefix-heavy: patterns at several lengths over one attribute, so
      // the per-length probe loop sees dense collisions (including the
      // empty pattern, which every string value satisfies).
      static constexpr const char* kPatterns[] = {"",     "/",      "/a",
                                                  "/a/b", "/a/b/c", "/b", "x"};
      Filter f = Filter().and_(prefix("path", kPatterns[rng.index(7)]));
      if (rng.chance(0.3)) f.and_(prefix("path", kPatterns[rng.index(7)]));
      return f;
    }
    case 9: {
      // 2^53 boundary: bounds where a double-routed compare collapses
      // adjacent int values, mixing the exactly-representable double in.
      constexpr std::int64_t kBig = 9007199254740992;  // 2^53
      const Value bound =
          rng.chance(0.4)
              ? Value(9007199254740992.0)
              : Value(kBig - 1 + static_cast<std::int64_t>(rng.index(3)));
      switch (rng.index(3)) {
        case 0:
          return Filter().and_(eq("big", bound));
        case 1:
          return Filter().and_(gt("big", bound));
        default:
          return Filter().and_(le("big", bound));
      }
    }
    case 10: {
      // Set membership over a small symbol universe: heavy member overlap
      // across filters (shared per-member buckets / shared residual
      // entries), mixed-type member lists whose int/double members must
      // collapse, and the occasional empty set, which matches nothing —
      // every engine must agree on the silence.
      static constexpr const char* kSyms[] = {"A", "B", "C", "D"};
      std::vector<Value> members;
      const std::size_t count = rng.index(4);  // 0..3: empty sets too
      for (std::size_t j = 0; j < count; ++j) {
        if (rng.chance(0.5)) {
          members.emplace_back(kSyms[rng.index(4)]);
        } else if (rng.chance(0.5)) {
          members.emplace_back(static_cast<std::int64_t>(rng.index(4)));
        } else {
          members.emplace_back(static_cast<double>(rng.index(4)));
        }
      }
      Filter f = Filter().and_(in_("sym", std::move(members)));
      if (rng.chance(0.3)) {
        f.and_(ge("price", static_cast<double>(rng.index(30))));
      }
      return f;
    }
    case 11: {
      // Suffix/contains-heavy: patterns at several lengths over one
      // attribute — nested tails sharing reversed-prefix structure, the
      // empty pattern (every string satisfies it), and escape-laden
      // patterns (quotes/backslashes) that stress filter-key rendering
      // everywhere filters travel as strings.
      static constexpr const char* kTails[] = {"",   "g",    "og",  "log",
                                               ".rss", "\"q\"", "a\\b"};
      Filter f;
      if (rng.chance(0.5)) {
        f.and_(suffix("file", kTails[rng.index(7)]));
      } else {
        f.and_(contains("file", kTails[rng.index(7)]));
      }
      if (rng.chance(0.3)) f.and_(suffix("file", kTails[rng.index(7)]));
      if (rng.chance(0.2)) f.and_(contains("file", kTails[rng.index(7)]));
      return f;
    }
    case 12:
    case 13: {
      // Reef content shape: the eq value every filter of the shape shares
      // (so its one eq entry holds them all) plus prefix/suffix/contains
      // patterns over long multi-term texts — the shape the one-pass
      // contains probe tests.
      const auto& patterns = body_patterns();
      const auto pattern = [&] { return patterns[rng.index(patterns.size())]; };
      Filter f = Filter().and_(eq("stream", "feed"));
      switch (rng.index(4)) {
        case 0:
          f.and_(prefix("body", pattern()));
          break;
        case 1:
          f.and_(suffix("body", pattern()));
          break;
        default:
          f.and_(contains("body", pattern()));
          break;
      }
      if (rng.chance(0.3)) f.and_(contains("body", pattern()));
      return f;
    }
    default: {
      Filter f = Filter().and_(exists("text"));
      if (rng.chance(0.5)) {
        f.and_(ge("price", static_cast<double>(rng.index(30))));
      }
      if (rng.chance(0.5)) {
        f.and_(eq("hot", static_cast<std::int64_t>(rng.index(2))));
      }
      return f;
    }
  }
}

Event fuzz_event(util::Rng& rng, int seq) {
  switch (rng.index(14)) {
    case 0:
      // Attribute-free: matches only universal filters; the shard
      // pre-filter must still route it to the spill shard.
      return Event();
    case 1:
    case 2:
    case 3: {
      Event e = Event()
                    .with("hot", static_cast<std::int64_t>(rng.index(2)))
                    .with("user", static_cast<std::int64_t>(rng.index(40)))
                    .with("seq", static_cast<std::int64_t>(seq));
      if (rng.chance(0.4)) {
        e.with("score", static_cast<std::int64_t>(rng.index(8)));
      }
      return e;
    }
    case 4:
      return Event()
          .with("stream", "feed")
          .with("feed", static_cast<std::int64_t>(rng.index(6)))
          .with("seq", static_cast<std::int64_t>(seq));
    case 5:
      return Event()
          .with("price", rng.uniform(0.0, 50.0))
          .with("seq", static_cast<std::int64_t>(seq));
    case 6:
      return Event()
          .with("text", rng.chance(0.5) ? "abc" : "xbc")
          .with("seq", static_cast<std::int64_t>(seq));
    case 7: {
      // Range/prefix dimension: level values landing exactly on the
      // fuzzed bounds (ints and halves, both numeric types) plus
      // multi-length path strings probing every pattern length.
      Event e = Event().with("seq", static_cast<std::int64_t>(seq));
      if (rng.chance(0.7)) {
        if (rng.chance(0.5)) {
          e.with("level", static_cast<std::int64_t>(rng.index(6)));
        } else {
          e.with("level", 0.5 * static_cast<double>(rng.index(12)));
        }
      }
      if (rng.chance(0.7)) {
        static constexpr const char* kPaths[] = {"",     "/",      "/a",
                                                 "/a/b", "/a/b/c", "/b/x", "x"};
        e.with("path", kPaths[rng.index(7)]);
      }
      return e;
    }
    case 8: {
      // 2^53 boundary probes: int neighbors a double-routed compare
      // collapses, plus the exactly-representable double itself.
      constexpr std::int64_t kBig = 9007199254740992;
      Event e = Event().with("seq", static_cast<std::int64_t>(seq));
      if (rng.chance(0.5)) {
        e.with("big", kBig - 1 + static_cast<std::int64_t>(rng.index(3)));
      } else {
        e.with("big", 9007199254740992.0);
      }
      return e;
    }
    case 9: {
      // Set-membership probes: symbol values from the fuzzed member
      // universe in every representation (string, int, double), so a hit
      // lands in exactly one canonical member bucket.
      static constexpr const char* kSyms[] = {"A", "B", "C", "D", "E"};
      Event e = Event().with("seq", static_cast<std::int64_t>(seq));
      if (rng.chance(0.5)) {
        e.with("sym", kSyms[rng.index(5)]);
      } else if (rng.chance(0.5)) {
        e.with("sym", static_cast<std::int64_t>(rng.index(5)));
      } else {
        e.with("sym", static_cast<double>(rng.index(5)));
      }
      if (rng.chance(0.4)) e.with("price", rng.uniform(0.0, 50.0));
      return e;
    }
    case 10: {
      // Suffix/contains probes: strings whose tails and interiors land on
      // the fuzzed pattern set, plus empty and escape-laden values.
      static constexpr const char* kFiles[] = {
          "",     "g",   "og",       "log",  "blog", "a.rss",
          "gol",  "x",   "say \"q\"", "a\\b", "ba\\bx"};
      return Event()
          .with("file", kFiles[rng.index(11)])
          .with("seq", static_cast<std::int64_t>(seq));
    }
    case 11:
    case 12:
      // Reef content probes: a feed item with a long multi-term body.
      return Event()
          .with("stream", "feed")
          .with("feed", static_cast<std::int64_t>(rng.index(6)))
          .with("body", body_text(rng))
          .with("seq", static_cast<std::int64_t>(seq));
    default:
      return Event()
          .with("text", "ab")
          .with("price", static_cast<double>(rng.index(40)))
          .with("hot", static_cast<std::int64_t>(rng.index(2)))
          .with("seq", static_cast<std::int64_t>(seq));
  }
}

Schedule make_schedule(std::uint64_t seed, std::size_t op_count) {
  util::Rng rng(seed);
  Schedule schedule;
  schedule.ops.reserve(op_count);
  int seq = 0;
  for (std::size_t i = 0; i < op_count; ++i) {
    FuzzOp op;
    op.slot = rng.index(kSlots);
    const double roll = rng.uniform01();
    if (i < 8 || roll < 0.40) {
      op.kind = FuzzOp::Kind::kSubscribe;
      op.filter = fuzz_filter(rng);
    } else if (roll < 0.62) {
      op.kind = FuzzOp::Kind::kUnsubscribe;
    } else {
      op.kind = FuzzOp::Kind::kPublish;
      const std::size_t bundle = 1 + rng.index(8);
      for (std::size_t e = 0; e < bundle; ++e) {
        op.events.push_back(fuzz_event(rng, seq++));
      }
    }
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

/// Fixed 3-seed fast tier by default; REEF_FUZZ_SEED_COUNT widens the
/// sweep (CI runs 25) with deterministically derived seeds.
std::vector<std::uint64_t> fuzz_seeds() {
  std::size_t count = 3;
  if (const char* env = std::getenv("REEF_FUZZ_SEED_COUNT")) {
    count = std::strtoul(env, nullptr, 10);
    // An unparsable or zero value must not turn the gate vacuous.
    if (count == 0) count = 3;
  }
  std::vector<std::uint64_t> seeds;
  std::uint64_t sm = 0xf022ed5eedULL;
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(util::splitmix64(sm));
  }
  return seeds;
}

// --- engine configuration matrix ---------------------------------------------

struct EngineCase {
  std::string label;
  std::function<std::unique_ptr<Matcher>()> make;
};

/// The built-in engines by name (engines.h), the engine list of every
/// tier.
std::vector<std::string> builtin_engines() {
  return std::vector<std::string>(kBuiltinEngines.begin(),
                                  kBuiltinEngines.end());
}

/// Every built-in engine bare (the default configuration) plus the full
/// {shard 1/4} x {workers 0/4} cross product through ShardedMatcher.
std::vector<EngineCase> engine_matrix() {
  std::vector<EngineCase> cases;
  for (const std::string& name : builtin_engines()) {
    cases.push_back({name, [name] { return make_matcher(name); }});
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
        const std::string label = name + "/s" + std::to_string(shards) +
                                  "/w" + std::to_string(workers);
        cases.push_back({label, [name, shards, workers] {
                           return std::make_unique<ShardedMatcher>(
                               ShardedMatcher::Config{
                                   .shard_count = shards,
                                   .worker_threads = workers,
                                   .inner_engine = name});
                         }});
      }
    }
  }
  return cases;
}

// --- level 1: matcher-level differential replay ------------------------------

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Replays `schedule` through `engine` in lockstep with a fresh
/// brute-force oracle, comparing match sets after every publish op.
void replay_against_oracle(const Schedule& schedule, Matcher& engine,
                           const std::string& label, std::uint64_t seed) {
  BruteForceMatcher oracle;
  std::vector<std::vector<SubscriptionId>> stacks(kSlots);
  SubscriptionId next_id = 1;
  std::size_t op_index = 0;
  for (const FuzzOp& op : schedule.ops) {
    ++op_index;
    switch (op.kind) {
      case FuzzOp::Kind::kSubscribe: {
        const SubscriptionId id = next_id++;
        engine.add(id, op.filter);
        oracle.add(id, op.filter);
        stacks[op.slot].push_back(id);
        break;
      }
      case FuzzOp::Kind::kUnsubscribe: {
        auto& stack = stacks[op.slot];
        if (stack.empty()) break;
        const SubscriptionId id = stack.back();
        stack.pop_back();
        engine.remove(id);
        oracle.remove(id);
        break;
      }
      case FuzzOp::Kind::kPublish: {
        std::vector<std::vector<SubscriptionId>> batched;
        engine.match_batch(op.events, batched);
        ASSERT_EQ(batched.size(), op.events.size()) << label;
        for (std::size_t i = 0; i < op.events.size(); ++i) {
          const auto expected = sorted(oracle.match(op.events[i]));
          ASSERT_EQ(sorted(batched[i]), expected)
              << label << " diverges from oracle (seed=" << seed << ", op "
              << op_index << ", event " << op.events[i].to_string() << ")";
          ASSERT_EQ(sorted(engine.match(op.events[i])), expected)
              << label << "::match diverges from its own batch (seed="
              << seed << ", op " << op_index << ")";
        }
        break;
      }
    }
  }
  EXPECT_EQ(engine.size(), oracle.size()) << label << " seed=" << seed;
}

TEST(DifferentialFuzz, EveryEngineConfigurationMatchesOracle) {
  const auto cases = engine_matrix();
  for (const std::uint64_t seed : fuzz_seeds()) {
    const Schedule schedule = make_schedule(seed, 160);
    for (const EngineCase& engine_case : cases) {
      const auto engine = engine_case.make();
      replay_against_oracle(schedule, *engine, engine_case.label, seed);
    }
  }
}

// --- level 2: broker/sim-level differential replay ---------------------------

/// Everything observable about one overlay run, rendered comparable.
struct RunTrace {
  std::vector<std::string> delivery_log;  // chronological, all clients
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_units = 0;
  std::map<std::string, std::uint64_t> messages_by_type;
  std::map<std::string, std::uint64_t> bytes_by_type;
  std::map<std::string, std::uint64_t> units_by_type;

  bool operator==(const RunTrace&) const = default;
};

/// Replays the schedule through a 4-broker star: one client per slot,
/// subscribe/unsubscribe/publish ops in order with fixed inter-op delays,
/// then a drain. The network seed is fixed per schedule seed, so any two
/// configurations that route identically produce byte-identical traces.
RunTrace run_schedule_through_overlay(const Schedule& schedule,
                                      std::uint64_t seed,
                                      const Broker::Config& config) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.25;
  net_config.seed = seed;
  sim::Network net(sim, net_config);
  Overlay overlay = Overlay::star(sim, net, 4, config);

  RunTrace trace;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kSlots; ++c) {
    auto client = std::make_unique<Client>(sim, net, "c" + std::to_string(c));
    client->connect(overlay.broker(c % 4));
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kSecond);

  std::vector<std::vector<SubscriptionId>> stacks(kSlots);
  for (const FuzzOp& op : schedule.ops) {
    switch (op.kind) {
      case FuzzOp::Kind::kSubscribe: {
        const std::size_t slot = op.slot;
        stacks[slot].push_back(clients[slot]->subscribe(
            op.filter, [&trace, slot](const Event& e, SubscriptionId sub) {
              trace.delivery_log.push_back("c" + std::to_string(slot) + "/s" +
                                           std::to_string(sub) + " " +
                                           e.to_string());
            }));
        break;
      }
      case FuzzOp::Kind::kUnsubscribe: {
        auto& stack = stacks[op.slot];
        if (stack.empty()) break;
        clients[op.slot]->unsubscribe(stack.back());
        stack.pop_back();
        break;
      }
      case FuzzOp::Kind::kPublish: {
        clients[op.slot]->publish_batch(op.events);
        break;
      }
    }
    sim.run_until(sim.now() + 200 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  trace.total_messages = net.total_messages();
  trace.total_bytes = net.total_bytes();
  trace.total_units = net.total_units();
  trace.messages_by_type = net.messages_by_type().items();
  trace.bytes_by_type = net.bytes_by_type().items();
  trace.units_by_type = net.units_by_type().items();
  return trace;
}

TEST(DifferentialFuzz, OverlayTracesIdenticalAcrossEngineShardWorker) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    const Schedule schedule = make_schedule(seed, 100);

    // Oracle: brute force, unsharded.
    Broker::Config oracle_config;
    oracle_config.matcher_engine = "brute-force";
    const RunTrace oracle =
        run_schedule_through_overlay(schedule, seed, oracle_config);
    ASSERT_FALSE(oracle.delivery_log.empty()) << "seed=" << seed;

    for (const std::string& engine : builtin_engines()) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
          Broker::Config config;
          config.matcher_engine = engine;
          config.shard_count = shards;
          config.worker_threads = workers;
          const RunTrace trace =
              run_schedule_through_overlay(schedule, seed, config);
          const std::string label = engine + "/s" + std::to_string(shards) +
                                    "/w" + std::to_string(workers) +
                                    " seed=" + std::to_string(seed);
          EXPECT_EQ(trace.delivery_log, oracle.delivery_log) << label;
          EXPECT_EQ(trace.total_messages, oracle.total_messages) << label;
          EXPECT_EQ(trace.total_bytes, oracle.total_bytes) << label;
          EXPECT_EQ(trace.total_units, oracle.total_units) << label;
          EXPECT_EQ(trace.messages_by_type, oracle.messages_by_type)
              << label;
          EXPECT_EQ(trace.bytes_by_type, oracle.bytes_by_type) << label;
          EXPECT_EQ(trace.units_by_type, oracle.units_by_type) << label;
        }
      }
    }
  }
}

// --- level 3: flush-budget differential replay -------------------------------

/// The adaptive-flush dimension: per-tick is the oracle baseline; the
/// event/byte budgets are armed but sized so no batch in this workload
/// ever trips them (bundles are <= 8 events, far under 64 events / 1 MiB),
/// and the delay budget holds output across ticks without merging
/// anything new (ops are spaced 200ms apart, far past the 3ms window). So
/// every configuration must reproduce the per-tick batch boundaries —
/// identical wire traffic counters — and the delivery *set* exactly; only
/// the delay rows may reorder the chronological log (deliveries shift by
/// hop-count * delay, and clients sit at different depths).
struct BudgetCase {
  std::string label;
  std::size_t max_events = 0;
  std::size_t max_bytes = 0;
  sim::Time max_delay = 0;
};

TEST(DifferentialFuzz, FlushBudgetsPreserveDeliverySetsAndCounters) {
  const std::vector<BudgetCase> budgets = {
      {"per-tick", 0, 0, 0},
      {"event-budget", 64, 0, 0},
      {"byte-budget", 0, std::size_t{1} << 20, 0},
      {"delay-budget", 0, 0, 3 * sim::kMillisecond},
      {"all-budgets", 64, std::size_t{1} << 20, 3 * sim::kMillisecond},
  };
  for (const std::uint64_t seed : fuzz_seeds()) {
    const Schedule schedule = make_schedule(seed, 100);

    Broker::Config oracle_config;
    oracle_config.matcher_engine = "brute-force";
    const RunTrace oracle =
        run_schedule_through_overlay(schedule, seed, oracle_config);
    ASSERT_FALSE(oracle.delivery_log.empty()) << "seed=" << seed;
    std::vector<std::string> oracle_sorted = oracle.delivery_log;
    std::sort(oracle_sorted.begin(), oracle_sorted.end());

    for (const std::string& engine : builtin_engines()) {
      // The oracle's own engine adds no coverage to the budget dimension.
      if (engine == kBruteForceEngine) continue;
      for (const BudgetCase& budget : budgets) {
        Broker::Config config;
        config.matcher_engine = engine;
        config.shard_count = 4;
        config.flush_max_events = budget.max_events;
        config.flush_max_bytes = budget.max_bytes;
        config.flush_max_delay_ticks = budget.max_delay;
        const RunTrace trace =
            run_schedule_through_overlay(schedule, seed, config);
        const std::string label =
            engine + "/" + budget.label + " seed=" + std::to_string(seed);

        std::vector<std::string> trace_sorted = trace.delivery_log;
        std::sort(trace_sorted.begin(), trace_sorted.end());
        EXPECT_EQ(trace_sorted, oracle_sorted) << label;
        EXPECT_EQ(trace.total_messages, oracle.total_messages) << label;
        EXPECT_EQ(trace.total_bytes, oracle.total_bytes) << label;
        EXPECT_EQ(trace.total_units, oracle.total_units) << label;
        EXPECT_EQ(trace.messages_by_type, oracle.messages_by_type) << label;
        EXPECT_EQ(trace.bytes_by_type, oracle.bytes_by_type) << label;
        EXPECT_EQ(trace.units_by_type, oracle.units_by_type) << label;
        if (budget.max_delay == 0) {
          // Same boundaries AND same timing: the chronological log is
          // byte-identical too — flush_max_delay_ticks = 0 reproduces the
          // strict per-tick behavior exactly.
          EXPECT_EQ(trace.delivery_log, oracle.delivery_log) << label;
        }
      }
    }
  }
}

// --- level 4: fault-injection differential replay ----------------------------

/// A seeded crash/partition/loss plan, expressed in op indices so faults
/// interleave deterministically with the schedule. Every window closes
/// before `phase_split`; after a quiesce the run must be byte-equivalent
/// to the never-faulted oracle.
struct FaultPlan {
  std::size_t crash_target = 0;      ///< broker index to crash
  std::size_t crash_begin = 10;      ///< crash before this op...
  std::size_t crash_end = 25;        ///< ...restart before this one
  std::size_t part_leaf = 1;         ///< hub link (0, part_leaf) partitioned
  std::size_t part_begin = 28;
  std::size_t part_end = 44;
  std::size_t loss_leaf = 1;         ///< hub link (0, loss_leaf) lossy
  std::size_t loss_begin = 46;
  std::size_t loss_end = 56;
  std::size_t phase_split = 60;      ///< quiesce + fingerprint checkpoint

  static FaultPlan derive(std::uint64_t seed) {
    util::Rng rng(seed ^ 0xfa017u);
    FaultPlan plan;
    plan.crash_target = rng.index(4);
    plan.part_leaf = 1 + rng.index(3);
    plan.loss_leaf = 1 + rng.index(3);
    return plan;
  }
};

/// Everything the fault dimension asserts on.
struct FaultRun {
  std::vector<std::string> phase_b_deliveries;  ///< sorted
  std::vector<std::string> fingerprints;        ///< per broker, at the split
  std::uint64_t retransmits = 0;                ///< brokers + clients
  std::size_t quarantined_at_split = 0;
  std::uint64_t suspicions = 0;
};

/// Replays `schedule` through the 4-broker star with `plan`'s faults
/// (skipped entirely when `inject` is false — the oracle run). Identical
/// structure to run_schedule_through_overlay, plus the fault actions and
/// the phase split: heal everything, quiesce, fingerprint, then replay
/// the tail and log only its deliveries.
FaultRun run_schedule_with_faults(const Schedule& schedule, std::uint64_t seed,
                                  const Broker::Config& config,
                                  const FaultPlan& plan, bool inject) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.25;
  net_config.seed = seed;
  sim::Network net(sim, net_config);
  Overlay overlay = Overlay::star(sim, net, 4, config);

  ReliableChannel::Config client_channel;
  client_channel.enabled = true;
  client_channel.retransmit_timeout = config.retransmit_timeout;

  FaultRun run;
  bool in_phase_b = false;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kSlots; ++c) {
    auto client = std::make_unique<Client>(sim, net, "c" + std::to_string(c));
    client->connect(overlay.broker(c % 4));
    client->enable_reliable_control(client_channel);
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kSecond);

  std::vector<std::vector<SubscriptionId>> stacks(kSlots);
  std::size_t index = 0;
  for (const FuzzOp& op : schedule.ops) {
    if (inject) {
      if (index == plan.crash_begin) overlay.crash(plan.crash_target);
      if (index == plan.crash_end) overlay.restart(plan.crash_target);
      if (index == plan.part_begin) {
        overlay.set_link_partitioned(0, plan.part_leaf, true);
      }
      if (index == plan.part_end) {
        overlay.set_link_partitioned(0, plan.part_leaf, false);
      }
      if (index == plan.loss_begin) overlay.set_link_loss(0, plan.loss_leaf, 0.3);
      if (index == plan.loss_end) overlay.set_link_loss(0, plan.loss_leaf, 0.0);
    }
    if (index == plan.phase_split) {
      // Every fault has healed; let retransmission backoff (capped at
      // 1s) and anti-entropy finish, then checkpoint the control plane.
      sim.run_until(sim.now() + 10 * sim::kSecond);
      for (std::size_t b = 0; b < overlay.size(); ++b) {
        run.fingerprints.push_back(
            overlay.broker(b).routing_table().state_fingerprint());
        run.quarantined_at_split += overlay.broker(b).quarantined_count();
      }
      in_phase_b = true;
    }
    ++index;
    switch (op.kind) {
      case FuzzOp::Kind::kSubscribe: {
        const std::size_t slot = op.slot;
        stacks[slot].push_back(clients[slot]->subscribe(
            op.filter,
            [&run, &in_phase_b, slot](const Event& e, SubscriptionId sub) {
              if (!in_phase_b) return;
              run.phase_b_deliveries.push_back("c" + std::to_string(slot) +
                                               "/s" + std::to_string(sub) +
                                               " " + e.to_string());
            }));
        break;
      }
      case FuzzOp::Kind::kUnsubscribe: {
        auto& stack = stacks[op.slot];
        if (stack.empty()) break;
        clients[op.slot]->unsubscribe(stack.back());
        stack.pop_back();
        break;
      }
      case FuzzOp::Kind::kPublish: {
        clients[op.slot]->publish_batch(op.events);
        break;
      }
    }
    sim.run_until(sim.now() + 200 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  for (std::size_t b = 0; b < overlay.size(); ++b) {
    run.retransmits += overlay.broker(b).stats().retransmits;
    run.suspicions += overlay.broker(b).stats().suspicions;
  }
  for (const auto& client : clients) {
    run.retransmits += client->control_channel().stats().retransmits;
  }
  std::sort(run.phase_b_deliveries.begin(), run.phase_b_deliveries.end());
  return run;
}

TEST(DifferentialFuzz, FaultScheduleConvergesToNeverFaultedOracle) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    Schedule schedule = make_schedule(seed, 100);
    FaultPlan plan = FaultPlan::derive(seed);
    {
      // Force a subscribe op aimed at the crashed broker into the middle
      // of the crash window: its client must carry the op through
      // retransmission into the restarted incarnation, so every seed
      // exercises the recovery path (and the retransmit counter below is
      // never vacuously zero).
      util::Rng rng(seed ^ 0x5b5u);
      FuzzOp& forced =
          schedule.ops[(plan.crash_begin + plan.crash_end) / 2];
      forced.kind = FuzzOp::Kind::kSubscribe;
      forced.slot = plan.crash_target;  // client `slot` connects to broker slot%4
      forced.filter = fuzz_filter(rng);
      forced.events.clear();
    }

    Broker::Config base;
    base.matcher_engine = "brute-force";
    base.reliable_control = true;
    // Broker-broker links run at 10ms latency (Overlay::link default), so
    // the worst acked RTT with jitter is ~25ms; 60ms keeps the
    // never-faulted oracle retransmit-free.
    base.retransmit_timeout = 60 * sim::kMillisecond;
    base.heartbeat_period = 100 * sim::kMillisecond;
    const FaultRun oracle =
        run_schedule_with_faults(schedule, seed, base, plan, /*inject=*/false);
    ASSERT_FALSE(oracle.phase_b_deliveries.empty()) << "seed=" << seed;
    ASSERT_EQ(oracle.retransmits, 0u) << "seed=" << seed;
    ASSERT_EQ(oracle.quarantined_at_split, 0u) << "seed=" << seed;

    // Six (shards, workers, flush delay) shapes, dealt round-robin over
    // the built-in engines other than the oracle's, so every shape runs
    // whatever the engine list holds.
    struct EngineRow {
      std::size_t shards, workers;
      sim::Time flush_delay;
    };
    const std::vector<EngineRow> rows = {
        {1, 0, 0}, {4, 4, 0}, {4, 4, 3 * sim::kMillisecond},
        {1, 0, 3 * sim::kMillisecond}, {4, 0, 0},
        {1, 4, 3 * sim::kMillisecond},
    };
    std::vector<std::string> engines = builtin_engines();
    std::erase(engines, std::string(kBruteForceEngine));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const EngineRow& row = rows[r];
      const std::string& engine = engines[r % engines.size()];
      Broker::Config config = base;
      config.matcher_engine = engine;
      config.shard_count = row.shards;
      config.worker_threads = row.workers;
      config.flush_max_delay_ticks = row.flush_delay;
      const FaultRun faulted =
          run_schedule_with_faults(schedule, seed, config, plan, true);
      const std::string label = engine + "/s" +
                                std::to_string(row.shards) + "/w" +
                                std::to_string(row.workers) + "/d" +
                                std::to_string(row.flush_delay) +
                                " seed=" + std::to_string(seed);
      // Control plane: after the heal + quiesce the routing state is the
      // oracle's, bit for bit — no subscription op was lost, duplicated,
      // or misordered by the crash, the partition, or the lossy window.
      EXPECT_EQ(faulted.fingerprints, oracle.fingerprints) << label;
      EXPECT_EQ(faulted.quarantined_at_split, 0u) << label;
      // The faults actually bit: ops were retransmitted and the crashed
      // broker's silence was noticed.
      EXPECT_GT(faulted.retransmits, 0u) << label;
      EXPECT_GT(faulted.suspicions, 0u) << label;
      // Data plane: post-heal delivery sets are oracle-identical.
      EXPECT_EQ(faulted.phase_b_deliveries, oracle.phase_b_deliveries)
          << label;
    }
  }
}

// --- level 5: scored-delivery differential replay ----------------------------

/// Deterministic per-subscription scoring spec: the n-th subscription of a
/// schedule (global ordinal, 1-based) walks the full {constant, bm25} x
/// {top_k 0/1/4} x {min_score 0/0.5} grid, so every schedule interleaves
/// neutral subscriptions (n = 12m) with every non-neutral combination.
ScoringSpec fuzz_spec(std::size_t n) {
  ScoringSpec spec;
  spec.policy = (n % 2) ? ScoringPolicy::kBm25 : ScoringPolicy::kConstant;
  static constexpr std::uint32_t kCuts[] = {0, 1, 4};
  spec.top_k = kCuts[(n / 2) % 3];
  spec.min_score = ((n / 6) % 2) ? 0.5 : 0.0;
  if (spec.policy == ScoringPolicy::kBm25) {
    // Terms that occur in fuzz_event's text/file values, with distinct
    // weights so scores spread on both sides of the 0.5 threshold (events
    // with no tokenizable text score 0 and fall below it).
    spec.query = {{"abc", 1.0}, {"log", 2.0}, {"rss", 1.5}, {"say", 0.5}};
    spec.text_attrs = {"text", "file"};
  }
  return spec;
}

/// One scored delivery line, exactly as the overlay handler renders it:
/// the test-assigned global subscription ordinal (not the client-assigned
/// SubscriptionId, which a software oracle cannot reproduce) plus the
/// broker-computed score in Value's canonical double rendering.
std::string scored_line(std::size_t slot, std::size_t ordinal, double score,
                        const Event& event) {
  return "c" + std::to_string(slot) + "/n" + std::to_string(ordinal) + " " +
         Value(score).to_string() + " " + event.to_string();
}

/// What the scored dimension asserts on: the (sorted) delivery lines and
/// the three suppression counters summed over all brokers.
struct ScoredExpectation {
  std::vector<std::string> lines;  // sorted
  std::uint64_t scored_matches = 0;
  std::uint64_t suppressed_by_k = 0;
  std::uint64_t suppressed_by_threshold = 0;
};

/// Software scored oracle: brute-force matching, the production
/// score_event, and an *independent* top-k implementation (sort + truncate
/// instead of TopKSelector's bounded heap). Replays the schedule applying
/// the broker's scored-delivery contract directly:
///   window   = the events of one publish bundle matching the
///              subscription (they reach its broker in one wire batch);
///   echo     = the publisher's own subscriptions never receive;
///   theshold = score < min_score suppresses before the cut;
///   cut      = keep the top_k best by (score desc, event order asc);
///   delivery = survivors in event order, neutral subs untouched.
ScoredExpectation scored_software_oracle(const Schedule& schedule) {
  struct SubState {
    std::size_t slot = 0;
    ScoringSpec spec;
  };
  BruteForceMatcher matcher;
  std::map<SubscriptionId, SubState> live;
  std::vector<std::vector<SubscriptionId>> stacks(kSlots);
  ScoredExpectation expect;
  SubscriptionId next_id = 1;
  for (const FuzzOp& op : schedule.ops) {
    switch (op.kind) {
      case FuzzOp::Kind::kSubscribe: {
        const SubscriptionId id = next_id++;
        matcher.add(id, op.filter);
        live.emplace(id, SubState{op.slot, fuzz_spec(id)});
        stacks[op.slot].push_back(id);
        break;
      }
      case FuzzOp::Kind::kUnsubscribe: {
        auto& stack = stacks[op.slot];
        if (stack.empty()) break;
        matcher.remove(stack.back());
        live.erase(stack.back());
        stack.pop_back();
        break;
      }
      case FuzzOp::Kind::kPublish: {
        std::vector<std::vector<SubscriptionId>> hits;
        matcher.match_batch(op.events, hits);
        // Invert to per-subscription candidate windows (event indices in
        // bundle order, which is the order they reach the sub's broker).
        std::map<SubscriptionId, std::vector<std::size_t>> windows;
        for (std::size_t i = 0; i < op.events.size(); ++i) {
          for (const SubscriptionId id : hits[i]) {
            if (live.at(id).slot == op.slot) continue;  // echo: never back
            windows[id].push_back(i);
          }
        }
        for (const auto& [id, window] : windows) {
          const SubState& sub = live.at(id);
          if (sub.spec.neutral()) {
            for (const std::size_t i : window) {
              expect.lines.push_back(
                  scored_line(sub.slot, id, kConstantScore, op.events[i]));
            }
            continue;
          }
          expect.scored_matches += window.size();
          struct Cand {
            std::size_t index = 0;
            double score = 0.0;
          };
          std::vector<Cand> eligible;
          for (const std::size_t i : window) {
            const double score = score_event(sub.spec, op.events[i]);
            if (score < sub.spec.min_score) {
              ++expect.suppressed_by_threshold;
              continue;
            }
            eligible.push_back({i, score});
          }
          std::vector<Cand> kept = eligible;
          if (sub.spec.top_k != 0 && kept.size() > sub.spec.top_k) {
            std::sort(kept.begin(), kept.end(),
                      [](const Cand& a, const Cand& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.index < b.index;  // ties: earliest event
                      });
            kept.resize(sub.spec.top_k);
            std::sort(kept.begin(), kept.end(),
                      [](const Cand& a, const Cand& b) {
                        return a.index < b.index;  // deliver in event order
                      });
            expect.suppressed_by_k += eligible.size() - kept.size();
          }
          for (const Cand& cand : kept) {
            expect.lines.push_back(scored_line(sub.slot, id, cand.score,
                                               op.events[cand.index]));
          }
        }
        break;
      }
    }
  }
  std::sort(expect.lines.begin(), expect.lines.end());
  return expect;
}

/// A scored overlay run: run_schedule_through_overlay with subscribe ops
/// placed via subscribe_scored (specs by global ordinal, matching the
/// software oracle) and the broker suppression counters collected.
struct ScoredRun {
  RunTrace trace;
  std::uint64_t scored_matches = 0;
  std::uint64_t suppressed_by_k = 0;
  std::uint64_t suppressed_by_threshold = 0;
};

ScoredRun run_scored_schedule(const Schedule& schedule, std::uint64_t seed,
                              const Broker::Config& config) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.25;
  net_config.seed = seed;
  sim::Network net(sim, net_config);
  Overlay overlay = Overlay::star(sim, net, 4, config);

  ScoredRun run;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kSlots; ++c) {
    auto client = std::make_unique<Client>(sim, net, "c" + std::to_string(c));
    client->connect(overlay.broker(c % 4));
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kSecond);

  std::vector<std::vector<SubscriptionId>> stacks(kSlots);
  std::size_t next_ordinal = 1;
  for (const FuzzOp& op : schedule.ops) {
    switch (op.kind) {
      case FuzzOp::Kind::kSubscribe: {
        const std::size_t slot = op.slot;
        const std::size_t ordinal = next_ordinal++;
        stacks[slot].push_back(clients[slot]->subscribe_scored(
            op.filter, fuzz_spec(ordinal),
            [&run, slot, ordinal](const Event& e, SubscriptionId,
                                  double score) {
              run.trace.delivery_log.push_back(
                  scored_line(slot, ordinal, score, e));
            }));
        break;
      }
      case FuzzOp::Kind::kUnsubscribe: {
        auto& stack = stacks[op.slot];
        if (stack.empty()) break;
        clients[op.slot]->unsubscribe(stack.back());
        stack.pop_back();
        break;
      }
      case FuzzOp::Kind::kPublish: {
        clients[op.slot]->publish_batch(op.events);
        break;
      }
    }
    sim.run_until(sim.now() + 200 * sim::kMillisecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  run.trace.total_messages = net.total_messages();
  run.trace.total_bytes = net.total_bytes();
  run.trace.total_units = net.total_units();
  run.trace.messages_by_type = net.messages_by_type().items();
  run.trace.bytes_by_type = net.bytes_by_type().items();
  run.trace.units_by_type = net.units_by_type().items();
  for (std::size_t b = 0; b < overlay.size(); ++b) {
    const Broker::Stats& stats = overlay.broker(b).stats();
    run.scored_matches += stats.scored_matches;
    run.suppressed_by_k += stats.suppressed_by_k;
    run.suppressed_by_threshold += stats.suppressed_by_threshold;
  }
  return run;
}

TEST(DifferentialFuzz, ScoredDeliveryMatchesScoredOracleAcrossConfigs) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    const Schedule schedule = make_schedule(seed, 100);
    const ScoredExpectation expected = scored_software_oracle(schedule);
    ASSERT_FALSE(expected.lines.empty()) << "seed=" << seed;
    // The dimension must actually bite: both suppression mechanisms fire
    // somewhere in every schedule (the spec grid guarantees k=1 and
    // min_score=0.5 subscriptions exist; bundles reach 8 events).
    EXPECT_GT(expected.scored_matches, 0u) << "seed=" << seed;
    EXPECT_GT(expected.suppressed_by_k, 0u) << "seed=" << seed;
    EXPECT_GT(expected.suppressed_by_threshold, 0u) << "seed=" << seed;

    // Overlay oracle: brute force, unsharded, per-tick flush, scoring on.
    Broker::Config oracle_config;
    oracle_config.matcher_engine = "brute-force";
    oracle_config.scoring_enabled = true;
    const ScoredRun oracle =
        run_scored_schedule(schedule, seed, oracle_config);
    std::vector<std::string> oracle_sorted = oracle.trace.delivery_log;
    std::sort(oracle_sorted.begin(), oracle_sorted.end());
    ASSERT_EQ(oracle_sorted, expected.lines) << "seed=" << seed;
    EXPECT_EQ(oracle.scored_matches, expected.scored_matches)
        << "seed=" << seed;
    EXPECT_EQ(oracle.suppressed_by_k, expected.suppressed_by_k)
        << "seed=" << seed;
    EXPECT_EQ(oracle.suppressed_by_threshold,
              expected.suppressed_by_threshold)
        << "seed=" << seed;

    struct ScoredRow {
      std::size_t shards = 1, workers = 0;
      sim::Time flush_delay = 0;
    };
    const std::vector<ScoredRow> rows = {
        {1, 0, 0}, {4, 4, 0}, {4, 0, 3 * sim::kMillisecond}};
    for (const std::string& engine : builtin_engines()) {
      for (const ScoredRow& row : rows) {
        Broker::Config config;
        config.matcher_engine = engine;
        config.shard_count = row.shards;
        config.worker_threads = row.workers;
        config.flush_max_delay_ticks = row.flush_delay;
        config.scoring_enabled = true;
        const ScoredRun run = run_scored_schedule(schedule, seed, config);
        const std::string label =
            engine + "/s" + std::to_string(row.shards) + "/w" +
            std::to_string(row.workers) + "/d" +
            std::to_string(row.flush_delay) + " seed=" + std::to_string(seed);
        if (row.flush_delay == 0) {
          // Same batch boundaries and timing: chronological byte equality
          // with the scored overlay oracle.
          EXPECT_EQ(run.trace.delivery_log, oracle.trace.delivery_log)
              << label;
        } else {
          // The delay budget shifts timing, never the scored set: in this
          // workload (200ms op spacing) it merges nothing, so windows —
          // and therefore suppression — are identical.
          std::vector<std::string> sorted_log = run.trace.delivery_log;
          std::sort(sorted_log.begin(), sorted_log.end());
          EXPECT_EQ(sorted_log, expected.lines) << label;
        }
        EXPECT_EQ(run.trace.total_messages, oracle.trace.total_messages)
            << label;
        EXPECT_EQ(run.trace.total_bytes, oracle.trace.total_bytes) << label;
        EXPECT_EQ(run.trace.total_units, oracle.trace.total_units) << label;
        EXPECT_EQ(run.trace.messages_by_type, oracle.trace.messages_by_type)
            << label;
        EXPECT_EQ(run.trace.bytes_by_type, oracle.trace.bytes_by_type)
            << label;
        EXPECT_EQ(run.scored_matches, expected.scored_matches) << label;
        EXPECT_EQ(run.suppressed_by_k, expected.suppressed_by_k) << label;
        EXPECT_EQ(run.suppressed_by_threshold,
                  expected.suppressed_by_threshold)
            << label;
      }
    }
  }
}

/// The neutral property: scoring_enabled=true with exclusively neutral
/// specs (every plain subscribe) is byte-identical to scoring disabled —
/// same delivery log, same wire counters — on every engine, bare and
/// sharded, the sharded variants with 4 workers (the rows the TSan CI job
/// exercises for cross-thread score plumbing).
TEST(DifferentialFuzz, NeutralScoringByteIdenticalToDisabled) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    const Schedule schedule = make_schedule(seed, 100);
    for (const EngineVariant& variant : engine_variants()) {
      Broker::Config config;
      config.matcher_engine = variant.engine;
      config.shard_count = variant.shard_count;
      if (variant.shard_count > 1) config.worker_threads = 4;
      const RunTrace off = run_schedule_through_overlay(schedule, seed, config);
      Broker::Config scored_config = config;
      scored_config.scoring_enabled = true;
      const RunTrace on =
          run_schedule_through_overlay(schedule, seed, scored_config);
      const std::string label = variant.label() + "/w" +
                                std::to_string(config.worker_threads) +
                                " seed=" + std::to_string(seed);
      EXPECT_EQ(on.delivery_log, off.delivery_log) << label;
      EXPECT_EQ(on.total_messages, off.total_messages) << label;
      EXPECT_EQ(on.total_bytes, off.total_bytes) << label;
      EXPECT_EQ(on.total_units, off.total_units) << label;
      EXPECT_EQ(on.messages_by_type, off.messages_by_type) << label;
      EXPECT_EQ(on.bytes_by_type, off.bytes_by_type) << label;
      EXPECT_EQ(on.units_by_type, off.units_by_type) << label;
    }
  }
}

}  // namespace
}  // namespace reef::pubsub
