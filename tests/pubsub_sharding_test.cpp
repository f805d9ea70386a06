// Deterministic-concurrency harness for the sharded routing core.
//
// The contract under test: for a fixed shard count, a broker's observable
// behavior — every client's delivery log, byte for byte, and every
// sim::Network traffic counter — is identical for worker_threads 0 (no
// pool), 1, and 4. Thread scheduling may vary freely between runs; the
// sharded matcher's merge-by-shard-order and the broker's interface-ordered
// output make the nondeterminism unobservable, and a pre-filtered shard
// contributes exactly the hits it would have produced on the full batch.
//
// The shard count itself comes from REEF_TEST_SHARD_COUNT (default 4);
// CMake registers this binary twice so ctest exercises both the multi-
// shard and the single-shard (spill-heavy) layout. With one shard the
// 0-worker baseline is the plain engine (the table shards only for
// shard_count > 1 or worker_threads > 0), so that layout also holds the
// 1-shard ShardedMatcher to the unsharded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "pubsub/sharded_matcher.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reef::pubsub {
namespace {

std::size_t test_shard_count() {
  const char* env = std::getenv("REEF_TEST_SHARD_COUNT");
  return env != nullptr ? std::strtoul(env, nullptr, 10) : 4;
}

Filter scenario_filter(util::Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return Filter()
          .and_(eq("stream", "feed"))
          .and_(eq("feed", static_cast<std::int64_t>(rng.index(8))));
    case 1:
      return Filter()
          .and_(eq("stream", "quotes"))
          .and_(ge("price", static_cast<double>(rng.index(40))));
    case 2:
      return Filter().and_(prefix("text", rng.chance(0.5) ? "a" : "ab"));
    default:
      return Filter().and_(exists("price"));
  }
}

Event scenario_event(util::Rng& rng, int seq) {
  Event e;
  switch (rng.index(3)) {
    case 0:
      e = Event()
              .with("stream", "feed")
              .with("feed", static_cast<std::int64_t>(rng.index(8)))
              .with("text", rng.chance(0.5) ? "abc" : "xyz");
      break;
    case 1:
      e = Event()
              .with("stream", "quotes")
              .with("price", static_cast<double>(rng.index(60)));
      break;
    default:
      e = Event().with("text", "ab").with("price", 7);
      break;
  }
  e.with("seq", static_cast<std::int64_t>(seq));
  return e;
}

/// Everything observable about one scenario run, rendered comparable.
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

/// Runs the seeded broker scenario: a 4-broker star, 6 clients with a mix
/// of equality / range / prefix / exists subscriptions, plus one client
/// that churns (subscribes, receives, unsubscribes), and 12 publication
/// bursts entering at rotating brokers.
RunTrace run_scenario(std::uint64_t seed, std::size_t shard_count,
                      std::size_t worker_threads) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.25;
  net_config.seed = seed;
  sim::Network net(sim, net_config);

  Broker::Config config;
  config.matcher_engine = "bitset";
  config.shard_count = shard_count;
  config.worker_threads = worker_threads;
  Overlay overlay = Overlay::star(sim, net, 4, config);

  RunTrace trace;
  util::Rng rng(seed);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < 6; ++c) {
    auto client = std::make_unique<Client>(sim, net, "c" + std::to_string(c));
    client->connect(overlay.broker(c % 4));
    const std::size_t subs = 2 + rng.index(3);
    for (std::size_t s = 0; s < subs; ++s) {
      client->subscribe(scenario_filter(rng),
                        [&trace, c](const Event& e, SubscriptionId sub) {
                          trace.delivery_log.push_back(
                              "c" + std::to_string(c) + "/s" +
                              std::to_string(sub) + " " + e.to_string());
                        });
    }
    clients.push_back(std::move(client));
  }
  Client churner(sim, net, "churner");
  churner.connect(overlay.broker(3));
  sim.run_until(sim.now() + sim::kMinute);

  std::vector<SubscriptionId> churn_ids;
  int seq = 0;
  for (int burst = 0; burst < 12; ++burst) {
    if (burst % 3 == 0) {
      churn_ids.push_back(churner.subscribe(
          scenario_filter(rng),
          [&trace](const Event& e, SubscriptionId sub) {
            trace.delivery_log.push_back("churner/s" + std::to_string(sub) +
                                         " " + e.to_string());
          }));
    } else if (burst % 3 == 2 && !churn_ids.empty()) {
      churner.unsubscribe(churn_ids.back());
      churn_ids.pop_back();
    }
    std::vector<Event> bundle;
    for (int i = 0; i < 6; ++i) bundle.push_back(scenario_event(rng, seq++));
    Client& publisher = *clients[burst % clients.size()];
    publisher.publish_batch(std::move(bundle));
    sim.run_until(sim.now() + sim::kSecond);
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

class ShardingDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardingDeterminism, WorkerThreadsNeverChangeObservableBehavior) {
  const std::size_t shards = test_shard_count();
  ASSERT_GE(shards, 1u);
  const RunTrace baseline = run_scenario(GetParam(), shards, 0);
  ASSERT_FALSE(baseline.delivery_log.empty());
  // The golden-trace matrix: every worker count byte-equal to the
  // 0-worker baseline.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const RunTrace trace = run_scenario(GetParam(), shards, workers);
    const std::string where = "worker_threads=" + std::to_string(workers) +
                              " shard_count=" + std::to_string(shards);
    EXPECT_EQ(trace.delivery_log, baseline.delivery_log)
        << "delivery log diverged at " << where;
    EXPECT_EQ(trace.total_messages, baseline.total_messages) << where;
    EXPECT_EQ(trace.total_bytes, baseline.total_bytes) << where;
    EXPECT_EQ(trace.total_units, baseline.total_units) << where;
    EXPECT_EQ(trace.messages_by_type, baseline.messages_by_type) << where;
    EXPECT_EQ(trace.bytes_by_type, baseline.bytes_by_type) << where;
    EXPECT_EQ(trace.units_by_type, baseline.units_by_type) << where;
  }
}

/// Repeated runs of the *same* configuration are reproducible even with a
/// worker pool — the baseline determinism the cross-worker check builds on.
TEST_P(ShardingDeterminism, RepeatRunsAreByteIdentical) {
  const std::size_t shards = test_shard_count();
  const RunTrace a = run_scenario(GetParam(), shards, 4);
  const RunTrace b = run_scenario(GetParam(), shards, 4);
  EXPECT_EQ(a, b);
}

// --- shard-aware event pre-filtering ----------------------------------------

/// Regression pin for the pre-filter's one semantic hazard: an event with
/// zero attributes reaches no anchor shard at all, and an anchorless
/// (universal) filter lives only on the spill shard — they must still meet
/// there, on both the single-event and the batch path.
TEST(ShardedPrefilter, AttributeFreeEventsMeetUniversalFiltersInSpill) {
  ShardedMatcher m(ShardedMatcher::Config{.shard_count = 4,
                                          .inner_engine = "bitset"});
  m.add(1, Filter());  // universal: anchorless, spill-shard placement
  m.add(2, Filter().and_(eq("stream", "feed")));
  ASSERT_EQ(m.spill_size(), 1u);

  const Event bare;  // zero attributes
  ASSERT_TRUE(bare.empty());
  EXPECT_EQ(m.match(bare), (std::vector<SubscriptionId>{1}));

  std::vector<Event> events;
  events.push_back(bare);
  events.push_back(Event().with("stream", "feed"));
  events.push_back(Event().with("unrelated", 7));
  std::vector<std::vector<SubscriptionId>> hits;
  m.match_batch(events, hits);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], (std::vector<SubscriptionId>{1}));
  std::sort(hits[1].begin(), hits[1].end());
  EXPECT_EQ(hits[1], (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(hits[2], (std::vector<SubscriptionId>{1}));

  // The accounting shows the routing decision: the bare and unrelated
  // events skip every anchor shard.
  EXPECT_GT(m.events_skipped(), 0u);
  EXPECT_EQ(m.events_routed() + m.events_skipped(),
            (m.shard_count() + 1) * 4);  // 1 single + 3 batched events
  EXPECT_LT(m.events_routed(), (m.shard_count() + 1) * 4);
}

/// The pre-filter is pure routing: on a randomized workload every event's
/// sharded hit set equals the plain inner engine's, while the counters
/// prove shards were actually skipped.
TEST(ShardedPrefilter, OutputEqualsPlainEngine) {
  util::Rng rng(0xf117e5);
  std::vector<Filter> filters;
  for (int i = 0; i < 120; ++i) filters.push_back(scenario_filter(rng));
  filters.push_back(Filter());  // one universal filter in the mix
  std::vector<Event> events;
  for (int i = 0; i < 60; ++i) events.push_back(scenario_event(rng, i));
  events.push_back(Event());  // and one attribute-free event

  for (const std::string_view engine : kBuiltinEngines) {
    const std::string inner(engine);
    ShardedMatcher sharded(
        ShardedMatcher::Config{.shard_count = 4, .inner_engine = inner});
    const auto plain = make_matcher(inner);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      sharded.add(i + 1, filters[i]);
      plain->add(i + 1, filters[i]);
    }
    std::vector<std::vector<SubscriptionId>> hits_sharded;
    std::vector<std::vector<SubscriptionId>> hits_plain;
    sharded.match_batch(events, hits_sharded);
    plain->match_batch(events, hits_plain);
    ASSERT_EQ(hits_sharded.size(), events.size()) << inner;
    for (std::size_t i = 0; i < events.size(); ++i) {
      std::sort(hits_sharded[i].begin(), hits_sharded[i].end());
      std::sort(hits_plain[i].begin(), hits_plain[i].end());
      EXPECT_EQ(hits_sharded[i], hits_plain[i])
          << inner << " on " << events[i].to_string();
    }
    EXPECT_GT(sharded.events_skipped(), 0u) << inner;
    EXPECT_EQ(sharded.events_routed() + sharded.events_skipped(),
              events.size() * (sharded.shard_count() + 1))
        << inner;
  }
}

/// The pre-filter's sub-batches are index spans over the original event
/// storage: match_batch must not copy a single Event, however sparse the
/// per-shard slices come out (the PR 3 gather-by-copy path is gone).
TEST(ShardedPrefilter, SubBatchesPerformZeroEventCopies) {
  util::Rng rng(0x2e20c0);
  ShardedMatcher m(ShardedMatcher::Config{.shard_count = 8,
                                          .inner_engine = "bitset"});
  for (int i = 0; i < 200; ++i) m.add(i + 1, scenario_filter(rng));
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(scenario_event(rng, i));

  std::vector<std::vector<SubscriptionId>> hits;
  const std::uint64_t copies_before = Event::copy_count();
  for (int round = 0; round < 5; ++round) m.match_batch(events, hits);
  EXPECT_EQ(Event::copy_count(), copies_before);
  EXPECT_GT(m.events_skipped(), 0u);  // the pre-filter did prune shards
}

/// Copies of an Event share one attribute block (event.h), so the worker
/// pool reads one block from many batch positions at once. The hits must
/// equal those of the same batch built from distinct blocks, and dropping
/// the last handles between rounds, with the pool live, must not race (the
/// TSan job runs this binary).
TEST(ShardedMatcher, SharedEventBlocksMatchLikeDistinctOnes) {
  util::Rng rng(0x5ba4ed);
  ShardedMatcher m(ShardedMatcher::Config{.shard_count = 4,
                                          .worker_threads = 4,
                                          .inner_engine = "bitset"});
  for (int i = 0; i < 200; ++i) m.add(i + 1, scenario_filter(rng));
  std::vector<Event> originals;
  for (int i = 0; i < 8; ++i) originals.push_back(scenario_event(rng, i));

  const AttrTable& names = AttrTable::instance();
  std::vector<Event> shared;
  std::vector<Event> distinct;
  for (std::size_t i = 0; i < 256; ++i) {
    const Event& source = originals[i % originals.size()];
    shared.push_back(source);
    Event rebuilt;  // same attributes, a block of its own
    for (const auto& [id, value] : source.attrs()) {
      rebuilt.with(names.name(id), value);
    }
    distinct.push_back(std::move(rebuilt));
  }
  ASSERT_EQ(&shared[0].attrs(), &shared[8].attrs());
  ASSERT_NE(&distinct[0].attrs(), &distinct[8].attrs());
  originals.clear();  // the batch now holds the only handles

  std::vector<std::vector<SubscriptionId>> hits_shared;
  std::vector<std::vector<SubscriptionId>> hits_distinct;
  for (int round = 0; round < 4; ++round) {
    m.match_batch(shared, hits_shared);
    m.match_batch(distinct, hits_distinct);
    ASSERT_EQ(hits_shared.size(), shared.size());
    EXPECT_EQ(hits_shared, hits_distinct) << "round " << round;
    // Release a quarter of the handles (freeing the blocks whose last
    // holders go) before the pool reads the rest again.
    shared.resize(shared.size() * 3 / 4);
    distinct.resize(shared.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardingDeterminism,
                         ::testing::Values(7, 19, 31));

// --- RoutingTable-level sharded wiring --------------------------------------

TEST(ShardedRoutingTable, KnobsBuildShardedEngine) {
  // The defaults (1 shard, 0 workers) keep the plain engine.
  EXPECT_EQ(RoutingTable::Config{}.shard_count, 1u);
  RoutingTable plain;
  EXPECT_EQ(plain.matcher().name(), kDefaultEngine);
  // shard_count > 1 wraps the named engine with exactly that many shards...
  RoutingTable counted(
      RoutingTable::Config{.engine = "brute-force", .shard_count = 2});
  EXPECT_EQ(counted.matcher().name(), "brute-force/2");
  EXPECT_EQ(dynamic_cast<const ShardedMatcher&>(counted.matcher())
                .shard_count(),
            2u);
  // ...and so do worker threads, even over a single shard.
  RoutingTable pooled(RoutingTable::Config{
      .engine = "bitset", .shard_count = 4, .worker_threads = 2});
  EXPECT_EQ(pooled.matcher().name(), "bitset/4");
  EXPECT_EQ(dynamic_cast<const ShardedMatcher&>(pooled.matcher())
                .worker_threads(),
            2u);
  RoutingTable one_shard(RoutingTable::Config{
      .engine = "brute-force", .shard_count = 1, .worker_threads = 1});
  EXPECT_EQ(one_shard.matcher().name(), "brute-force/1");
  // Unknown engines fail with the canonical make_matcher error, sharded
  // or not.
  EXPECT_THROW(RoutingTable(RoutingTable::Config{.engine = "no-such"}),
               std::invalid_argument);
  EXPECT_THROW(
      RoutingTable(RoutingTable::Config{.engine = "no-such", .shard_count = 4}),
      std::invalid_argument);
}

TEST(ShardedRoutingTable, MatchAgreesAcrossShardAndWorkerConfigs) {
  util::Rng rng(0xc0de);
  std::vector<Filter> filters;
  for (int i = 0; i < 80; ++i) filters.push_back(scenario_filter(rng));
  std::vector<Event> events;
  for (int i = 0; i < 40; ++i) events.push_back(scenario_event(rng, i));

  auto destinations = [](const RoutingTable& table,
                         const std::vector<Event>& evs) {
    std::vector<std::vector<RoutingTable::Destination>> hits;
    table.match_batch(evs, hits);
    std::vector<
        std::vector<std::tuple<RoutingTable::IfaceId, bool, SubscriptionId>>>
        out;
    for (const auto& per_event : hits) {
      std::vector<std::tuple<RoutingTable::IfaceId, bool, SubscriptionId>>
          sig;
      for (const auto& d : per_event) {
        sig.emplace_back(d.iface, d.is_broker, d.client_sub);
      }
      std::sort(sig.begin(), sig.end());
      out.push_back(std::move(sig));
    }
    return out;
  };

  std::vector<RoutingTable> tables;
  tables.emplace_back(RoutingTable::Config{.engine = "bitset"});
  tables.emplace_back(
      RoutingTable::Config{.engine = "bitset", .shard_count = 4});
  tables.emplace_back(RoutingTable::Config{
      .engine = "bitset", .shard_count = 4, .worker_threads = 4});
  tables.emplace_back(RoutingTable::Config{
      .engine = "bitset", .shard_count = 1, .worker_threads = 1});
  for (RoutingTable& table : tables) {
    table.add_broker_iface(1);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      if (i % 4 == 0) {
        table.broker_subscribe(1, filters[i]);
      } else {
        table.client_subscribe(100 + i % 3, i, filters[i]);
      }
    }
  }
  const auto reference = destinations(tables.front(), events);
  for (std::size_t t = 1; t < tables.size(); ++t) {
    EXPECT_EQ(destinations(tables[t], events), reference) << "table " << t;
  }
}

}  // namespace
}  // namespace reef::pubsub

// --- util::ThreadPool -------------------------------------------------------

namespace reef::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {0u, 1u, 3u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    for (const std::size_t n : {0u, 1u, 2u, 64u}) {
      std::vector<std::atomic<int>> counts(n);
      pool.parallel_for(n, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(8, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(ThreadPool, PropagatesFirstException) {
  // Pooled and inline modes share the contract: all indices run, the
  // first exception is rethrown afterwards, the pool stays usable.
  for (const std::size_t threads : {2u, 0u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(16,
                          [&](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i % 2 == 0) {
                              throw std::runtime_error("task failure");
                            }
                          }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 16) << "threads=" << threads;
    std::atomic<int> after{0};
    pool.parallel_for(4, [&](std::size_t) {
      after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), 4) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace reef::util
