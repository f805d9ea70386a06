// Deterministic-concurrency harness for the routing table's worker split.
//
// The contract under test: a broker's observable behavior — every client's
// delivery log, byte for byte, and every sim::Network traffic counter — is
// identical for worker_threads 0 (no pool), 1, 3 and 4. The routing table
// cuts each batch into contiguous event ranges, matches each range through
// its one engine on the pool, and writes each range's hits into its own
// slice of the output, so thread scheduling may vary freely between runs
// and stay unobservable. Below the broker, the table's own hit lists are
// checked byte-identical across worker counts, including batches smaller
// than the worker count, and the util::ThreadPool primitive is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "pubsub/routing_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reef::pubsub {
namespace {

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
RunTrace run_scenario(std::uint64_t seed, std::size_t worker_threads) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.25;
  net_config.seed = seed;
  sim::Network net(sim, net_config);

  Broker::Config config;
  config.matcher_engine = "bitset";
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

class WorkersDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkersDeterminism, WorkerThreadsNeverChangeObservableBehavior) {
  const RunTrace baseline = run_scenario(GetParam(), 0);
  ASSERT_FALSE(baseline.delivery_log.empty());
  // The golden-trace matrix: every worker count byte-equal to the
  // 0-worker baseline.
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    const RunTrace trace = run_scenario(GetParam(), workers);
    const std::string where = "worker_threads=" + std::to_string(workers);
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
TEST_P(WorkersDeterminism, RepeatRunsAreByteIdentical) {
  const RunTrace a = run_scenario(GetParam(), 4);
  const RunTrace b = run_scenario(GetParam(), 4);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkersDeterminism,
                         ::testing::Values(7, 19, 31));

// --- RoutingTable-level worker split -----------------------------------------

using DestinationKey = std::tuple<RoutingTable::IfaceId, bool, SubscriptionId>;
using ScoredKey =
    std::tuple<RoutingTable::IfaceId, bool, SubscriptionId, double, bool>;

/// The table's hit lists, unsorted: byte identity includes hit order.
std::vector<std::vector<DestinationKey>> destinations(
    const RoutingTable& table, const std::vector<Event>& events) {
  std::vector<std::vector<RoutingTable::Destination>> hits;
  table.match_batch(events, hits);
  std::vector<std::vector<DestinationKey>> out;
  for (const auto& per_event : hits) {
    auto& keys = out.emplace_back();
    for (const auto& d : per_event) {
      keys.emplace_back(d.iface, d.is_broker, d.client_sub);
    }
  }
  return out;
}

std::vector<std::vector<ScoredKey>> scored_destinations(
    const RoutingTable& table, const std::vector<Event>& events) {
  std::vector<std::vector<RoutingTable::ScoredDestination>> hits;
  table.match_batch_scored(events, hits);
  std::vector<std::vector<ScoredKey>> out;
  for (const auto& per_event : hits) {
    auto& keys = out.emplace_back();
    for (const auto& d : per_event) {
      keys.emplace_back(d.dest.iface, d.dest.is_broker, d.dest.client_sub,
                        d.score, d.scoring != nullptr);
    }
  }
  return out;
}

/// Tables for worker counts {0, 1, 3, 4} over one engine, filled alike.
std::vector<RoutingTable> worker_tables(const std::string& engine) {
  std::vector<RoutingTable> tables;
  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    tables.emplace_back(
        RoutingTable::Config{.engine = engine, .worker_threads = workers});
    tables.back().add_broker_iface(1);
  }
  return tables;
}

ScoringSpec title_spec() {
  ScoringSpec spec;
  spec.policy = ScoringPolicy::kBm25;
  spec.query = {{"abc", 1.0}, {"xyz", 0.5}};
  spec.text_attrs = {"text"};
  spec.top_k = 2;
  return spec;
}

TEST(RoutingTableWorkers, HitListsByteIdenticalAcrossWorkerCountsUnderChurn) {
  for (const std::string_view name : kBuiltinEngines) {
    const std::string engine(name);
    util::Rng rng(0xc0de);
    std::vector<RoutingTable> tables = worker_tables(engine);
    // The oracle: a brute-force table without workers, fed the same ops.
    tables.emplace_back(RoutingTable::Config{.engine = "brute-force"});
    tables.back().add_broker_iface(1);
    const RoutingTable& oracle = tables.back();
    const std::size_t split_tables = tables.size() - 1;
    std::vector<SubscriptionId> live;
    SubscriptionId next = 1;
    for (int round = 0; round < 40; ++round) {
      for (int step = 0; step < 6; ++step) {
        if (live.empty() || rng.chance(0.7)) {
          const Filter f = rng.chance(0.05) ? Filter() : scenario_filter(rng);
          const bool scored = rng.chance(0.3);
          for (RoutingTable& table : tables) {
            if (next % 5 == 0) {
              table.broker_subscribe(1, f);
            } else {
              table.client_subscribe(100 + next % 3, next, f,
                                     scored ? title_spec() : ScoringSpec{});
            }
          }
          live.push_back(next++);
        } else {
          const std::size_t idx = rng.index(live.size());
          const SubscriptionId id = live[idx];
          if (id % 5 != 0) {  // broker filters stay (aggregated by key)
            for (RoutingTable& table : tables) {
              table.client_unsubscribe(100 + id % 3, id);
            }
          }
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
      std::vector<Event> events;
      const std::size_t batch = rng.index(24);
      for (std::size_t i = 0; i < batch; ++i) {
        events.push_back(rng.chance(0.05) ? Event()
                                          : scenario_event(rng, round));
      }
      const auto reference = destinations(tables.front(), events);
      const auto scored_reference =
          scored_destinations(tables.front(), events);
      ASSERT_EQ(reference.size(), events.size());
      for (std::size_t t = 1; t < split_tables; ++t) {
        const std::string where =
            engine + " workers=" +
            std::to_string(tables[t].config().worker_threads) + " round " +
            std::to_string(round);
        ASSERT_EQ(destinations(tables[t], events), reference) << where;
        ASSERT_EQ(scored_destinations(tables[t], events), scored_reference)
            << where;
      }
      // And the split output is the oracle's per-event match, as a set.
      for (std::size_t i = 0; i < events.size(); ++i) {
        std::vector<DestinationKey> expected =
            destinations(oracle, {events[i]}).front();
        std::vector<DestinationKey> actual = reference[i];
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        ASSERT_EQ(actual, expected) << engine << " on "
                                    << events[i].to_string();
      }
    }
  }
}

TEST(RoutingTableWorkers, BatchesOfSizeZeroOneAndBelowTheWorkerCount) {
  util::Rng rng(0xba7c4);
  std::vector<RoutingTable> tables = worker_tables("bitset");
  for (SubscriptionId id = 1; id <= 60; ++id) {
    const Filter f = scenario_filter(rng);
    for (RoutingTable& table : tables) table.client_subscribe(100, id, f);
  }
  for (const std::size_t size : {0u, 1u, 2u, 3u, 4u, 5u}) {
    std::vector<Event> events;
    for (std::size_t i = 0; i < size; ++i) {
      events.push_back(scenario_event(rng, static_cast<int>(i)));
    }
    const auto reference = destinations(tables.front(), events);
    ASSERT_EQ(reference.size(), size);
    for (std::size_t t = 1; t < tables.size(); ++t) {
      EXPECT_EQ(destinations(tables[t], events), reference)
          << "workers=" << tables[t].config().worker_threads
          << " batch=" << size;
      EXPECT_EQ(scored_destinations(tables[t], events).size(), size);
    }
  }
}

/// The split hands out sub-spans of the caller's batch: matching copies no
/// Event, not even a handle, whatever the worker count.
TEST(RoutingTableWorkers, SplitCopiesNoEvent) {
  util::Rng rng(0x2e20c0);
  std::vector<RoutingTable> tables = worker_tables("bitset");
  for (SubscriptionId id = 1; id <= 200; ++id) {
    const Filter f = scenario_filter(rng);
    for (RoutingTable& table : tables) table.client_subscribe(100, id, f);
  }
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(scenario_event(rng, i));
  std::vector<std::vector<RoutingTable::Destination>> hits;
  for (const RoutingTable& table : tables) {
    const std::uint64_t copies_before = Event::copy_count();
    table.match_batch(events, hits);
    EXPECT_EQ(Event::copy_count(), copies_before)
        << "workers=" << table.config().worker_threads;
  }
}

TEST(RoutingTableWorkers, WorkersKeepTheOneNamedEngine) {
  EXPECT_EQ(RoutingTable::Config{}.worker_threads, 0u);
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    for (const std::string_view name : kBuiltinEngines) {
      const RoutingTable table(RoutingTable::Config{
          .engine = std::string(name), .worker_threads = workers});
      EXPECT_EQ(table.matcher().name(), name);
    }
    // Unknown engines fail with the canonical make_matcher error.
    EXPECT_THROW(RoutingTable(RoutingTable::Config{
                     .engine = "no-such", .worker_threads = workers}),
                 std::invalid_argument);
  }
}

/// Copies of an Event share one attribute block (event.h), so the workers
/// read one block from many batch positions at once. The hits must equal
/// those of the same batch built from distinct blocks, and dropping the
/// last handles between rounds, with the pool live, must not race (the
/// TSan job runs this binary).
TEST(RoutingTableWorkers, SharedEventBlocksMatchLikeDistinctOnes) {
  util::Rng rng(0x5ba4ed);
  RoutingTable table(
      RoutingTable::Config{.engine = "bitset", .worker_threads = 4});
  for (SubscriptionId id = 1; id <= 200; ++id) {
    table.client_subscribe(100 + id % 3, id, scenario_filter(rng));
  }
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

  for (int round = 0; round < 4; ++round) {
    const auto hits_shared = destinations(table, shared);
    ASSERT_EQ(hits_shared.size(), shared.size());
    EXPECT_EQ(hits_shared, destinations(table, distinct)) << "round " << round;
    // Release a quarter of the handles (freeing the blocks whose last
    // holders go) before the pool reads the rest again.
    shared.resize(shared.size() * 3 / 4);
    distinct.resize(shared.size());
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
