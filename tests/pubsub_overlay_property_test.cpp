// Property tests of the broker overlay: on random tree topologies with
// random subscriber placement, matching events reach every interested
// client exactly once, covering on/off never changes delivery semantics,
// and unsubscription drains all routing state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

struct Scenario {
  sim::Simulator sim;
  sim::Network net;
  std::unique_ptr<Overlay> overlay;
  std::vector<std::unique_ptr<Client>> clients;
  /// client index -> set of feed ids subscribed
  std::vector<std::vector<std::size_t>> interests;
  std::map<std::pair<std::size_t, std::size_t>, int> deliveries;

  explicit Scenario(std::uint64_t seed, bool covering)
      : net(sim, net_config(seed)) {
    util::Rng rng(seed);
    Broker::Config broker_config;
    broker_config.covering_enabled = covering;
    const std::size_t brokers = 2 + rng.index(7);
    overlay = std::make_unique<Overlay>(
        Overlay::random_tree(sim, net, brokers, rng, broker_config));

    const std::size_t client_count = 3 + rng.index(8);
    const std::size_t feed_universe = 5;
    for (std::size_t c = 0; c < client_count; ++c) {
      auto client = std::make_unique<Client>(sim, net,
                                             "c" + std::to_string(c));
      client->connect(overlay->broker(rng.index(brokers)));
      std::vector<std::size_t> feeds;
      const std::size_t n_subs = 1 + rng.index(3);
      for (std::size_t s = 0; s < n_subs; ++s) {
        const std::size_t feed = rng.index(feed_universe);
        if (std::find(feeds.begin(), feeds.end(), feed) != feeds.end()) {
          continue;
        }
        feeds.push_back(feed);
        client->subscribe(
            Filter().and_(eq("feed", static_cast<std::int64_t>(feed))),
            [this, c, feed](const Event&, SubscriptionId) {
              ++deliveries[{c, feed}];
            });
      }
      interests.push_back(std::move(feeds));
      clients.push_back(std::move(client));
    }
    sim.run_until(sim.now() + sim::kMinute);
  }

  static sim::Network::Config net_config(std::uint64_t seed) {
    sim::Network::Config config;
    config.default_latency = sim::kMillisecond;
    config.jitter_fraction = 0.5;
    config.seed = seed;
    return config;
  }
};

class OverlayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayProperty, ExactlyOnceDeliveryToAllInterestedClients) {
  for (const bool covering : {true, false}) {
    Scenario scenario(GetParam(), covering);
    // One publisher per broker so events enter at every point of the tree.
    std::vector<std::unique_ptr<Client>> publishers;
    for (std::size_t b = 0; b < scenario.overlay->size(); ++b) {
      auto p = std::make_unique<Client>(scenario.sim, scenario.net,
                                        "p" + std::to_string(b));
      p->connect(scenario.overlay->broker(b));
      publishers.push_back(std::move(p));
    }
    scenario.sim.run_until(scenario.sim.now() + sim::kMinute);

    util::Rng rng(GetParam() ^ 0xfeed);
    std::vector<int> published_per_feed(5, 0);
    for (int i = 0; i < 40; ++i) {
      const std::size_t feed = rng.index(5);
      const std::size_t broker = rng.index(publishers.size());
      publishers[broker]->publish(
          Event().with("feed", static_cast<std::int64_t>(feed)));
      ++published_per_feed[feed];
    }
    scenario.sim.run_until(scenario.sim.now() + sim::kMinute);

    for (std::size_t c = 0; c < scenario.clients.size(); ++c) {
      for (const std::size_t feed : scenario.interests[c]) {
        EXPECT_EQ((scenario.deliveries[{c, feed}]), published_per_feed[feed])
            << "client " << c << " feed " << feed << " covering="
            << covering;
      }
      // No spurious deliveries for feeds the client never subscribed to.
      int total = 0;
      for (const auto& [key, count] : scenario.deliveries) {
        if (key.first == c) total += count;
      }
      int expected = 0;
      for (const std::size_t feed : scenario.interests[c]) {
        expected += published_per_feed[feed];
      }
      EXPECT_EQ(total, expected) << "client " << c;
    }
  }
}

TEST_P(OverlayProperty, UnsubscribeDrainsAllRoutingState) {
  Scenario scenario(GetParam(), true);
  // An extra client subscribes to every feed, then retracts everything;
  // the overlay-wide routing state must shrink back.
  auto extra = std::make_unique<Client>(scenario.sim, scenario.net, "extra");
  extra->connect(scenario.overlay->broker(0));
  std::vector<SubscriptionId> ids;
  for (int feed = 0; feed < 5; ++feed) {
    ids.push_back(extra->subscribe(
        Filter().and_(eq("feed", static_cast<std::int64_t>(feed)))));
  }
  scenario.sim.run_until(scenario.sim.now() + sim::kMinute);
  const std::size_t with_extra = scenario.overlay->total_table_size();
  for (const auto id : ids) extra->unsubscribe(id);
  scenario.sim.run_until(scenario.sim.now() + sim::kMinute);
  EXPECT_LT(scenario.overlay->total_table_size(), with_extra);
}

// --- same-instant control bursts ---------------------------------------------

/// A seeded churn plan: a tree, client placement, and bursts of client
/// subscription ops. A subscribe draws from a covering family (eq on a
/// feed, that plus a stream, ge on a feed, exists), may repeat a filter
/// already used, and a retraction often targets a subscription added
/// earlier in the same burst.
struct BurstPlan {
  struct Op {
    std::size_t client = 0;
    std::optional<Filter> filter;  ///< set: subscribe this filter
    std::size_t target = 0;        ///< unset: retract the target-th subscribe
  };
  std::size_t brokers = 0;
  std::vector<std::size_t> placement;  ///< client -> broker index
  std::vector<std::vector<Op>> bursts;
  std::vector<sim::Time> gaps;  ///< sim time after each burst

  explicit BurstPlan(std::uint64_t seed) {
    util::Rng rng(seed ^ 0xb0b5);
    brokers = 2 + rng.index(7);
    const std::size_t clients = 3 + rng.index(6);
    for (std::size_t c = 0; c < clients; ++c) {
      placement.push_back(rng.index(brokers));
    }
    std::vector<Filter> used;
    std::vector<std::size_t> owner;  // subscribe index -> client
    std::vector<std::size_t> live;   // subscribe indices not yet retracted
    for (int b = 0; b < 8; ++b) {
      std::vector<Op> burst;
      const std::size_t fresh_from = owner.size();
      const std::size_t ops = 1 + rng.index(10);
      for (std::size_t i = 0; i < ops; ++i) {
        if (!live.empty() && rng.chance(0.35)) {
          // Retract, preferring a subscription of this very burst.
          std::size_t pick = rng.index(live.size());
          if (live.back() >= fresh_from && rng.chance(0.6)) {
            pick = live.size() - 1;
          }
          const std::size_t target = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          burst.push_back(Op{owner[target], std::nullopt, target});
          continue;
        }
        const std::size_t client = rng.index(clients);
        Filter filter = !used.empty() && rng.chance(0.25)
                            ? used[rng.index(used.size())]
                            : covering_family_filter(rng);
        used.push_back(filter);
        live.push_back(owner.size());
        owner.push_back(client);
        burst.push_back(Op{client, std::move(filter), 0});
      }
      bursts.push_back(std::move(burst));
      gaps.push_back(static_cast<sim::Time>(1 + rng.index(40)) *
                     sim::kMillisecond);
    }
  }

  static Filter covering_family_filter(util::Rng& rng) {
    const auto feed = static_cast<std::int64_t>(rng.index(5));
    switch (rng.index(4)) {
      case 0: return Filter().and_(eq("feed", feed));
      case 1: return Filter().and_(eq("feed", feed)).and_(eq("stream", "s"));
      case 2: return Filter().and_(ge("feed", feed));
      default: return Filter().and_(exists("feed"));
    }
  }
};

/// Outcome of one execution of a BurstPlan.
struct BurstOutcome {
  std::vector<std::string> fingerprints;  ///< per broker, at quiescence
  std::map<SubscriptionId, int> deliveries;
  std::map<SubscriptionId, int> expected;  ///< per live subscription
};

/// Runs `plan` issuing each burst in one instant (`same_instant`) or one
/// op per instant, then publishes from every broker.
BurstOutcome run_burst_plan(std::uint64_t seed, const BurstPlan& plan,
                            bool same_instant) {
  sim::Simulator sim;
  sim::Network net(sim, Scenario::net_config(seed));
  util::Rng tree_rng(seed);
  Overlay overlay = Overlay::random_tree(sim, net, plan.brokers, tree_rng);
  BurstOutcome out;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < plan.placement.size(); ++c) {
    clients.push_back(
        std::make_unique<Client>(sim, net, "c" + std::to_string(c)));
    clients.back()->connect(overlay.broker(plan.placement[c]));
  }
  std::vector<std::unique_ptr<Client>> publishers;
  for (std::size_t b = 0; b < plan.brokers; ++b) {
    publishers.push_back(
        std::make_unique<Client>(sim, net, "p" + std::to_string(b)));
    publishers.back()->connect(overlay.broker(b));
  }
  sim.run_until(sim.now() + sim::kMinute);

  std::vector<SubscriptionId> ids;
  std::map<SubscriptionId, Filter> live;
  for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
    for (const BurstPlan::Op& op : plan.bursts[b]) {
      Client& client = *clients[op.client];
      if (op.filter) {
        const SubscriptionId id = client.subscribe(
            *op.filter, [&out](const Event&, SubscriptionId sub) {
              ++out.deliveries[sub];
            });
        ids.push_back(id);
        live.emplace(id, *op.filter);
      } else {
        client.unsubscribe(ids[op.target]);
        live.erase(ids[op.target]);
      }
      if (!same_instant) sim.run_until(sim.now() + 1);
    }
    sim.run_until(sim.now() + plan.gaps[b]);
  }
  sim.run_until(sim.now() + sim::kMinute);
  for (std::size_t b = 0; b < plan.brokers; ++b) {
    out.fingerprints.push_back(
        overlay.broker(b).routing_table().state_fingerprint());
  }

  util::Rng rng(seed ^ 0x9e7);
  std::vector<Event> published;
  for (int i = 0; i < 30; ++i) {
    Event event = Event().with("feed", static_cast<std::int64_t>(rng.index(6)));
    if (rng.chance(0.5)) event.with("stream", "s");
    published.push_back(event);
    publishers[rng.index(publishers.size())]->publish(std::move(event));
  }
  sim.run_until(sim.now() + sim::kMinute);
  for (const auto& [id, filter] : live) {
    out.expected[id] = static_cast<int>(std::count_if(
        published.begin(), published.end(),
        [&filter](const Event& e) { return filter.matches(e); }));
  }
  return out;
}

/// Coalescing is invisible at quiescence: bursts of subscribes, duplicates
/// and same-burst retractions issued in one instant leave every broker in
/// the state the same ops reach one per instant, and later events reach
/// every live subscription exactly once.
TEST_P(OverlayProperty, SameInstantBurstsConvergeToPerInstantState) {
  const BurstPlan plan(GetParam());
  const BurstOutcome burst = run_burst_plan(GetParam(), plan, true);
  const BurstOutcome serial = run_burst_plan(GetParam(), plan, false);
  ASSERT_EQ(burst.fingerprints.size(), serial.fingerprints.size());
  for (std::size_t b = 0; b < burst.fingerprints.size(); ++b) {
    EXPECT_EQ(burst.fingerprints[b], serial.fingerprints[b]) << "broker " << b;
  }
  for (const BurstOutcome* run : {&burst, &serial}) {
    int expected_total = 0;
    for (const auto& [id, count] : run->expected) {
      const auto it = run->deliveries.find(id);
      EXPECT_EQ(it == run->deliveries.end() ? 0 : it->second, count)
          << "subscription " << id;
      expected_total += count;
    }
    int total = 0;
    for (const auto& [id, count] : run->deliveries) total += count;
    EXPECT_EQ(total, expected_total);
  }
}

// --- batch/engine equivalence on randomized filter/event sets ---------------

Filter random_overlay_filter(util::Rng& rng) {
  static const std::vector<std::string> attrs{"feed", "stream", "price",
                                              "text"};
  static const std::vector<std::string> strings{"a", "b", "ab", "c"};
  std::vector<Constraint> cs;
  const std::size_t n = 1 + rng.index(3);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& attr = attrs[rng.index(attrs.size())];
    switch (rng.index(5)) {
      case 0:
        cs.push_back(eq(attr, static_cast<std::int64_t>(rng.index(6))));
        break;
      case 1:
        cs.push_back(eq(attr, strings[rng.index(strings.size())]));
        break;
      case 2:
        cs.push_back(ge(attr, static_cast<double>(rng.index(6))));
        break;
      case 3:
        cs.push_back(prefix(attr, strings[rng.index(strings.size())]));
        break;
      default:
        cs.push_back(exists(attr));
        break;
    }
  }
  return Filter(std::move(cs));
}

Event random_overlay_event(util::Rng& rng) {
  static const std::vector<std::string> attrs{"feed", "stream", "price",
                                              "text"};
  static const std::vector<std::string> strings{"a", "b", "ab", "c"};
  Event e;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& attr = attrs[rng.index(attrs.size())];
    if (rng.chance(0.6)) {
      e.with(attr, static_cast<std::int64_t>(rng.index(6)));
    } else {
      e.with(attr, strings[rng.index(strings.size())]);
    }
  }
  return e;
}

/// Property (and PR acceptance gate): on randomized filter/event sets,
/// every engine's match_batch equals its own per-event
/// match, and both equal the brute-force oracle.
TEST_P(OverlayProperty, MatchBatchEqualsPerEventMatchAgainstOracle) {
  util::Rng rng(GetParam() ^ 0xbead);
  std::vector<Filter> filters;
  for (int i = 0; i < 150; ++i) {
    filters.push_back(random_overlay_filter(rng));
  }
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) {
    events.push_back(random_overlay_event(rng));
  }

  BruteForceMatcher oracle;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    oracle.add(i + 1, filters[i]);
  }

  for (const std::string_view name : kBuiltinEngines) {
    const auto engine = make_matcher(name);
    const std::string engine_name(name);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      engine->add(i + 1, filters[i]);
    }
    std::vector<std::vector<SubscriptionId>> batched;
    engine->match_batch(events, batched);
    ASSERT_EQ(batched.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      auto expected = oracle.match(events[i]);
      auto per_event = engine->match(events[i]);
      auto from_batch = batched[i];
      std::sort(expected.begin(), expected.end());
      std::sort(per_event.begin(), per_event.end());
      std::sort(from_batch.begin(), from_batch.end());
      ASSERT_EQ(per_event, expected)
          << engine_name << " diverges from oracle on "
          << events[i].to_string();
      ASSERT_EQ(from_batch, expected)
          << engine_name << "::match_batch diverges on "
          << events[i].to_string();
    }
  }
}

/// Every engine drives the full overlay to identical deliveries.
TEST_P(OverlayProperty, AllEnginesDeliverIdenticallyThroughOverlay) {
  std::map<std::string, std::map<std::pair<std::size_t, std::size_t>, int>>
      per_engine;
  for (const std::string_view engine : kBuiltinEngines) {
    sim::Simulator sim;
    sim::Network net(sim, Scenario::net_config(GetParam()));
    util::Rng rng(GetParam());
    Broker::Config config;
    config.matcher_engine = std::string(engine);
    Overlay overlay = Overlay::chain(sim, net, 3, config);
    std::vector<std::unique_ptr<Client>> clients;
    std::map<std::pair<std::size_t, std::size_t>, int> deliveries;
    for (std::size_t c = 0; c < 4; ++c) {
      auto client = std::make_unique<Client>(sim, net,
                                             "c" + std::to_string(c));
      client->connect(overlay.broker(c % 3));
      for (std::size_t feed = c % 2; feed < 4; feed += 2) {
        client->subscribe(
            Filter().and_(eq("feed", static_cast<std::int64_t>(feed))),
            [&deliveries, c, feed](const Event&, SubscriptionId) {
              ++deliveries[{c, feed}];
            });
      }
      clients.push_back(std::move(client));
    }
    Client pub(sim, net, "pub");
    pub.connect(overlay.broker(0));
    sim.run_until(sim.now() + sim::kMinute);
    for (int i = 0; i < 30; ++i) {
      pub.publish(
          Event().with("feed", static_cast<std::int64_t>(rng.index(4))));
    }
    sim.run_until(sim.now() + sim::kMinute);
    per_engine[std::string(engine)] = deliveries;
  }
  const auto& reference = per_engine.begin()->second;
  for (const auto& [engine_name, deliveries] : per_engine) {
    EXPECT_EQ(deliveries, reference) << engine_name;
  }
}

/// Worker counts drive the overlay to *order-identical* deliveries: for a
/// seeded workload, each engine with and without worker threads must
/// produce the same per-client delivery sequence — not just the same
/// delivery counts. The worker split concatenates contiguous ranges in
/// batch order and the per-interface grouping in the broker is set-based
/// per event, so the wire schedule cannot depend on thread scheduling.
TEST_P(OverlayProperty, WorkerCountsDeliverInIdenticalOrder) {
  for (const std::string_view engine : kBuiltinEngines) {
    const std::string inner(engine);
    std::map<std::string, std::vector<std::string>> logs;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      sim::Simulator sim;
      sim::Network net(sim, Scenario::net_config(GetParam()));
      util::Rng rng(GetParam() ^ 0x0dde);
      Broker::Config config;
      config.matcher_engine = inner;
      config.worker_threads = workers;
      Overlay overlay = Overlay::chain(sim, net, 3, config);
      std::vector<std::string> log;
      std::vector<std::unique_ptr<Client>> clients;
      for (std::size_t c = 0; c < 4; ++c) {
        auto client = std::make_unique<Client>(sim, net,
                                               "c" + std::to_string(c));
        client->connect(overlay.broker(c % 3));
        for (int i = 0; i < 6; ++i) {
          client->subscribe(random_overlay_filter(rng),
                            [&log, c](const Event& e, SubscriptionId s) {
                              log.push_back("c" + std::to_string(c) + "/s" +
                                            std::to_string(s) + ":" +
                                            e.to_string());
                            });
        }
        clients.push_back(std::move(client));
      }
      Client pub(sim, net, "pub");
      pub.connect(overlay.broker(1));
      sim.run_until(sim.now() + sim::kMinute);
      for (int burst = 0; burst < 10; ++burst) {
        std::vector<Event> bundle;
        for (int i = 0; i < 5; ++i) {
          bundle.push_back(random_overlay_event(rng));
        }
        pub.publish_batch(std::move(bundle));
        sim.run_until(sim.now() + sim::kSecond);
      }
      sim.run_until(sim.now() + sim::kMinute);
      const std::string label = inner + "/w" + std::to_string(workers);
      logs[label] = std::move(log);
    }
    const auto& reference = logs.begin()->second;
    EXPECT_FALSE(reference.empty()) << inner;
    for (const auto& [label, log] : logs) {
      EXPECT_EQ(log, reference) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace reef::pubsub
