// Property tests of the broker overlay: on random tree topologies with
// random subscriber placement, matching events reach every interested
// client exactly once, covering on/off never changes delivery semantics,
// and unsubscription drains all routing state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

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
