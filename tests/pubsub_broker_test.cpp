#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {
namespace {

struct Harness {
  sim::Simulator sim;
  sim::Network net;
  explicit Harness(sim::Network::Config config = fast()) : net(sim, config) {}
  static sim::Network::Config fast() {
    sim::Network::Config config;
    config.default_latency = sim::kMillisecond;
    config.jitter_fraction = 0.0;
    return config;
  }
  void settle() { sim.run_until(sim.now() + 10 * sim::kSecond); }
};

Filter stock(const std::string& sym) {
  return Filter().and_(eq("sym", sym));
}

TEST(Broker, LocalDeliveryThroughSingleBroker) {
  Harness h;
  Broker broker(h.sim, h.net, "b0");
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  std::vector<Event> got;
  sub.subscribe(stock("ACME"),
                [&](const Event& e, SubscriptionId) { got.push_back(e); });
  h.settle();
  pub.publish(Event().with("sym", "ACME").with("price", 10.0));
  pub.publish(Event().with("sym", "OTHER").with("price", 10.0));
  h.settle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].find("sym")->as_string(), "ACME");
  EXPECT_EQ(sub.deliveries(), 1u);
}

TEST(Broker, PublisherDoesNotReceiveOwnEcho) {
  Harness h;
  Broker broker(h.sim, h.net, "b0");
  Client both(h.sim, h.net, "both");
  both.connect(broker);
  int self_got = 0;
  both.subscribe(stock("A"),
                 [&](const Event&, SubscriptionId) { ++self_got; });
  h.settle();
  both.publish(Event().with("sym", "A"));
  h.settle();
  // Events are not echoed to the interface they arrived from.
  EXPECT_EQ(self_got, 0);
}

TEST(Broker, RoutesAcrossChain) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 4);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(3));

  int got = 0;
  sub.subscribe(stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  EXPECT_EQ(got, 1);
  // Subscription propagated along the chain.
  EXPECT_GE(overlay.broker(0).table_size(), 1u);
}

TEST(Broker, PublicationNotForwardedWithoutSubscribers) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 3);
  Client pub(h.sim, h.net, "pub");
  pub.connect(overlay.broker(0));
  h.settle();
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(overlay.total_pubs_forwarded(), 0u);
  EXPECT_EQ(overlay.broker(1).stats().pubs_received, 0u);
}

TEST(Broker, UnsubscribeStopsDelivery) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  int got = 0;
  const auto id = sub.subscribe(stock("A"),
                                [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(got, 1);

  sub.unsubscribe(id);
  h.settle();
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(got, 1);
  // Routing state fully retracted on both brokers.
  EXPECT_EQ(overlay.broker(0).table_size(), 0u);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);
}

TEST(Broker, BestEffortControlOpsSendOneMessageEach) {
  // With reliability off each subscription op leaves exactly once,
  // unsequenced and unacked, under its own type tag, at the byte size
  // ctrl_op_wire_size gives its kind.
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(0));
  h.settle();
  const auto count = [&](std::string_view type) {
    return h.net.messages_by_type().get(std::string(type));
  };
  const auto bytes = [&](std::string_view type) {
    return h.net.bytes_by_type().get(std::string(type));
  };
  ScoringSpec spec;
  spec.policy = ScoringPolicy::kBm25;
  spec.query = {{"acme", 1.5}};
  spec.text_attrs = {"title"};
  spec.top_k = 2;
  ASSERT_FALSE(spec.neutral());
  ASSERT_GT(spec.wire_size(), 0u);
  const Filter filter = stock("ACME");

  const SubscriptionId id = sub.subscribe_scored(filter, spec);
  h.settle();
  EXPECT_EQ(overlay.broker(0).table_size(), 1u);
  EXPECT_EQ(overlay.broker(1).table_size(), 1u);
  EXPECT_EQ(count(kTypeClientSubscribe), 1u);
  EXPECT_EQ(bytes(kTypeClientSubscribe),
            filter.wire_size() + 16 + spec.wire_size());
  EXPECT_EQ(count(kTypeSubscribe), 1u);
  EXPECT_EQ(bytes(kTypeSubscribe), filter.wire_size() + 8);

  sub.unsubscribe(id);
  h.settle();
  EXPECT_EQ(overlay.broker(0).table_size(), 0u);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);
  EXPECT_EQ(count(kTypeClientUnsubscribe), 1u);
  EXPECT_EQ(bytes(kTypeClientUnsubscribe), 16u);
  EXPECT_EQ(count(kTypeUnsubscribe), 1u);
  EXPECT_EQ(bytes(kTypeUnsubscribe), filter.wire_size() + 8);
  // Nothing rode the reliable stream.
  EXPECT_EQ(count(kTypeCtrl), 0u);
  EXPECT_EQ(count(kTypeCtrlAck), 0u);
}

TEST(Broker, PublicationAndDeliveryFramingBytes) {
  // One payload type per direction, two framings: a one-entry message
  // keeps the single-event tag and an 8-byte message header; a multi-entry
  // message carries an 8-byte batch header plus 2 bytes per entry. Each
  // publication crosses two hops (client -> broker 0 -> broker 1), each
  // metered the same. A non-neutral spec puts a score beside every
  // matched id of the subscriber's mixed list.
  for (const bool scored : {false, true}) {
    SCOPED_TRACE(scored ? "scored" : "unscored");
    Harness h;
    Broker::Config config;
    config.scoring_enabled = scored;
    Overlay overlay = Overlay::chain(h.sim, h.net, 2, config);
    Client pub(h.sim, h.net, "pub");
    Client sub(h.sim, h.net, "sub");
    pub.connect(overlay.broker(0));
    sub.connect(overlay.broker(1));
    ScoringSpec spec;
    if (scored) {
      spec.policy = ScoringPolicy::kBm25;
      spec.query = {{"acme", 1.5}};
      spec.text_attrs = {"title"};
      spec.top_k = 8;  // cuts nothing below
    }
    sub.subscribe_scored(stock("A"), spec);
    sub.subscribe(Filter().and_(exists("sym")));
    h.settle();
    const std::size_t matched = 2;
    const std::size_t scores = scored ? matched : 0;
    const auto messages = [&](std::string_view type) {
      return h.net.messages_by_type().get(std::string(type));
    };
    const auto bytes = [&](std::string_view type) {
      return h.net.bytes_by_type().get(std::string(type));
    };
    const auto units = [&](std::string_view type) {
      return h.net.units_by_type().get(std::string(type));
    };

    const Event single = Event().with("sym", "A").with("title", "acme up");
    pub.publish(single);
    h.settle();
    EXPECT_EQ(messages(kTypePublish), 2u);
    EXPECT_EQ(bytes(kTypePublish), 2 * (single.wire_size() + 8));
    EXPECT_EQ(units(kTypePublish), 2u);
    EXPECT_EQ(messages(kTypeDeliver), 1u);
    EXPECT_EQ(bytes(kTypeDeliver),
              single.wire_size() + 8 * matched + 8 * scores + 8);
    EXPECT_EQ(units(kTypeDeliver), 1u);
    EXPECT_EQ(messages(kTypePublishBatch), 0u);
    EXPECT_EQ(messages(kTypeDeliverBatch), 0u);
    EXPECT_EQ(sub.batches_received(), 0u);

    const std::vector<Event> batch = {
        Event().with("sym", "A").with("title", "acme"),
        Event().with("sym", "A").with("title", "acme acme down"),
        Event().with("sym", "A").with("seq", 3)};
    std::size_t publish_bytes = 8;
    std::size_t deliver_bytes = 8;
    for (const Event& event : batch) {
      publish_bytes += event.wire_size() + 2;
      deliver_bytes += event.wire_size() + 8 * matched + 8 * scores + 2;
    }
    pub.publish_batch(batch);
    h.settle();
    EXPECT_EQ(messages(kTypePublishBatch), 2u);
    EXPECT_EQ(bytes(kTypePublishBatch), 2 * publish_bytes);
    EXPECT_EQ(units(kTypePublishBatch), 6u);
    EXPECT_EQ(messages(kTypeDeliverBatch), 1u);
    EXPECT_EQ(bytes(kTypeDeliverBatch), deliver_bytes);
    EXPECT_EQ(units(kTypeDeliverBatch), 3u);
    // The single-event tags saw nothing more.
    EXPECT_EQ(messages(kTypePublish), 2u);
    EXPECT_EQ(messages(kTypeDeliver), 1u);
    EXPECT_EQ(sub.deliveries(), 4 * matched);
    EXPECT_EQ(sub.batches_received(), 1u);
  }
}

TEST(Broker, CoveringPrunesForwardedSubscriptions) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(1));

  // Broad filter first; narrower ones are covered and must not be
  // forwarded to broker 0.
  sub.subscribe(Filter().and_(eq("stream", "feed")));
  h.settle();
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);

  sub.subscribe(Filter()
                    .and_(eq("stream", "feed"))
                    .and_(eq("feed", "http://x/a.rss")));
  sub.subscribe(Filter()
                    .and_(eq("stream", "feed"))
                    .and_(eq("feed", "http://x/b.rss")));
  h.settle();
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);
  EXPECT_EQ(overlay.broker(0).table_size(), 1u);
}

TEST(Broker, UncoveringResendsOnBroadUnsubscribe) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(1));

  const auto broad = sub.subscribe(Filter().and_(eq("stream", "feed")));
  const Filter narrow_filter =
      Filter().and_(eq("stream", "feed")).and_(eq("feed", "http://x/a.rss"));
  sub.subscribe(narrow_filter);
  h.settle();
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);

  // Retracting the broad filter must re-expose the narrow one upstream.
  sub.unsubscribe(broad);
  h.settle();
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);
  EXPECT_EQ(overlay.broker(0).table_size(), 1u);

  // And events for the narrow filter still flow.
  Client pub(h.sim, h.net, "pub");
  pub.connect(overlay.broker(0));
  int got = 0;
  // reuse the narrow subscription: count deliveries to the client
  sub.subscribe(narrow_filter,
                [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event()
                  .with("stream", "feed")
                  .with("feed", "http://x/a.rss"));
  h.settle();
  EXPECT_GE(got, 1);
}

TEST(Broker, SameInstantBurstForwardsOnlyItsCoveringNetDiff) {
  // N narrow filters, then the broad one covering them, all reaching the
  // edge broker in one instant: each hop forwards the broad filter once
  // and nothing else — no narrow subscribe later retracted by the broad.
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 3);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(2));
  h.settle();
  constexpr int kNarrow = 5;
  for (int i = 0; i < kNarrow; ++i) {
    sub.subscribe(Filter()
                      .and_(eq("stream", "feed"))
                      .and_(eq("feed", "http://x/" + std::to_string(i))));
  }
  sub.subscribe(Filter().and_(eq("stream", "feed")));
  h.settle();
  for (const std::size_t b : {std::size_t{2}, std::size_t{1}}) {
    EXPECT_EQ(overlay.broker(b).stats().subs_forwarded, 1u) << "broker " << b;
    EXPECT_EQ(overlay.broker(b).stats().unsubs_forwarded, 0u)
        << "broker " << b;
  }
  EXPECT_EQ(overlay.broker(0).stats().subs_forwarded, 0u);
  EXPECT_EQ(h.net.messages_by_type().get(std::string(kTypeSubscribe)), 2u);
  EXPECT_EQ(h.net.messages_by_type().get(std::string(kTypeUnsubscribe)), 0u);
  EXPECT_EQ(overlay.broker(0).table_size(), 1u);
  EXPECT_EQ(overlay.broker(2).table_size(),
            static_cast<std::size_t>(kNarrow + 1));
}

TEST(Broker, SameInstantSubscribeAndRetractForwardsNothing) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(1));
  h.settle();
  sub.unsubscribe(sub.subscribe(stock("ACME")));
  h.settle();
  for (const std::size_t b : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_EQ(overlay.broker(b).stats().subs_received, b == 1 ? 2u : 0u);
    EXPECT_EQ(overlay.broker(b).stats().subs_forwarded, 0u) << "broker " << b;
    EXPECT_EQ(overlay.broker(b).stats().unsubs_forwarded, 0u)
        << "broker " << b;
    EXPECT_EQ(overlay.broker(b).table_size(), 0u) << "broker " << b;
  }
}

TEST(Broker, CoveringDisabledForwardsEverything) {
  Broker::Config no_cover;
  no_cover.covering_enabled = false;
  Harness h;
  Overlay overlay(h.sim, h.net, no_cover);
  overlay.add_broker();
  overlay.add_broker();
  overlay.link(0, 1);
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(1));
  sub.subscribe(Filter().and_(eq("stream", "feed")));
  sub.subscribe(
      Filter().and_(eq("stream", "feed")).and_(eq("feed", "http://x/a.rss")));
  h.settle();
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 2u);
}

TEST(Broker, StarTopologyDeliversToAllInterestedLeaves) {
  Harness h;
  Overlay overlay = Overlay::star(h.sim, h.net, 5);
  Client pub(h.sim, h.net, "pub");
  pub.connect(overlay.broker(1));
  std::vector<std::unique_ptr<Client>> subs;
  int total = 0;
  for (std::size_t i = 2; i < 5; ++i) {
    auto c = std::make_unique<Client>(h.sim, h.net, "s" + std::to_string(i));
    c->connect(overlay.broker(i));
    c->subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++total; });
    subs.push_back(std::move(c));
  }
  h.settle();
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(total, 3);
}

TEST(Broker, IdenticalFiltersFromManyClientsAggregated) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  std::vector<std::unique_ptr<Client>> subs;
  for (int i = 0; i < 5; ++i) {
    auto c = std::make_unique<Client>(h.sim, h.net, "c" + std::to_string(i));
    c->connect(overlay.broker(1));
    c->subscribe(stock("A"));
    subs.push_back(std::move(c));
  }
  h.settle();
  // Five client subscriptions, one forwarded filter.
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);
}

TEST(Client, SubscribeAnyDeduplicatesAcrossBranches) {
  Harness h;
  Broker broker(h.sim, h.net, "b0");
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  int fired = 0;
  const auto ids = sub.subscribe_any(
      {Filter().and_(contains("text", "storm")),
       Filter().and_(contains("text", "coast"))},
      [&](const Event&, SubscriptionId) { ++fired; });
  EXPECT_EQ(ids.size(), 2u);
  h.settle();

  // Matches both branches: handler fires once.
  pub.publish(Event().with("text", "storm hits coast"));
  // Matches one branch: fires once.
  pub.publish(Event().with("text", "coast is clear"));
  // Matches neither: no fire.
  pub.publish(Event().with("text", "sunny day"));
  h.settle();
  EXPECT_EQ(fired, 2);

  for (const auto id : ids) sub.unsubscribe(id);
  h.settle();
  pub.publish(Event().with("text", "storm again"));
  h.settle();
  EXPECT_EQ(fired, 2);
}

TEST(Broker, CrashedBrokerDropsTrafficUntilRestored) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 3);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(2));
  int got = 0;
  sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();

  // Kill the middle broker: events are lost in transit (pub/sub gives no
  // delivery guarantee across failures).
  h.net.set_node_up(overlay.broker(1).id(), false);
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(got, 0);

  // Restore it: routing state is still in place (brokers keep their
  // tables), so new publications flow again.
  h.net.set_node_up(overlay.broker(1).id(), true);
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(got, 1);
}

TEST(Overlay, LinkRejectsCycles) {
  Harness h;
  Overlay overlay(h.sim, h.net);
  overlay.add_broker();
  overlay.add_broker();
  overlay.add_broker();
  overlay.link(0, 1);
  overlay.link(1, 2);
  EXPECT_THROW(overlay.link(0, 2), std::invalid_argument);
  EXPECT_THROW(overlay.link(0, 0), std::invalid_argument);
}

TEST(Overlay, TopologiesAreAcyclicAndConnected) {
  Harness h;
  const Overlay tree = Overlay::tree(h.sim, h.net, 7, 2);
  EXPECT_EQ(tree.size(), 7u);
  util::Rng rng(3);
  Harness h2;
  const Overlay random = Overlay::random_tree(h2.sim, h2.net, 10, rng);
  EXPECT_EQ(random.size(), 10u);
  std::size_t degree_total = 0;
  for (std::size_t i = 0; i < random.size(); ++i) {
    degree_total += random.broker(i).neighbor_count();
  }
  EXPECT_EQ(degree_total, 2 * (random.size() - 1));  // n-1 edges
}

TEST(Broker, BruteForceMatcherConfigWorksEndToEnd) {
  Broker::Config config;
  config.matcher_engine = "brute-force";
  Harness h;
  Broker broker(h.sim, h.net, "b", config);
  Client pub(h.sim, h.net, "p");
  Client sub(h.sim, h.net, "s");
  pub.connect(broker);
  sub.connect(broker);
  int got = 0;
  sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event().with("sym", "A"));
  h.settle();
  EXPECT_EQ(got, 1);
}

TEST(Broker, EveryBuiltinEngineWorksEndToEnd) {
  for (const std::string_view engine : kBuiltinEngines) {
    Broker::Config config;
    config.matcher_engine = engine;
    Harness h;
    Broker broker(h.sim, h.net, "b", config);
    Client pub(h.sim, h.net, "p");
    Client sub(h.sim, h.net, "s");
    pub.connect(broker);
    sub.connect(broker);
    int got = 0;
    sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
    h.settle();
    pub.publish(Event().with("sym", "A"));
    pub.publish(Event().with("sym", "B"));
    h.settle();
    EXPECT_EQ(got, 1) << engine;
  }
}

TEST(Broker, SameTickPublicationsCoalesceIntoBatches) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  int got = 0;
  sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();

  // Ten publications in the same call stack arrive at broker 0 in the
  // same sim tick (zero jitter): one batched wire message crosses the
  // broker-broker link, and one batched delivery reaches the client.
  for (int i = 0; i < 10; ++i) {
    pub.publish(Event().with("sym", "A").with("seq", i));
  }
  h.settle();
  EXPECT_EQ(got, 10);
  const Broker::Stats& b0 = overlay.broker(0).stats();
  EXPECT_EQ(b0.pubs_forwarded, 10u);
  EXPECT_EQ(b0.pub_msgs_sent, 1u);
  EXPECT_EQ(h.net.messages_by_type().get(std::string(kTypePublishBatch)),
            1u);
  // Batch-aware accounting: the batch message carries 10 logical units.
  EXPECT_EQ(h.net.units_by_type().get(std::string(kTypePublishBatch)), 10u);
  const Broker::Stats& b1 = overlay.broker(1).stats();
  EXPECT_EQ(b1.deliveries, 10u);
  EXPECT_EQ(b1.deliver_msgs_sent, 1u);
  EXPECT_EQ(sub.batches_received(), 1u);
}

TEST(Broker, ClientPublishBatchFlowsThroughBatchMatchPath) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  std::vector<std::int64_t> seqs;
  sub.subscribe(stock("A"), [&](const Event& e, SubscriptionId) {
    seqs.push_back(e.find("seq")->as_int());
  });
  h.settle();

  std::vector<Event> burst;
  for (int i = 0; i < 5; ++i) {
    burst.push_back(Event().with("sym", "A").with("seq", i));
  }
  burst.push_back(Event().with("sym", "OTHER").with("seq", 99));
  pub.publish_batch(std::move(burst));
  h.settle();
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pub.published(), 6u);
  // The broker matched the whole batch in one matcher invocation.
  EXPECT_EQ(overlay.broker(0).stats().matches_run, 1u);
  EXPECT_EQ(overlay.broker(0).stats().pubs_received, 6u);
}

/// An Event is a handle to one shared attribute block (event.h), and the
/// broker path copies only handles: every forward and every delivery of
/// one publication, on every broker of the line, through handlers and the
/// inbox, single messages and batches, reads the block the publisher built.
TEST(Broker, EveryDeliveryOfAPublicationSharesItsAttributeBlock) {
  for (const bool scoring : {false, true}) {
    Broker::Config config;
    config.scoring_enabled = scoring;  // the scored routing path too
    Harness h;
    Overlay overlay = Overlay::chain(h.sim, h.net, 3, config);
    Client pub(h.sim, h.net, "pub");
    pub.connect(overlay.broker(0));
    std::vector<std::unique_ptr<Client>> subs;
    // (seq, block) for every handler delivery on every broker.
    std::vector<std::pair<std::int64_t, const void*>> seen;
    for (std::size_t b = 0; b < 3; ++b) {
      for (const bool inbox : {false, true}) {
        auto& client = subs.emplace_back(std::make_unique<Client>(
            h.sim, h.net, "sub" + std::to_string(b) + (inbox ? "i" : "")));
        client->connect(overlay.broker(b));
        if (inbox) {
          client->subscribe(stock("A"));
          continue;
        }
        client->subscribe(stock("A"), [&](const Event& e, SubscriptionId) {
          seen.emplace_back(e.find("seq")->as_int(), &e.attrs());
        });
        client->subscribe(Filter().and_(exists("seq")),
                          [&](const Event& e, SubscriptionId) {
                            seen.emplace_back(e.find("seq")->as_int(),
                                              &e.attrs());
                          });
      }
    }
    h.settle();

    std::vector<Event> published;  // the publisher keeps a handle to each
    for (int i = 0; i < 4; ++i) {
      published.push_back(Event().with("sym", "A").with("seq", i));
    }
    pub.publish(published[0]);  // a one-event message
    h.settle();
    pub.publish_batch({published[1], published[2], published[3]});
    h.settle();

    // 3 brokers x 2 matching subscriptions of the handler client.
    ASSERT_EQ(seen.size(), 4u * 3 * 2) << "scoring " << scoring;
    for (const auto& [seq, block] : seen) {
      EXPECT_EQ(block, &published[seq].attrs())
          << "scoring " << scoring << " seq " << seq;
    }
    for (const auto& client : subs) {
      for (const auto& [event, sub] : client->inbox()) {
        const std::int64_t seq = event.find("seq")->as_int();
        EXPECT_EQ(&event.attrs(), &published[seq].attrs())
            << "scoring " << scoring << " inbox of " << client->name();
      }
    }
    EXPECT_EQ(subs[1]->inbox().size(), 4u);
  }
}

// --- flush timer -------------------------------------------------------------

TEST(BrokerFlush, DefaultConfigFlushesPerTick) {
  // The ablation baseline: delay 0 — the whole tick's output leaves in one
  // message per interface, with zero residence (nothing ever waits past
  // its arrival instant).
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  int got = 0;
  sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  for (int i = 0; i < 10; ++i) {
    pub.publish(Event().with("sym", "A").with("seq", i));
  }
  h.settle();
  EXPECT_EQ(got, 10);
  const Broker::Stats& b0 = overlay.broker(0).stats();
  EXPECT_EQ(b0.pub_msgs_sent, 1u);
  EXPECT_EQ(b0.flushed_units, 10u);
  EXPECT_EQ(b0.residence_ticks_total, 0);
  const Broker::Stats& b1 = overlay.broker(1).stats();
  EXPECT_EQ(b1.deliver_msgs_sent, 1u);
  EXPECT_EQ(b1.flushed_units, 10u);
}

TEST(BrokerFlush, DelayBudgetCoalescesAcrossTicks) {
  // The scenario per-tick flushing could not express: two publications a
  // few ticks apart leave the broker in ONE wire message, because the
  // delay budget holds the first until the second arrives.
  Broker::Config config;
  config.flush_max_delay_ticks = 10 * sim::kMillisecond;
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2, config);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  int got = 0;
  sub.subscribe(stock("A"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();

  pub.publish(Event().with("sym", "A").with("seq", 0));
  h.sim.run_until(h.sim.now() + 2 * sim::kMillisecond);
  pub.publish(Event().with("sym", "A").with("seq", 1));
  h.settle();
  EXPECT_EQ(got, 2);
  const Broker::Stats& b0 = overlay.broker(0).stats();
  EXPECT_EQ(b0.pubs_forwarded, 2u);
  EXPECT_EQ(b0.pub_msgs_sent, 1u);
  EXPECT_EQ(b0.flushed_units, 2u);
  // The first event waited the full budget, the second (arriving 2ms
  // later) the remainder: 10ms + 8ms of residence.
  EXPECT_EQ(b0.residence_ticks_total, 18 * sim::kMillisecond);
  EXPECT_EQ(h.net.units_by_type().get(std::string(kTypePublishBatch)), 2u);
  EXPECT_EQ(overlay.broker(1).stats().deliver_msgs_sent, 1u);
  EXPECT_EQ(sub.batches_received(), 1u);
}

}  // namespace
}  // namespace reef::pubsub
