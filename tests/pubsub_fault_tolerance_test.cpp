// Fault-tolerance tests: the reliable control channel (retransmission,
// ack suppression, duplicate/gap handling), broker crash/restart with
// anti-entropy resync, and heartbeat-driven neighbor quarantine.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "pubsub/reliable_channel.h"
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
  void run_for(sim::Time d) { sim.run_until(sim.now() + d); }
};

Filter stock(const std::string& sym) {
  return Filter().and_(eq("sym", sym));
}

ReliableChannel::Config fast_channel() {
  ReliableChannel::Config config;
  config.enabled = true;
  config.retransmit_timeout = 20 * sim::kMillisecond;
  return config;
}

Broker::Config reliable_config() {
  Broker::Config config;
  config.control.enabled = true;
  // Broker-broker links run at 10ms (Overlay::link default): keep the
  // timeout clear of the 20ms acked RTT so only real faults retransmit.
  config.control.retransmit_timeout = 50 * sim::kMillisecond;
  return config;
}

// ---------------------------------------------------------------------------
// ReliableChannel in isolation: two bare endpoints on the simulated network.

struct ChannelNode final : sim::Node {
  sim::NodeId id = sim::kNoNode;
  ReliableChannel channel;
  std::vector<std::string> got;  ///< delivered op filter keys, in order
  std::vector<CtrlOp> ops;       ///< the delivered ops themselves

  ChannelNode(Harness& h, const std::string& name,
              ReliableChannel::Config config = fast_channel())
      : channel(h.sim, h.net, config) {
    id = h.net.attach(*this, name);
    channel.bind(id);
    channel.set_deliver([this](sim::NodeId, const CtrlOp& op) {
      got.push_back(op.filter.key());
      ops.push_back(op);
    });
  }
  void handle_message(const sim::Message& msg) override {
    ASSERT_TRUE(channel.on_message(msg)) << "unexpected " << msg.type;
  }
};

CtrlOp sub_op(const std::string& sym) {
  CtrlOp op;
  op.kind = CtrlOp::Kind::kSubscribe;
  op.filter = stock(sym);
  return op;
}

TEST(ReliableChannel, RetransmitAfterTimeoutRepairsPartition) {
  Harness h;
  ChannelNode a(h, "a"), b(h, "b");
  h.net.set_partitioned(a.id, b.id, true);
  a.channel.send(b.id, sub_op("ACME"));
  h.run_for(500 * sim::kMillisecond);
  // Every resend fell into the partition, but the sender kept trying.
  EXPECT_GE(a.channel.stats().retransmits, 2u);
  EXPECT_EQ(a.channel.unacked(b.id), 1u);
  EXPECT_TRUE(b.got.empty());

  h.net.set_partitioned(a.id, b.id, false);
  h.settle();
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0], stock("ACME").key());
  EXPECT_EQ(a.channel.unacked(b.id), 0u);
}

TEST(ReliableChannel, AckSuppressesRetransmit) {
  Harness h;
  ChannelNode a(h, "a"), b(h, "b");
  a.channel.send(b.id, sub_op("A"));
  a.channel.send(b.id, sub_op("B"));
  a.channel.send(b.id, sub_op("C"));
  h.settle();  // far past many retransmission timeouts
  ASSERT_EQ(b.got.size(), 3u);
  EXPECT_EQ(b.got, (std::vector<std::string>{
                       stock("A").key(), stock("B").key(), stock("C").key()}));
  EXPECT_EQ(a.channel.stats().retransmits, 0u);
  EXPECT_EQ(a.channel.stats().acks_received, 3u);
  EXPECT_EQ(a.channel.unacked(b.id), 0u);
}

TEST(ReliableChannel, DuplicateDeliveryIsIdempotent) {
  Harness h;
  ChannelNode a(h, "a"), b(h, "b");
  a.channel.send(b.id, sub_op("ACME"));
  // Let the op land (1ms latency) but partition before its ack returns:
  // the sender times out and retransmits a message the receiver already
  // delivered. The receiver must drop the duplicate and only re-ack.
  h.run_for(sim::kMillisecond + sim::kMillisecond / 2);
  ASSERT_EQ(b.got.size(), 1u);
  h.net.set_partitioned(a.id, b.id, true);
  h.run_for(100 * sim::kMillisecond);
  EXPECT_GE(a.channel.stats().retransmits, 1u);
  h.net.set_partitioned(a.id, b.id, false);
  h.settle();
  EXPECT_EQ(b.got.size(), 1u);  // no duplicate effect
  EXPECT_GE(b.channel.stats().duplicates_dropped, 1u);
  EXPECT_EQ(a.channel.unacked(b.id), 0u);  // the re-ack drained the window
}

TEST(ReliableChannel, GoBackNRepairsReorderingAcrossLossyLink) {
  Harness h;
  ChannelNode a(h, "a"), b(h, "b");
  // First op is lost on the wire, second one gets through: it arrives
  // out of order (seq 2 before seq 1), is dropped as a gap, and the
  // timeout-driven window resend replays both in order.
  h.net.set_loss_probability(a.id, b.id, 1.0);
  a.channel.send(b.id, sub_op("FIRST"));
  h.run_for(5 * sim::kMillisecond);
  h.net.set_loss_probability(a.id, b.id, 0.0);
  a.channel.send(b.id, sub_op("SECOND"));
  h.settle();
  ASSERT_EQ(b.got.size(), 2u);
  EXPECT_EQ(b.got[0], stock("FIRST").key());
  EXPECT_EQ(b.got[1], stock("SECOND").key());
  EXPECT_GE(b.channel.stats().gaps_dropped, 1u);
  EXPECT_GE(a.channel.stats().retransmits, 1u);
  EXPECT_GE(h.net.dropped_by_loss(), 1u);
  EXPECT_EQ(a.channel.unacked(b.id), 0u);
}

// ---------------------------------------------------------------------------
// Overlay-level fault injection.

TEST(FaultTolerance, RetransmitRepairsPartitionedSubscriptionForwarding) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2, reliable_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(1));
  sub.connect(overlay.broker(0));
  sub.enable_reliable_control(fast_channel());
  pub.enable_reliable_control(fast_channel());
  h.settle();

  overlay.set_link_partitioned(0, 1, true);
  int got = 0;
  sub.subscribe(stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.run_for(sim::kSecond);
  // The client->broker hop worked; the broker->broker forward is stuck in
  // the partition and retransmitting.
  EXPECT_GE(overlay.broker(0).stats().retransmits, 1u);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);

  overlay.set_link_partitioned(0, 1, false);
  h.settle();
  EXPECT_GE(overlay.broker(1).table_size(), 1u);
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  EXPECT_EQ(got, 1);  // the control op was delayed, never lost
}

TEST(FaultTolerance, CrashedBrokerBlackHolesWithoutReliableControl) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 3);  // best-effort seed mode
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(2));
  int got = 0;
  sub.subscribe(stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  ASSERT_EQ(got, 1);

  overlay.crash(1);
  h.run_for(100 * sim::kMillisecond);
  overlay.restart(1);
  h.settle();
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  // The restarted middle broker lost the covering chain and nothing
  // replays it: events are black-holed until fresh churn.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);
}

TEST(FaultTolerance, RestartResyncRebuildsMidChainCoveringState) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 3, reliable_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(2));
  pub.enable_reliable_control(fast_channel());
  sub.enable_reliable_control(fast_channel());

  // A covered pair: the broad filter covers the narrow one, so brokers 1
  // and 0 see exactly one forwarded filter.
  int broad = 0, narrow = 0;
  sub.subscribe(stock("ACME"),
                [&](const Event&, SubscriptionId) { ++broad; });
  sub.subscribe(Filter().and_(eq("sym", "ACME")).and_(eq("venue", "X")),
                [&](const Event&, SubscriptionId) { ++narrow; });
  h.settle();
  ASSERT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);
  const std::string fingerprint_before =
      overlay.broker(1).routing_table().state_fingerprint();

  overlay.crash(1);
  h.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);
  overlay.restart(1);
  h.settle();

  // Anti-entropy rebuilt the exact pre-crash state, covering pruning
  // included, and the data plane works again.
  EXPECT_EQ(overlay.broker(1).routing_table().state_fingerprint(),
            fingerprint_before);
  EXPECT_EQ(overlay.broker(1).forwarded_size(overlay.broker(0).id()), 1u);
  EXPECT_GE(overlay.broker(1).stats().resync_msgs, 1u);
  pub.publish(Event().with("sym", "ACME").with("venue", "X"));
  h.settle();
  EXPECT_EQ(broad, 1);
  EXPECT_EQ(narrow, 1);
}

TEST(FaultTolerance, RestartResyncReplaysClientSubscriptions) {
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2, reliable_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  pub.enable_reliable_control(fast_channel());
  sub.enable_reliable_control(fast_channel());
  int got = 0;
  sub.subscribe(stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();

  // Crash the broker the subscriber is attached to: its registration only
  // exists client-side now, and the resync replays it.
  overlay.crash(1);
  h.run_for(100 * sim::kMillisecond);
  overlay.restart(1);
  h.settle();
  EXPECT_GE(overlay.broker(1).table_size(), 1u);
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  EXPECT_EQ(got, 1);
}

TEST(FaultTolerance, EnablingReliableControlAfterSubscribeThrows) {
  // A subscription made before the channel is enabled is never recorded
  // for the resync replay, so a broker restart would lose it for good.
  Harness h;
  Overlay overlay = Overlay::chain(h.sim, h.net, 1, reliable_config());
  Client sub(h.sim, h.net, "sub");
  sub.connect(overlay.broker(0));
  sub.subscribe(stock("ACME"));
  EXPECT_THROW(sub.enable_reliable_control(fast_channel()), std::logic_error);
  // A retracted subscription does not reopen the window either.
  Client churned(h.sim, h.net, "churned");
  churned.connect(overlay.broker(0));
  churned.unsubscribe(churned.subscribe(stock("ACME")));
  EXPECT_THROW(churned.enable_reliable_control(fast_channel()),
               std::logic_error);
  // Enabling first stays legal, also more than once.
  Client fresh(h.sim, h.net, "fresh");
  fresh.connect(overlay.broker(0));
  fresh.enable_reliable_control(fast_channel());
  EXPECT_NO_THROW(fresh.enable_reliable_control(fast_channel()));
}

TEST(FaultTolerance, CrashWithRefreshPassPendingHealsToNeverFaultedState) {
  // Broker 1 crashes in the instant two client subscribes reached it:
  // after their arrival marked its neighbors dirty, before the coalesced
  // refresh pass ran. The dead incarnation must forward nothing, and
  // restart + resync must rebuild the never-faulted run's state.
  struct Outcome {
    std::vector<std::string> fingerprints;
    int broad = 0, narrow = 0, early = 0;
  };
  const auto run = [](bool crash) {
    Harness h;
    Overlay overlay = Overlay::chain(h.sim, h.net, 3, reliable_config());
    Client pub(h.sim, h.net, "pub");
    Client early(h.sim, h.net, "early");
    Client sub(h.sim, h.net, "sub");
    pub.connect(overlay.broker(0));
    early.connect(overlay.broker(2));
    sub.connect(overlay.broker(1));
    for (Client* client : {&pub, &early, &sub}) {
      client->enable_reliable_control(fast_channel());
    }
    Outcome out;
    early.subscribe(stock("ACME"),
                    [&](const Event&, SubscriptionId) { ++out.early; });
    h.settle();
    const Broker::Stats before = overlay.broker(1).stats();
    sub.subscribe(stock("INIT"),
                  [&](const Event&, SubscriptionId) { ++out.broad; });
    sub.subscribe(Filter().and_(eq("sym", "INIT")).and_(eq("venue", "X")),
                  [&](const Event&, SubscriptionId) { ++out.narrow; });
    if (crash) {
      // Queued after both arrivals (client link: 1 ms), so it runs
      // between them and the pass they armed.
      h.sim.at(h.sim.now() + sim::kMillisecond, [&] { overlay.crash(1); });
      h.run_for(5 * sim::kMillisecond);
      const Broker::Stats dead = overlay.broker(1).stats();
      EXPECT_EQ(dead.subs_received, before.subs_received + 2);
      EXPECT_EQ(dead.subs_forwarded, before.subs_forwarded);
      EXPECT_EQ(dead.unsubs_forwarded, before.unsubs_forwarded);
      h.run_for(100 * sim::kMillisecond);
      overlay.restart(1);
    }
    h.settle();
    for (std::size_t b = 0; b < overlay.size(); ++b) {
      out.fingerprints.push_back(
          overlay.broker(b).routing_table().state_fingerprint());
    }
    pub.publish(Event().with("sym", "INIT").with("venue", "X"));
    pub.publish(Event().with("sym", "ACME"));
    h.settle();
    return out;
  };
  const Outcome healed = run(true);
  const Outcome oracle = run(false);
  EXPECT_EQ(healed.fingerprints, oracle.fingerprints);
  EXPECT_EQ(healed.broad, 1);
  EXPECT_EQ(healed.narrow, 1);
  EXPECT_EQ(healed.early, 1);
  EXPECT_EQ(oracle.broad, 1);
}

/// Registers, delivers through and retracts one subscription across a
/// two-broker chain whose brokers use `broker_config` and whose clients use
/// `client_channel`; returns the subscriber's delivery count.
int register_deliver_retract(Harness& h, const Broker::Config& broker_config,
                             const ReliableChannel::Config& client_channel) {
  Overlay overlay = Overlay::chain(h.sim, h.net, 2, broker_config);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  pub.enable_reliable_control(client_channel);
  sub.enable_reliable_control(client_channel);
  int got = 0;
  const SubscriptionId id = sub.subscribe(
      stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  EXPECT_EQ(overlay.broker(0).table_size(), 1u);
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  sub.unsubscribe(id);
  h.settle();
  EXPECT_EQ(overlay.broker(0).table_size(), 0u);
  EXPECT_EQ(overlay.broker(1).table_size(), 0u);
  return got;
}

std::uint64_t messages_of(const Harness& h, std::string_view type) {
  return h.net.messages_by_type().get(std::string(type));
}

TEST(FaultTolerance, ReliableClientRegistersAtBestEffortBroker) {
  Harness h;
  EXPECT_EQ(register_deliver_retract(h, Broker::Config{}, fast_channel()), 1);
  // The client's ops rode the stream; the brokers' went best-effort.
  EXPECT_EQ(messages_of(h, kTypeClientSubscribe), 0u);
  EXPECT_EQ(messages_of(h, kTypeClientUnsubscribe), 0u);
  EXPECT_EQ(messages_of(h, kTypeCtrl), 2u);
  EXPECT_EQ(messages_of(h, kTypeSubscribe), 1u);
  EXPECT_EQ(messages_of(h, kTypeUnsubscribe), 1u);
}

TEST(FaultTolerance, BestEffortClientRegistersAtReliableBroker) {
  Harness h;
  EXPECT_EQ(register_deliver_retract(h, reliable_config(),
                                     ReliableChannel::Config{}),
            1);
  // The client's ops went best-effort; the brokers' rode the stream.
  EXPECT_EQ(messages_of(h, kTypeClientSubscribe), 1u);
  EXPECT_EQ(messages_of(h, kTypeClientUnsubscribe), 1u);
  EXPECT_EQ(messages_of(h, kTypeSubscribe), 0u);
  EXPECT_EQ(messages_of(h, kTypeUnsubscribe), 0u);
  EXPECT_EQ(messages_of(h, kTypeCtrl), 2u);
}

TEST(FaultTolerance, BestEffortNeighborAnswersResyncOnTheStream) {
  // A restarted reliable broker asks its best-effort neighbor for the
  // filters it forwards; the neighbor's channel answers on the stream.
  Harness h;
  Broker plain(h.sim, h.net, "plain");
  Broker reliable(h.sim, h.net, "reliable", reliable_config());
  plain.add_neighbor(reliable);
  reliable.add_neighbor(plain);
  Client sub(h.sim, h.net, "sub");
  sub.connect(plain);
  sub.subscribe(stock("ACME"));
  h.settle();
  ASSERT_EQ(reliable.table_size(), 1u);

  h.net.set_node_up(reliable.id(), false);
  reliable.crash();
  h.run_for(100 * sim::kMillisecond);
  h.net.set_node_up(reliable.id(), true);
  reliable.restart();
  h.settle();
  EXPECT_EQ(reliable.table_size(), 1u);
  EXPECT_EQ(plain.control_channel().stats().ctrl_sent, 1u);  // the replay
}

TEST(FaultTolerance, ClientResyncDigestMatchesTableDigest) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", reliable_config());
  Client sub(h.sim, h.net, "sub");
  sub.connect(broker);
  sub.enable_reliable_control(fast_channel());
  ScoringSpec bm25;
  bm25.policy = ScoringPolicy::kBm25;
  bm25.query = {{"acme", 2.0}};
  bm25.text_attrs = {"title"};
  bm25.min_score = 0.5;
  const SubscriptionId neutral_id = sub.subscribe(stock("ACME"));
  const SubscriptionId scored_id =
      sub.subscribe_scored(stock("INITECH"), bm25);
  h.settle();
  const std::uint64_t digest =
      broker.routing_table().client_iface_digest(sub.id());
  EXPECT_EQ(digest,
            client_subscription_digest(neutral_id, stock("ACME"), {}) ^
                client_subscription_digest(scored_id, stock("INITECH"), bm25));
  // The BM25 spec is part of the digest.
  EXPECT_NE(digest,
            client_subscription_digest(neutral_id, stock("ACME"), {}) ^
                client_subscription_digest(scored_id, stock("INITECH"), {}));

  // Ask the client for its state the way a restarted broker does: it
  // replays only when the request's digest differs from its own.
  ChannelNode probe(h, "probe");
  CtrlOp request;
  request.kind = CtrlOp::Kind::kResyncRequest;
  request.digest = digest;
  probe.channel.send(sub.id(), request);
  h.settle();
  EXPECT_TRUE(probe.ops.empty());
  request.digest = digest ^ 1;
  probe.channel.send(sub.id(), request);
  h.settle();
  ASSERT_EQ(probe.ops.size(), 1u);
  EXPECT_EQ(probe.ops[0].kind, CtrlOp::Kind::kClientResyncState);
  EXPECT_EQ(probe.ops[0].subs.size(), 2u);
}

TEST(FaultTolerance, HeartbeatSuspicionQuarantinesAndRecovers) {
  Harness h;
  Broker::Config config;  // best-effort control, liveness only
  config.heartbeat_period = 50 * sim::kMillisecond;
  Overlay overlay = Overlay::chain(h.sim, h.net, 2, config);
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(overlay.broker(0));
  sub.connect(overlay.broker(1));
  int got = 0;
  sub.subscribe(stock("ACME"), [&](const Event&, SubscriptionId) { ++got; });
  h.settle();
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  ASSERT_EQ(got, 1);
  const sim::NodeId b1 = overlay.broker(1).id();

  overlay.crash(1);
  h.run_for(sim::kSecond);  // several suspicion timeouts of silence
  EXPECT_TRUE(overlay.broker(0).neighbor_quarantined(b1));
  EXPECT_EQ(overlay.broker(0).stats().suspicions, 1u);
  EXPECT_GT(overlay.broker(0).stats().heartbeats_sent, 0u);

  // Data-plane traffic is not forwarded into the black hole.
  const auto forwarded_before = overlay.broker(0).stats().pubs_forwarded;
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  EXPECT_EQ(overlay.broker(0).stats().pubs_forwarded, forwarded_before);

  // The neighbor's first heartbeat after restart lifts the quarantine.
  overlay.restart(1);
  h.settle();
  EXPECT_FALSE(overlay.broker(0).neighbor_quarantined(b1));
  pub.publish(Event().with("sym", "ACME"));
  h.settle();
  EXPECT_EQ(overlay.broker(0).stats().pubs_forwarded, forwarded_before + 1);
}

}  // namespace
}  // namespace reef::pubsub

