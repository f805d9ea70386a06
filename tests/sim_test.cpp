#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoWithinSameInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] { order.push_back(1); });
  sim.at(10, [&] { order.push_back(2); });
  sim.at(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  bool ran = false;
  sim.at(50, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  Time fired_at = -1;
  sim.at(100, [&] {
    sim.after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, NestedSchedulingDuringExecution) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(10, recurse);
  };
  sim.after(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, PeriodicTimerFiresAndCancels) {
  Simulator sim;
  int fires = 0;
  const TimerId id = sim.every(10, 10, [&] { ++fires; });
  sim.run_until(35);
  EXPECT_EQ(fires, 3);  // t=10,20,30
  sim.cancel(id);
  sim.run_until(100);
  EXPECT_EQ(fires, 3);
}

TEST(Simulator, TimerCanCancelItself) {
  Simulator sim;
  int fires = 0;
  TimerId id = 0;
  id = sim.every(10, 10, [&] {
    if (++fires == 2) sim.cancel(id);
  });
  sim.run_until(1000);
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, RunUntilExecutesBoundaryEvents) {
  Simulator sim;
  bool ran = false;
  sim.at(100, [&] { ran = true; });
  sim.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EveryRejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(sim.every(0, 0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunGuardsAgainstRunaway) {
  Simulator sim;
  sim.every(1, 1, [] {});
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(TimeFormat, RendersComponents) {
  EXPECT_EQ(format_time(0), "0d 00:00:00.000");
  EXPECT_EQ(format_time(kDay + 2 * kHour + 3 * kMinute + 4 * kSecond +
                        5 * kMillisecond),
            "1d 02:03:04.005");
}

// --- Network -------------------------------------------------------------------

class Recorder : public Node {
 public:
  void handle_message(const Message& msg) override {
    received.push_back(msg);
  }
  std::vector<Message> received;
};

Network::Config quiet_config() {
  Network::Config config;
  config.default_latency = 10 * kMillisecond;
  config.jitter_fraction = 0.0;
  return config;
}

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a;
  Recorder b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  const auto at = net.send(ida, idb, "test", std::string("hello"), 5);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, 10 * kMillisecond);
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].type, "test");
  EXPECT_EQ(std::any_cast<std::string>(b.received[0].payload), "hello");
  EXPECT_EQ(b.received[0].from, ida);
  EXPECT_TRUE(a.received.empty());
}

TEST(Network, SelfSendIsAsynchronousZeroLatency) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a;
  const NodeId ida = net.attach(a, "a");
  net.send(ida, ida, "self", 0, 1);
  EXPECT_TRUE(a.received.empty());  // not synchronous
  sim.run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(Network, PerLinkLatencyOverride) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  net.set_latency(ida, idb, 500 * kMillisecond);
  const auto at = net.send(ida, idb, "t", 0, 1);
  EXPECT_EQ(*at, 500 * kMillisecond);
}

TEST(Network, FifoLinksNeverReorder) {
  Simulator sim;
  Network::Config config;
  config.default_latency = 10 * kMillisecond;
  config.jitter_fraction = 2.0;  // aggressive jitter
  config.seed = 7;
  Network net(sim, config);
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  for (int i = 0; i < 50; ++i) net.send(ida, idb, "seq", i, 1);
  sim.run();
  ASSERT_EQ(b.received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(std::any_cast<int>(b.received[i].payload), i);
  }
}

TEST(Network, PartitionDropsInFlight) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  net.send(ida, idb, "t", 0, 1);
  net.set_partitioned(ida, idb, true);  // partition before delivery
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.dropped_messages(), 1u);

  net.set_partitioned(ida, idb, false);
  net.send(ida, idb, "t", 0, 1);
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, DownNodeDropsDelivery) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  net.set_node_up(idb, false);
  net.send(ida, idb, "t", 0, 1);
  sim.run();
  EXPECT_TRUE(b.received.empty());
  net.set_node_up(idb, true);
  net.send(ida, idb, "t", 0, 1);
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, UnknownDestinationCountsDropped) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a;
  const NodeId ida = net.attach(a, "a");
  EXPECT_FALSE(net.send(ida, 999, "t", 0, 1).has_value());
  EXPECT_EQ(net.dropped_messages(), 1u);
}

TEST(Network, LossyLinkDropsAndAttributes) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  net.set_loss_probability(ida, idb, 1.0);
  net.send(ida, idb, "t", 0, 1);
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.dropped_by_loss(), 1u);
  EXPECT_EQ(net.dropped_messages(), 1u);

  net.set_loss_probability(ida, idb, 0.0);
  net.send(ida, idb, "t", 0, 1);
  // Loss is per-link and per-direction-unordered-pair: other links are
  // untouched.
  net.send(idb, ida, "t", 0, 1);
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(net.dropped_by_loss(), 1u);
}

TEST(Network, DropCountersAttributeCause) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");

  net.send(ida, 999, "t", 0, 1);  // unknown destination
  net.set_partitioned(ida, idb, true);
  net.send(ida, idb, "t", 0, 1);
  sim.run();  // partition/down are evaluated at delivery time
  net.set_partitioned(ida, idb, false);
  net.set_node_up(idb, false);
  net.send(ida, idb, "t", 0, 1);
  sim.run();
  EXPECT_EQ(net.dropped_unknown_dest(), 1u);
  EXPECT_EQ(net.dropped_by_partition(), 1u);
  EXPECT_EQ(net.dropped_by_down(), 1u);
  EXPECT_EQ(net.dropped_by_loss(), 0u);
  EXPECT_EQ(net.dropped_messages(), 3u);

  net.reset_stats();
  EXPECT_EQ(net.dropped_messages(), 0u);
}

TEST(Network, TrafficAccounting) {
  Simulator sim;
  Network net(sim, quiet_config());
  Recorder a, b;
  const NodeId ida = net.attach(a, "a");
  const NodeId idb = net.attach(b, "b");
  net.send(ida, idb, "x", 0, 100);
  net.send(ida, idb, "x", 0, 50);
  net.send(idb, ida, "y", 0, 25);
  sim.run();
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.total_bytes(), 175u);
  EXPECT_EQ(net.messages_by_type().get("x"), 2u);
  EXPECT_EQ(net.bytes_by_type().get("x"), 150u);
  EXPECT_EQ(net.bytes_received(idb), 150u);
  EXPECT_EQ(net.messages_received(ida), 1u);
  net.reset_stats();
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.bytes_received(idb), 0u);
}

}  // namespace
}  // namespace reef::sim
