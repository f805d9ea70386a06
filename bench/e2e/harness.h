// The system under test as the benchmark drives it: an 8-broker tree on
// sim::Simulator with 240 subscriber clients and one publisher on broker
// 0, plus the bench-side bookkeeping the correctness check and the traced
// replays read afterwards. Also declares those two post-run passes.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/client.h"
#include "pubsub/overlay.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workload.h"

namespace e2e {

inline constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

/// One subscription the benchmark issued, by schedule handle.
struct SubRecord {
  SubSpec spec;
  pubsub::SubscriptionId id = 0;
  sim::Time subscribed = 0;
  sim::Time unsubscribed = kNever;
};

/// What the delivery handler records. Latencies are kept as a histogram
/// of distinct sim-time values, only while `latency_open`, and deliveries
/// only for checked events, so memory grows with the check sample, not
/// with the run.
struct DeliveryLog {
  std::uint64_t deliveries = 0;
  std::map<sim::Time, std::uint64_t> latency;  // publish->deliver, sim µs
  bool latency_open = true;
  std::vector<std::pair<std::uint64_t, pubsub::SubscriptionId>> checked;
  bool handler_ran = false;  // step attribution reads and clears this
};

/// Which published events the correctness check covers.
bool is_checked(Workload w, std::uint64_t seq);

class Harness {
 public:
  /// Builds the overlay and issues the whole population; settle() then
  /// runs the control traffic to quiescence. Both are the timed set-up.
  /// `inputs` must outlive the harness.
  explicit Harness(const Inputs& inputs);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void settle() { sim.run(); }

  /// Publishes the tick's events and issues its subscription operations.
  void apply(Tick& tick);

  /// Network messages received by the brokers so far.
  std::uint64_t broker_messages_received() const;
  /// Subscription control messages the brokers have handled so far.
  std::uint64_t broker_control_received() const;

  const Inputs& in;
  sim::Simulator sim;
  sim::Network net;
  pubsub::Overlay overlay;
  std::vector<std::unique_ptr<pubsub::Client>> clients;
  pubsub::Client publisher;
  std::vector<SubRecord> subs;  // by handle
  DeliveryLog log;

 private:
  void subscribe(std::uint64_t handle, SubSpec spec);
  void on_deliver(const pubsub::Event& event, pubsub::SubscriptionId sub);

  pubsub::AttrId seq_attr_;
  pubsub::AttrId ts_attr_;
};

/// Outcome of the correctness check.
struct CheckResult {
  std::uint64_t checked = 0;  // (event, subscription) pairs examined
  std::uint64_t missed = 0;
  std::uint64_t spurious = 0;
};

/// Compares the deliveries of every checked event among the first
/// `ticks` schedule ticks (starting at sim time `start`) with a bench-side
/// evaluation: Filter::matches over the live subscriptions, and on
/// scored_topk the top-k of each scored subscription under score_event.
CheckResult check_deliveries(const Harness& h, sim::Time start,
                             std::uint64_t ticks);

/// Per-type network traffic over an interval.
struct TrafficDelta {
  std::map<std::string, std::uint64_t> messages;
  std::map<std::string, std::uint64_t> bytes;
  std::map<std::string, std::uint64_t> units;
};
TrafficDelta traffic_since(const sim::Network& net, const TrafficDelta& base);
TrafficDelta traffic_now(const sim::Network& net);

/// Counters the replays report besides their spans.
struct ReplayCounts {
  std::uint64_t event_hops = 0;      // events matched, summed over brokers
  std::uint64_t matcher_hits = 0;
  std::uint64_t ctrl_ops = 0;        // client subscribe/unsubscribe replayed
  std::uint64_t ctrl_msgs = 0;       // broker-to-broker filters sent
  std::uint64_t entries = 0;         // final table entries, all brokers
  std::uint64_t maintain_runs = 0;
};

/// Sends every `stride`-th bundle of schedule ticks [first, end) through
/// the live brokers' final routing tables, hop by hop down the tree: spans
/// "matcher.match_batch", "routing_table.match_batch" and
/// "routing_table.match_batch_scored". Returns the bundles replayed.
std::uint64_t replay_matching(const Harness& h, std::uint64_t first,
                              std::uint64_t end, std::uint64_t stride,
                              Spans& spans, ReplayCounts& counts);

/// Replays the population plus the subscription operations of ticks
/// [0, ticks) on standalone RoutingTables wired as the tree, mirroring
/// Broker::on_*_subscribe: spans "routing_table.update" and
/// "routing_table.refresh".
void replay_control(const Inputs& inputs, std::uint64_t ticks, Spans& spans,
                    ReplayCounts& counts);

/// Sends the given per-type traffic into a fresh Network between two sink
/// nodes and drains it. Returns the mean wall nanoseconds per send().
double replay_network(const TrafficDelta& traffic);

}  // namespace e2e
