// Pub/sub client endpoint: the API surface application code uses to talk
// to a broker (subscribe / unsubscribe / publish) over the simulated
// network. The Reef subscription frontend and the feed proxy are built on
// this class.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pubsub/broker.h"
#include "pubsub/messages.h"
#include "pubsub/reliable_channel.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {

class Client final : public sim::Node {
 public:
  /// Invoked once per delivered event per matching subscription.
  using Handler = std::function<void(const Event&, SubscriptionId)>;

  /// Scored twin of Handler: also receives the delivering broker's
  /// relevance score (kConstantScore on unscored deliveries).
  using ScoredHandler =
      std::function<void(const Event&, SubscriptionId, double)>;

  Client(sim::Simulator& sim, sim::Network& net, std::string name);

  sim::NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// Connects to a broker. A client talks to exactly one broker; calling
  /// again rebinds new operations to the new broker (existing
  /// subscriptions stay on the old one and should be unsubscribed first).
  void connect(Broker& broker);
  bool connected() const noexcept { return broker_ != sim::kNoNode; }

  /// Configures the control channel every subscribe/unsubscribe goes
  /// through; `config.enabled` puts that traffic on the reliable stream
  /// (pass the broker's Broker::Config::control to match it). Also arms
  /// the client's side of broker-restart recovery: on a resync request
  /// from a restarted broker the client replays its full live
  /// subscription set. Throws std::logic_error once the client has
  /// subscribed: subscriptions made before it would be missing from
  /// every later replay.
  void enable_reliable_control(ReliableChannel::Config config);

  /// Registers `filter`; `handler` (optional) runs on each delivery.
  /// Returns the id used for unsubscribe. Requires connect() first.
  SubscriptionId subscribe(Filter filter, Handler handler = {});

  /// Scored subscribe: attaches a ScoringSpec evaluated at the delivering
  /// broker when its Config::scoring_enabled is set. The handler receives
  /// the broker-computed relevance score (kConstantScore when the broker
  /// delivers unscored). A neutral spec behaves exactly like subscribe().
  SubscriptionId subscribe_scored(Filter filter, ScoringSpec scoring,
                                  ScoredHandler handler = {});

  /// Disjunctive subscription sugar: places one subscription per filter
  /// sharing `handler`, deduplicating deliveries by event id so an event
  /// matching several branches fires the handler once. Returns the ids
  /// (retract each to fully unsubscribe).
  std::vector<SubscriptionId> subscribe_any(std::vector<Filter> filters,
                                            Handler handler);

  /// Retracts a subscription made by this client; unknown ids are ignored.
  void unsubscribe(SubscriptionId id);

  /// Publishes an event into the substrate via the connected broker.
  void publish(Event event);

  /// Publishes several events in one wire message (PublishBatchMsg); the
  /// broker matches them through the amortized batch path. Bursty
  /// publishers (the feed proxy flushing a poll cycle) use this to avoid
  /// one message per story.
  void publish_batch(std::vector<Event> events);

  void handle_message(const sim::Message& msg) override;

  // --- introspection --------------------------------------------------------
  std::uint64_t deliveries() const noexcept { return deliveries_; }
  /// DeliverBatchMsg wire messages received (their events are unpacked
  /// into the normal per-subscription handler/inbox path). How the broker
  /// cuts deliveries into wire messages is a function of its flush delay
  /// (Broker::Config::flush_max_delay_ticks) — clients observe the same
  /// deliveries in the same per-interface order under every delay, only
  /// the framing and timing differ.
  std::uint64_t batches_received() const noexcept { return batches_received_; }
  std::uint64_t published() const noexcept { return published_; }
  std::size_t active_subscriptions() const noexcept {
    return handlers_.size();
  }
  /// Events delivered for subscriptions with no handler accumulate here.
  const std::vector<std::pair<Event, SubscriptionId>>& inbox() const noexcept {
    return inbox_;
  }
  void clear_inbox() { inbox_.clear(); }
  const ReliableChannel& control_channel() const noexcept { return channel_; }

 private:
  sim::Simulator& sim_;
  sim::Network& net_;
  std::string name_;
  sim::NodeId id_;
  sim::NodeId broker_ = sim::kNoNode;
  std::unordered_map<SubscriptionId, ScoredHandler> handlers_;
  /// Live subscriptions (filter + scoring spec) by id, kept for
  /// broker-restart resync replay (only populated while the reliable
  /// channel is enabled).
  std::unordered_map<SubscriptionId, ClientSubscription> subs_;
  ReliableChannel channel_;
  void on_deliver(const DeliverMsg& deliver);
  void on_ctrl_op(sim::NodeId from, const CtrlOp& op);

  std::uint32_t next_sub_ = 1;
  std::uint64_t deliveries_ = 0;
  std::uint64_t batches_received_ = 0;
  std::uint64_t published_ = 0;
  std::uint64_t next_event_id_ = 1;
  std::vector<std::pair<Event, SubscriptionId>> inbox_;
};

}  // namespace reef::pubsub
