// Content-based pub/sub broker (Siena-style subscription forwarding).
//
// Brokers form an *acyclic* overlay. The routing logic — which filters are
// reachable through which interface, covering-based pruning of forwarded
// subscriptions, and event-to-interface matching — lives in RoutingTable;
// the Broker is a thin adapter that decodes protocol messages, feeds the
// table, and ships the table's answers over the simulated network.
//
// Publications crossing the broker are *coalesced per interface* under an
// adaptive flush policy: instead of one wire message per event, everything
// bound for the same neighbor (or client) leaves in a single
// PublishBatchMsg / DeliverBatchMsg, and inbound batches are matched
// through the amortized Matcher::match_batch path.
//
// ## Flush-policy invariants (Config::flush_max_{events,bytes,delay_ticks})
//
// When a pending per-interface batch is flushed is governed by three
// budgets; *what* it contains is not:
//
//   1. Delivery sets are budget-independent. A budget decides only how
//      pending output is cut into wire messages and when they leave; every
//      (event, interface, subscription) delivery the match sets imply is
//      eventually sent exactly once, in enqueue order per interface, for
//      every budget setting. (One caveat inherited from per-tick batching:
//      holding an event longer can let it race a subscription change
//      in flight — pub/sub gives no ordering guarantee in that window.
//      With settled subscriptions, delivery sets are identical across all
//      budgets; the differential fuzz harness holds this.)
//   2. Output is order-canonical. Timer-driven flushes visit pending
//      interfaces in interface-id order and client matched-sub lists are
//      sorted, so any two configurations that produce the same batch
//      boundaries produce byte-identical wire traffic. Budget trips flush
//      mid-tick — synchronously, at the enqueue that tripped the budget —
//      which is deterministic too: enqueues happen in interface-id order
//      per matched event.
//   3. flush_max_delay_ticks = 0 with unlimited event/byte budgets is
//      exactly the per-tick coalescing of PR 1-4: the flush runs at the
//      current instant after every already-queued arrival (the Simulator
//      guarantees same-instant FIFO), so one wire message carries the
//      whole tick's output, byte for byte as before.
//   4. Every flush is attributed to exactly one cause in Stats
//      (flushes_by_events / flushes_by_bytes / flushes_by_delay; the event
//      budget wins when both size budgets trip on the same enqueue), and
//      per-event residence (flush time minus enqueue time, in sim clock
//      ticks) accumulates in residence_ticks_total — the bench's
//      latency-vs-throughput sweep reads both.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/messages.h"
#include "pubsub/reliable_channel.h"
#include "pubsub/routing_table.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {

class Broker final : public sim::Node {
 public:
  struct Config {
    /// Covering-based pruning of forwarded subscriptions (ablation knob).
    bool covering_enabled = true;
    /// Matching engine, by built-in name ("brute-force" or "bitset"; see
    /// engines.h).
    std::string matcher_engine = std::string(kDefaultEngine);
    /// Filter-state shards inside this broker's routing table. Any value
    /// above 1 shards `matcher_engine` by anchor-attribute hash, with
    /// shard-aware event pre-filtering (sharded_matcher.h); 1 keeps the
    /// plain engine unless worker_threads is set.
    std::size_t shard_count = 1;
    /// Worker threads fanning batch matching over the shards; 0 matches
    /// inline on the simulator thread. Match output is bit-identical for
    /// every setting (tests/pubsub_sharding_test.cpp holds this).
    std::size_t worker_threads = 0;
    /// Scored delivery (see scoring.h): publications are matched through
    /// the scored batch path and each client subscription's ScoringSpec
    /// (top_k / min_score) is applied per publication batch before
    /// deliveries are enqueued. Off by default — the boolean path of
    /// PR 1-9, byte for byte. With it on, subscriptions whose spec is
    /// neutral still produce byte-identical wire output to the disabled
    /// path (the neutral property the fuzz tier pins); only non-neutral
    /// specs attach scores and can suppress deliveries.
    bool scoring_enabled = false;
    /// Adaptive flush: a pending per-interface batch is sent as soon as it
    /// holds this many events (0 = unlimited). Trips mid-tick: the wire
    /// message leaves synchronously at the enqueue that filled the batch,
    /// bounding batch size under heavy fan-in at the cost of more
    /// messages. 1 sends every event the moment it is routed, in its own
    /// wire message (no coalescing at all). See the flush-policy
    /// invariants above.
    std::size_t flush_max_events = 0;
    /// Adaptive flush: byte-budget twin of flush_max_events, metered with
    /// the shared batch wire-size accounting in messages.h (batch header
    /// plus per-entry framing). A pending batch is sent as soon as its
    /// wire size reaches this budget (0 = unlimited).
    std::size_t flush_max_bytes = 0;
    /// Adaptive flush: how long (in sim clock ticks, i.e. sim::Time
    /// microseconds) pending output may wait for more arrivals before the
    /// timer-driven flush sends it. 0 = flush at the end of the current
    /// instant — the strict per-tick coalescing of PR 1-4 and the
    /// ablation baseline. Larger values coalesce *across* ticks: fewer,
    /// larger wire messages, at up to this much added delivery latency
    /// per event (the bench's latency-vs-throughput sweep quantifies the
    /// trade). The deadline is armed when output goes pending with no
    /// timer in flight, so it is a *max* residence bound: later arrivals
    /// ride an already-armed timer and wait at most the remainder of its
    /// window, never longer than the budget.
    sim::Time flush_max_delay_ticks = 0;
    /// Reliable control channel: subscription traffic (broker-broker and
    /// client-broker) rides per-peer sequenced streams with cumulative
    /// acks and timeout/backoff retransmission, so partitions and lossy
    /// links can delay but never lose a subscribe/unsubscribe. Off by
    /// default: the seed's raw best-effort messages, byte for byte.
    bool reliable_control = false;
    /// Initial retransmission timeout of the reliable channel; doubles
    /// per retry up to retransmit_timeout_max.
    sim::Time retransmit_timeout = 50 * sim::kMillisecond;
    sim::Time retransmit_timeout_max = sim::kSecond;
    /// Neighbor-liveness heartbeat period; 0 (default) disables
    /// heartbeats and suspicion entirely.
    sim::Time heartbeat_period = 0;
    /// How long a neighbor may stay silent before it is suspected and its
    /// routes quarantined (data-plane traffic stops being forwarded into
    /// the black hole; control traffic keeps retransmitting). 0 = four
    /// heartbeat periods. Any message from the neighbor un-quarantines.
    sim::Time suspicion_timeout = 0;
  };

  struct Stats {
    std::uint64_t subs_received = 0;    ///< control msgs in (sub+unsub)
    std::uint64_t subs_forwarded = 0;   ///< SubscribeMsg sent to neighbors
    std::uint64_t unsubs_forwarded = 0; ///< UnsubscribeMsg sent to neighbors
    std::uint64_t pubs_received = 0;    ///< events in (batch counts each)
    std::uint64_t pubs_forwarded = 0;   ///< events out to neighbors
    std::uint64_t pub_msgs_sent = 0;    ///< wire messages carrying them
    std::uint64_t deliveries = 0;       ///< (event, client) deliveries
    std::uint64_t deliver_msgs_sent = 0; ///< wire messages carrying them
    std::uint64_t matches_run = 0;      ///< matcher invocations (batch = 1)
    // --- scored delivery (Config::scoring_enabled; see scoring.h) ---
    /// Relevance scores computed for candidate deliveries to non-neutral
    /// subscriptions (the scored-fanout volume before suppression).
    std::uint64_t scored_matches = 0;
    /// Candidate deliveries cut by a subscription's top-k bound.
    std::uint64_t suppressed_by_k = 0;
    /// Candidate deliveries scoring below a subscription's min_score.
    std::uint64_t suppressed_by_threshold = 0;
    // --- adaptive-flush introspection (see the flush-policy invariants) ---
    std::uint64_t flushes_by_events = 0; ///< wire msgs sent on the event budget
    std::uint64_t flushes_by_bytes = 0;  ///< wire msgs sent on the byte budget
    std::uint64_t flushes_by_delay = 0;  ///< wire msgs sent by the flush timer
    /// Logical units (events / deliveries) flushed, denominating
    /// residence_ticks_total.
    std::uint64_t flushed_units = 0;
    /// Sum over flushed units of (flush time - enqueue time) in sim clock
    /// ticks; mean event residence = residence_ticks_total / flushed_units.
    /// 0 under per-tick flushing (everything leaves the instant it arrived).
    sim::Time residence_ticks_total = 0;
    // --- fault tolerance (reliable_control / heartbeat_period) ---
    std::uint64_t retransmits = 0;     ///< control msgs resent on timeout
    std::uint64_t acks_sent = 0;       ///< cumulative acks emitted
    std::uint64_t heartbeats_sent = 0; ///< liveness probes to neighbors
    std::uint64_t suspicions = 0;      ///< neighbor quarantine transitions
    std::uint64_t resync_msgs = 0;     ///< anti-entropy msgs sent (req+state)
    std::uint64_t resync_bytes = 0;    ///< their wire bytes
  };

  Broker(sim::Simulator& sim, sim::Network& net, std::string name);
  Broker(sim::Simulator& sim, sim::Network& net, std::string name,
         Config config);

  sim::NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// Declares `other` a neighbor of this broker (one direction; the
  /// overlay helper wires both). The resulting graph must stay acyclic.
  void add_neighbor(Broker& other);

  /// Registers an attached client so deliveries can reach it. Called by
  /// Client::connect.
  void attach_client(sim::NodeId client);

  void handle_message(const sim::Message& msg) override;

  // --- crash/restart lifecycle ----------------------------------------------
  /// Crashes the broker: its in-memory routing table and pending output
  /// are lost and every timer stands down. The caller (Overlay::crash)
  /// also marks the node down so in-flight traffic is dropped.
  void crash();

  /// Restarts a crashed broker with an *empty* routing table: the static
  /// topology (neighbor and client interfaces) is re-declared, and with
  /// reliable_control on, anti-entropy resync requests go to every
  /// neighbor and client to rebuild subscription state (without it the
  /// broker black-holes until new churn happens to repopulate it).
  void restart();

  bool alive() const noexcept { return alive_; }

  // --- introspection --------------------------------------------------------
  /// Snapshot of the counters (reliable-channel counters merged in).
  Stats stats() const noexcept {
    Stats merged = stats_;
    merged.retransmits = channel_.stats().retransmits;
    merged.acks_sent = channel_.stats().acks_sent;
    return merged;
  }
  /// Total filters stored across all interfaces (routing-table size).
  std::size_t table_size() const noexcept { return table_.size(); }
  /// Filters currently forwarded to (i.e. requested from) a neighbor.
  std::size_t forwarded_size(sim::NodeId neighbor) const {
    return table_.forwarded_size(neighbor);
  }
  std::size_t neighbor_count() const noexcept { return neighbors_.size(); }
  const std::vector<sim::NodeId>& neighbors() const noexcept {
    return neighbors_;
  }
  const RoutingTable& routing_table() const noexcept { return table_; }
  const ReliableChannel& control_channel() const noexcept { return channel_; }
  bool neighbor_quarantined(sim::NodeId neighbor) const {
    return quarantined_.contains(neighbor);
  }
  std::size_t quarantined_count() const noexcept {
    return quarantined_.size();
  }

 private:
  void on_client_subscribe(sim::NodeId from, const ClientSubscribeMsg& msg);
  void on_client_unsubscribe(sim::NodeId from,
                             const ClientUnsubscribeMsg& msg);
  void on_broker_subscribe(sim::NodeId from, const SubscribeMsg& msg);
  void on_broker_unsubscribe(sim::NodeId from, const UnsubscribeMsg& msg);
  void on_publish(sim::NodeId from, const Event& event);
  void on_publish_batch(sim::NodeId from, const PublishBatchMsg& msg);

  // --- fault tolerance ---
  /// Dispatches one reliably-delivered control operation.
  void on_ctrl_op(sim::NodeId from, const CtrlOp& op);
  /// A peer came back with a higher epoch: drop its stale state and
  /// restart our stream toward it (the resync request follows on the
  /// fresh stream).
  void on_peer_restart(sim::NodeId peer);
  void on_resync_request(sim::NodeId from, std::uint64_t digest);
  void on_resync_state(sim::NodeId from, const std::vector<Filter>& want);
  void on_client_resync_state(sim::NodeId from,
                              const std::vector<ClientSubscription>& subs);
  void send_resync_request(sim::NodeId peer);
  void heartbeat_tick();

  /// Files one matched event into the per-interface output queues.
  void route_event(sim::NodeId from, const Event& event,
                   const std::vector<RoutingTable::Destination>& hits);

  /// One client destination of the event being routed; `score`/`scored`
  /// are set only on the scored path.
  struct ClientHit {
    sim::NodeId client = sim::kNoNode;
    SubscriptionId sub = 0;
    double score = kConstantScore;
    bool scored = false;  // carries a non-neutral spec
  };
  /// Enqueues the event collected in broker_hits_/client_hits_: one
  /// forward per distinct neighbor in id order, then one delivery per
  /// client in id order with its matched subs sorted by id (and scores
  /// attached when any of them is scored).
  void enqueue_routed(const Event& event);

  // --- scored delivery (Config::scoring_enabled) ---
  /// An (event index, client iface, client sub) triple suppressed by a
  /// delivery policy within one publication batch.
  using Suppressed = std::tuple<std::uint32_t, sim::NodeId, SubscriptionId>;

  /// The scored twin of the publish path: applies each non-neutral
  /// subscription's min_score filter and top-k cut over the *publication
  /// batch* (the events of this one wire message — the deterministic
  /// top-k window; see docs/ARCHITECTURE.md "Scored delivery"), then
  /// routes each event in batch order with the suppressions applied and
  /// scores attached. With no non-neutral subscription matched, the
  /// output is byte-identical to the boolean path.
  void route_scored(
      sim::NodeId from, std::span<const Event> events,
      const std::vector<std::vector<RoutingTable::ScoredDestination>>& hits);

  /// route_event with scoring decoration: client destinations listed in
  /// suppressed_ are skipped, and the per-client matched-sub list carries
  /// parallel scores when any matched subscription is non-neutral.
  /// Grouping and ordering are identical to route_event — delivery order
  /// keys on canonical event order and sorted sub ids, never on score.
  void route_event_scored(
      sim::NodeId from, const Event& event, std::uint32_t event_index,
      const std::vector<RoutingTable::ScoredDestination>& hits);

  /// Sends the refresh diff for `neighbor` computed by the routing table.
  void refresh_neighbor(sim::NodeId neighbor);
  void refresh_all_neighbors_except(sim::NodeId except);

  // --- adaptive output coalescing ---
  /// Why a pending batch left the broker; each sent wire message is
  /// attributed to exactly one cause in Stats.
  enum class FlushCause { kEvents, kBytes, kDelay };

  /// Pending per-interface output plus the bookkeeping the flush budgets
  /// need: the running batch wire size (incrementally maintained with the
  /// shared per-entry accounting in messages.h; Event::wire_size() is a
  /// cached field read) and the sum of enqueue times (residence of n units
  /// flushed at time t is n*t - enqueue_sum). The queued Events and
  /// DeliverMsgs are handles sharing the publication's one attribute
  /// block, so pending output holds no private copy of any event.
  struct PendingPubs {
    std::vector<Event> events;
    std::size_t bytes = kBatchHeaderBytes;
    sim::Time enqueue_time_sum = 0;
  };
  struct PendingDelivers {
    std::vector<DeliverMsg> items;
    std::size_t bytes = kBatchHeaderBytes;
    sim::Time enqueue_time_sum = 0;
  };

  void enqueue_publish(sim::NodeId neighbor, const Event& event);
  /// `scores` is parallel to `subs` on scored deliveries and empty
  /// otherwise (see DeliverMsg::scores).
  void enqueue_delivery(sim::NodeId client, const Event& event,
                        std::vector<SubscriptionId> subs,
                        std::vector<double> scores = {});
  /// The size budget an enqueue just tripped, if any (event budget wins
  /// when both trip).
  std::optional<FlushCause> tripped_budget(std::size_t events,
                                           std::size_t bytes) const;
  /// Accounts cause + residence for one outgoing batch of `units` logical
  /// units whose enqueue times sum to `enqueue_time_sum`.
  void note_flush(FlushCause cause, std::size_t units,
                  sim::Time enqueue_time_sum);
  void schedule_flush();
  void flush_pending();
  void send_publishes(sim::NodeId neighbor, std::vector<Event> events);
  void send_deliveries(sim::NodeId client, std::vector<DeliverMsg> items);

  sim::Simulator& sim_;
  sim::Network& net_;
  std::string name_;
  Config config_;
  sim::NodeId id_;

  std::vector<sim::NodeId> neighbors_;
  std::vector<sim::NodeId> clients_;
  RoutingTable table_;

  // --- fault tolerance ---
  bool alive_ = true;
  ReliableChannel channel_;
  /// Last time each neighbor was heard from (any message type).
  std::unordered_map<sim::NodeId, sim::Time> last_heard_;
  /// Suspected-dead neighbors: data-plane forwarding to them is paused
  /// (control traffic keeps retransmitting, so recovery is automatic).
  std::unordered_set<sim::NodeId> quarantined_;

  /// Events awaiting the timer-driven flush, per destination interface.
  /// Ordered maps so the flush emits wire messages in interface order —
  /// part of the engine- and scheduling-independent output contract (see
  /// route_event). A budget trip extracts and sends a single interface's
  /// entry mid-tick.
  std::map<sim::NodeId, PendingPubs> pending_pubs_;
  std::map<sim::NodeId, PendingDelivers> pending_delivers_;
  bool flush_scheduled_ = false;

  /// Per-event routing scratch, reused across events (routing never
  /// re-enters itself: sends deliver asynchronously).
  std::vector<sim::NodeId> broker_hits_;
  std::vector<ClientHit> client_hits_;
  /// The current publication batch's suppressions, sorted (scored path).
  std::vector<Suppressed> suppressed_;

  Stats stats_;
};

}  // namespace reef::pubsub
